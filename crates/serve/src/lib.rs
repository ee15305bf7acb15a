//! `ltt-serve` — a persistent timing-verification service.
//!
//! Every CLI invocation re-parses the netlist and re-derives all
//! per-circuit analyses before answering a single check `σ = (ξ, s, δ)`.
//! A serving workload inverts the ratio: the circuit is uploaded **once**
//! and then queried thousands of times, so the expensive part
//! (implication tables, SCOAP, arrival times, dominators, the base
//! fixpoint — everything [`ltt_core::PreparedCircuit`] caches) should be
//! paid once per circuit, not once per request.
//!
//! The service is a std-only TCP daemon speaking a **newline-delimited
//! JSON** protocol (one request object per line, one response object per
//! line; see [`wire`] for the hand-rolled encoder/decoder and [`proto`]
//! for the request grammar):
//!
//! * [`registry`] — a content-hashed, LRU-bounded **circuit registry**.
//!   `register` uploads a `.bench`/`.v` netlist; the entry owns a shared
//!   [`CheckSession`](ltt_core::CheckSession) so every later request
//!   reuses the same prepared analyses. Re-registering identical content
//!   is a cache hit (no re-parse, no re-prepare).
//! * [`server`] — connection handling on a bounded worker pool with
//!   **admission control**: a full queue yields a structured
//!   `overloaded` reply instead of unbounded buffering; a client that
//!   disconnects mid-request has its in-flight work cancelled through
//!   the [`CancelToken`](ltt_core::CancelToken) plumbing; a `shutdown`
//!   request drains gracefully (in-flight and queued work completes, new
//!   work is refused).
//! * [`client`] — a small blocking client used by `ltt client`, the
//!   `loadgen` load generator, and the integration tests.
//! * [`metrics`] — Prometheus-text exposition primitives: the lock-free
//!   latency [`Histogram`] behind the daemon's `metrics` operation and
//!   the shared [`percentile`] helper.
//!
//! Verdicts served over the socket are **bit-identical** to running the
//! same checks in-process with [`BatchRunner`](ltt_core::BatchRunner):
//! each request executes on the shared session through the same
//! deterministic batch engine, so serving changes latency and throughput,
//! never answers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod lineio;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod server;
pub mod wire;

pub use client::{is_timeout, Client};
pub use metrics::{percentile, Histogram};
pub use proto::{CheckSet, EditSpec, ErrorCode, ProtoError, Request, RequestBody, RunOpts};
pub use registry::{
    content_id, patched_id, session_config, CircuitEntry, CircuitRegistry, PatchOutcome,
    RegistryStats,
};
pub use server::{serve, ServeConfig, Server, ServerHandle};
pub use wire::{decode, Json, WireError};
