//! The TCP daemon: accept loop, per-connection readers, bounded worker
//! pool, admission control, and graceful drain.
//!
//! # Architecture
//!
//! One thread per connection **reads**; a fixed pool of worker threads
//! **computes**; replies are written through a shared, mutex-guarded
//! clone of the connection's stream, so workers answer while the reader
//! is already blocked on the next line (requests pipeline naturally).
//!
//! Cheap operations (`register`, `status`, `metrics`, `shutdown`) execute
//! inline on the reader thread. Check work (`check`, `batch_check`, `delay`) goes
//! through one bounded queue shared by every connection — the admission
//! point. A full queue yields an immediate structured `overloaded` reply:
//! the server sheds load explicitly instead of buffering unboundedly and
//! timing everyone out.
//!
//! Every connection owns a [`CancelToken`]. When the peer disconnects
//! (EOF or a read error) the token fires, and because each of the
//! connection's queued/running jobs executes under a
//! [`BatchRunner::with_cancel`] carrying that token, in-flight analysis
//! degrades to sound partial results and unstarted checks are skipped —
//! a dead client stops costing CPU within one budget-poll interval.
//!
//! A `shutdown` request (or [`ServerHandle::shutdown`]) begins a drain:
//! queued and in-flight work completes and is answered, new connections
//! and new work are refused, and [`Server::run`] returns once the pool is
//! idle. The readers poll the drain flag at their 100 ms read-timeout
//! cadence, so a drain completes promptly even with idle connections
//! open.

use crate::lineio::{CappedLineReader, LineRead};
use crate::metrics::Histogram;
use crate::proto::{
    batch_json, delay_json, error_response, ok_response, reused_report_json, CheckSet, EditSpec,
    ErrorCode, ProtoError, Request, RequestBody, RunOpts,
};
use crate::registry::{CircuitEntry, CircuitRegistry, RegistryStats};
use crate::wire::{decode, Json};
use ltt_core::{
    available_jobs, BatchCheck, BatchRunner, Budget, CancelToken, CheckSession, Engine, Verdict,
    VerifyReport,
};
use ltt_netlist::NetId;
use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often blocked readers and the accept loop re-check the drain flag.
const POLL: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size; `0` means one per available hardware thread.
    pub jobs: usize,
    /// Admission bound: queued (not yet running) requests beyond this are
    /// refused with `overloaded`.
    pub queue_cap: usize,
    /// Maximum circuits resident in the registry (LRU beyond this).
    pub registry_cap: usize,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// answered with a structured `too_large` error and discarded without
    /// ever being buffered whole (default 16 MiB).
    pub max_line_bytes: usize,
}

/// The default request-line cap: generous enough for any realistic
/// netlist upload, small enough that one hostile peer cannot balloon the
/// process.
pub const DEFAULT_MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            queue_cap: 64,
            registry_cap: 16,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
        }
    }
}

/// Monotonic counters exposed by `status` and `metrics`.
///
/// Admission-side counters (`submitted`, `overloaded`) are only ever
/// incremented while the queue lock is held, so a snapshot taken under
/// that lock sees a frozen admission frontier; completion-side counters
/// (`completed_ok`, `panicked`) advance freely but only ever for jobs the
/// frozen frontier already admitted. That makes
/// `submitted == overloaded + queued + in_flight + completed_ok + panicked`
/// an invariant of every snapshot, with `in_flight` derived rather than
/// tracked (a separately-updated atomic could disagree with the others).
#[derive(Debug, Default)]
struct Counters {
    connections_total: AtomicU64,
    connections_open: AtomicU64,
    /// Requests that reached admission control: enqueued or shed.
    submitted: AtomicU64,
    /// Jobs whose handler returned normally (a panicking handler counts
    /// under `panicked` only, never here).
    completed_ok: AtomicU64,
    overloaded: AtomicU64,
    budget_tripped: AtomicU64,
    panicked: AtomicU64,
    disconnect_cancels: AtomicU64,
    /// Request lines refused (before parsing) for exceeding the line cap.
    /// Never admitted, so outside the accounting identity above.
    too_large: AtomicU64,
}

/// A coherent point-in-time view of the server's counters: taken under
/// the queue lock, so the accounting identity documented on [`Counters`]
/// holds exactly in every snapshot.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    submitted: u64,
    completed_ok: u64,
    panicked: u64,
    overloaded: u64,
    budget_tripped: u64,
    queued: u64,
    in_flight: u64,
    connections_total: u64,
    connections_open: u64,
    disconnect_cancels: u64,
    too_large: u64,
}

/// One unit of admitted work: executed by a worker, replied through the
/// originating connection's shared writer.
struct Job {
    /// The computation; returns the reply to send.
    work: Box<dyn FnOnce() -> Json + Send>,
    /// Where to send the reply.
    reply: ReplyHandle,
    /// Correlation id for the last-resort internal-error reply.
    id: Option<Json>,
}

/// State shared by the accept loop, readers, workers, and handles.
struct Shared {
    registry: CircuitRegistry,
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    draining: AtomicBool,
    queue_cap: usize,
    max_line_bytes: usize,
    counters: Counters,
    /// Wall-clock latency of every finished job (queued-to-replied is the
    /// worker's concern; this measures handler execution).
    latency: Histogram,
    started: Instant,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.job_ready.notify_all();
    }

    /// Takes a coherent counter snapshot (see [`Counters`] for why the
    /// queue lock makes the accounting identity exact).
    fn snapshot(&self) -> Snapshot {
        let queue = self.queue.lock().expect("queue lock poisoned");
        let queued = queue.len() as u64;
        let c = &self.counters;
        let submitted = c.submitted.load(Ordering::Relaxed);
        let overloaded = c.overloaded.load(Ordering::Relaxed);
        let completed_ok = c.completed_ok.load(Ordering::Relaxed);
        let panicked = c.panicked.load(Ordering::Relaxed);
        // Everything admitted but neither queued nor finished is on a
        // worker right now. The saturation is belt-and-braces: with the
        // frontier frozen by the lock the subtraction cannot go negative.
        let in_flight = submitted
            .saturating_sub(overloaded)
            .saturating_sub(queued)
            .saturating_sub(completed_ok)
            .saturating_sub(panicked);
        drop(queue);
        Snapshot {
            submitted,
            completed_ok,
            panicked,
            overloaded,
            budget_tripped: c.budget_tripped.load(Ordering::Relaxed),
            queued,
            in_flight,
            connections_total: c.connections_total.load(Ordering::Relaxed),
            connections_open: c.connections_open.load(Ordering::Relaxed),
            disconnect_cancels: c.disconnect_cancels.load(Ordering::Relaxed),
            too_large: c.too_large.load(Ordering::Relaxed),
        }
    }
}

/// A writer half shared between the reader thread and the workers; every
/// reply is one locked `write + flush`, so concurrent replies interleave
/// at line granularity, never within a line.
#[derive(Clone)]
struct ReplyHandle {
    stream: Arc<Mutex<TcpStream>>,
}

impl ReplyHandle {
    /// Sends one response line. Write errors are swallowed: a reply that
    /// cannot be delivered means the client is gone, and the connection's
    /// cancel token (driven by the reader's EOF) already handles that.
    fn send(&self, response: &Json) {
        let mut stream = self.stream.lock().expect("reply lock poisoned");
        let _ = writeln!(stream, "{}", response.encode());
        let _ = stream.flush();
    }
}

/// A control handle onto a running server (shutdown from tests or a
/// supervising thread; `status`-style introspection).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins a graceful drain, exactly like a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Registry counters (for tests and supervisors; clients use the
    /// `status` request).
    pub fn registry_stats(&self) -> RegistryStats {
        self.shared.registry.stats()
    }
}

/// The daemon. [`Server::bind`] claims the socket; [`Server::run`] serves
/// until a drain completes.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: usize,
}

impl Server {
    /// Binds the listening socket and builds the shared state. No threads
    /// run until [`Server::run`].
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            registry: CircuitRegistry::new(config.registry_cap),
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            queue_cap: config.queue_cap.max(1),
            max_line_bytes: config.max_line_bytes.max(1024),
            counters: Counters::default(),
            latency: Histogram::new(),
            started: Instant::now(),
        });
        Ok(Server {
            listener,
            shared,
            jobs: if config.jobs == 0 {
                available_jobs()
            } else {
                config.jobs
            },
        })
    }

    /// The bound address (the real ephemeral port after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serves until a `shutdown` request (or [`ServerHandle::shutdown`])
    /// drains the server: accepts connections, spawns one reader per
    /// connection, runs the worker pool, and returns once every queued and
    /// in-flight job has been answered.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            shared,
            jobs,
        } = self;
        let workers: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        listener.set_nonblocking(true)?;
        let mut readers = Vec::new();
        loop {
            if shared.draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    // One-line replies must leave now, not after Nagle and
                    // the peer's delayed ACK agree (a ~40 ms tax per RPC).
                    stream.set_nodelay(true).ok();
                    let shared = shared.clone();
                    readers.push(std::thread::spawn(move || {
                        serve_connection(stream, &shared);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        // Close the listening socket immediately: from here on a connection
        // attempt is refused at the OS level, not parked in a backlog the
        // drain will never answer.
        drop(listener);
        // Drain: workers exit once the queue is empty; readers notice the
        // flag within one read-timeout tick.
        for worker in workers {
            let _ = worker.join();
        }
        for reader in readers {
            let _ = reader.join();
        }
        Ok(())
    }
}

/// Runs a daemon with the given config, printing the bound address to
/// stdout (`listening on ADDR`) before serving — the line scripts and the
/// smoke test parse to discover an ephemeral port.
pub fn serve(config: &ServeConfig) -> std::io::Result<()> {
    let server = Server::bind(config)?;
    println!("listening on {}", server.local_addr()?);
    std::io::stdout().flush()?;
    server.run()
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.draining() {
                    break None;
                }
                queue = shared
                    .job_ready
                    .wait_timeout(queue, POLL)
                    .expect("queue lock poisoned")
                    .0;
            }
        };
        let Some(job) = job else { return };
        let started = Instant::now();
        // Last-resort isolation: the batch engine already catches per-check
        // panics, so tripping this means a harness bug — count it, answer
        // with a structured internal error, keep the worker alive. A
        // panicked job counts under `panicked` ONLY; `completed_ok` means
        // the handler returned normally, and the two partition every job
        // a worker finishes (the accounting identity on `Counters` needs
        // exactly-once attribution, not double counting).
        let (response, panicked) = match catch_unwind(AssertUnwindSafe(job.work)) {
            Ok(response) => (response, false),
            Err(_) => (
                error_response(
                    job.id.as_ref(),
                    &ProtoError::new(ErrorCode::Internal, "request handler panicked"),
                ),
                true,
            ),
        };
        shared.latency.observe(started.elapsed());
        // Count before replying: a client that receives the reply and
        // immediately asks for `status` must already see this job counted.
        if panicked {
            shared.counters.panicked.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.counters.completed_ok.fetch_add(1, Ordering::Relaxed);
        }
        job.reply.send(&response);
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    shared
        .counters
        .connections_total
        .fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .connections_open
        .fetch_add(1, Ordering::Relaxed);
    let cancel = CancelToken::new();
    let disconnected = read_loop(stream, shared, &cancel);
    if disconnected {
        // The peer vanished: abort everything this connection still has
        // queued or running. (A drain-triggered exit is NOT a disconnect —
        // pending work must complete and be answered.)
        cancel.cancel();
        shared
            .counters
            .disconnect_cancels
            .fetch_add(1, Ordering::Relaxed);
    }
    shared
        .counters
        .connections_open
        .fetch_sub(1, Ordering::Relaxed);
}

/// Reads and dispatches request lines until EOF, a read error, or a drain.
/// Returns whether the peer disconnected (as opposed to a drain exit).
fn read_loop(stream: TcpStream, shared: &Arc<Shared>, cancel: &CancelToken) -> bool {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return true;
    }
    let reply = match stream.try_clone() {
        Ok(w) => ReplyHandle {
            stream: Arc::new(Mutex::new(w)),
        },
        Err(_) => return true,
    };
    let mut reader = CappedLineReader::new(BufReader::new(stream), shared.max_line_bytes);
    loop {
        match reader.read_line() {
            Ok(LineRead::Line(text)) => {
                let text = text.trim();
                if !text.is_empty() {
                    dispatch(text, shared, cancel, &reply);
                }
            }
            Ok(LineRead::TooLarge) => {
                // The oversize line never parsed, so no correlation id is
                // recoverable. Its remainder is being discarded (never
                // buffered); the connection stays usable for what follows.
                shared.counters.too_large.fetch_add(1, Ordering::Relaxed);
                reply.send(&error_response(
                    None,
                    &ProtoError::new(
                        ErrorCode::TooLarge,
                        format!(
                            "request line exceeds the {}-byte limit",
                            shared.max_line_bytes
                        ),
                    ),
                ));
            }
            // Timeout mid-wait: any partial line stays buffered inside the
            // reader; the next call resumes where this one stopped.
            Ok(LineRead::TimedOut) => {
                if shared.draining() {
                    return false;
                }
            }
            Ok(LineRead::Eof) | Err(_) => return true,
        }
    }
}

/// Parses and executes one request line: inline for control operations,
/// through the admission queue for check work.
fn dispatch(text: &str, shared: &Arc<Shared>, cancel: &CancelToken, reply: &ReplyHandle) {
    let json = match decode(text) {
        Ok(json) => json,
        Err(e) => {
            // The line never parsed, so no correlation id is recoverable.
            reply.send(&error_response(
                None,
                &ProtoError::new(ErrorCode::BadRequest, format!("invalid JSON: {e}")),
            ));
            return;
        }
    };
    let request = match Request::parse(&json) {
        Ok(request) => request,
        Err(e) => {
            reply.send(&error_response(json.get("id"), &e));
            return;
        }
    };
    let id = request.id;
    let refuse_if_draining = |op: &str| -> bool {
        if shared.draining() {
            reply.send(&error_response(
                id.as_ref(),
                &ProtoError::new(
                    ErrorCode::ShuttingDown,
                    format!("server is draining; `{op}` refused"),
                ),
            ));
            true
        } else {
            false
        }
    };
    match request.body {
        RequestBody::Status => reply.send(&status_response(shared, id.as_ref())),
        RequestBody::Metrics => reply.send(&metrics_response(shared, id.as_ref())),
        RequestBody::Shutdown => {
            shared.begin_drain();
            reply.send(&ok_response("shutdown", id.as_ref(), vec![]));
        }
        RequestBody::Register {
            name,
            format,
            source,
            delay,
        } => {
            if refuse_if_draining("register") {
                return;
            }
            match shared.registry.register(&name, &format, &source, delay) {
                Ok((entry, cached)) => {
                    let outputs: Vec<Json> = entry
                        .circuit
                        .outputs()
                        .iter()
                        .map(|&o| Json::str(entry.circuit.net(o).name()))
                        .collect();
                    reply.send(&ok_response(
                        "register",
                        id.as_ref(),
                        vec![
                            ("circuit".to_string(), Json::str(entry.id.clone())),
                            ("name".to_string(), Json::str(name)),
                            ("cached".to_string(), Json::Bool(cached)),
                            (
                                "inputs".to_string(),
                                Json::Int(entry.circuit.inputs().len() as i64),
                            ),
                            ("outputs".to_string(), Json::Arr(outputs)),
                            (
                                "gates".to_string(),
                                Json::Int(entry.circuit.num_gates() as i64),
                            ),
                        ],
                    ));
                }
                Err(e) => reply.send(&error_response(id.as_ref(), &e)),
            }
        }
        RequestBody::Check {
            circuit,
            output,
            delta,
            opts,
        } => {
            if refuse_if_draining("check") {
                return;
            }
            submit_checks(
                shared,
                cancel,
                reply,
                id,
                "check",
                &circuit,
                NamedChecks::Explicit(vec![(output, delta)]),
                opts,
            );
        }
        RequestBody::BatchCheck {
            circuit,
            checks,
            opts,
        } => {
            if refuse_if_draining("batch_check") {
                return;
            }
            let named = match checks {
                crate::proto::CheckSet::Explicit(pairs) => NamedChecks::Explicit(pairs),
                crate::proto::CheckSet::AllOutputs(delta) => NamedChecks::AllOutputs(delta),
            };
            submit_checks(
                shared,
                cancel,
                reply,
                id,
                "batch_check",
                &circuit,
                named,
                opts,
            );
        }
        RequestBody::Delay {
            circuit,
            output,
            opts,
        } => {
            if refuse_if_draining("delay") {
                return;
            }
            submit_delay(shared, cancel, reply, id, &circuit, output, opts);
        }
        RequestBody::Patch {
            circuit,
            name,
            edits,
            checks,
            opts,
        } => {
            if refuse_if_draining("patch") {
                return;
            }
            submit_patch(
                shared, cancel, reply, id, &circuit, name, edits, checks, opts,
            );
        }
    }
}

/// The checks of one request, outputs still by name.
enum NamedChecks {
    Explicit(Vec<(String, i64)>),
    AllOutputs(i64),
}

/// Resolves one output name to its [`NetId`], requiring a primary output.
fn resolve_output(session: &CheckSession<'static>, name: &str) -> Result<NetId, ProtoError> {
    session
        .circuit()
        .net_by_name(name)
        .filter(|n| session.circuit().outputs().contains(n))
        .ok_or_else(|| {
            ProtoError::new(
                ErrorCode::UnknownOutput,
                format!("`{name}` is not a primary output of the circuit"),
            )
        })
}

/// Builds the per-request batch engine: the connection's cancel token
/// always rides along; the request's opts add deadline, backtrack cap, and
/// fail-fast on top.
fn build_runner(opts: &RunOpts, cancel: &CancelToken) -> BatchRunner {
    let mut runner = BatchRunner::new(opts.jobs.max(1))
        .with_cancel(cancel.clone())
        .with_fail_fast(opts.fail_fast);
    if let Some(ms) = opts.deadline_ms {
        runner = runner.with_deadline(Duration::from_millis(ms));
    }
    if let Some(max) = opts.max_backtracks {
        runner = runner.with_budget(Budget::unlimited().with_backtracks(max));
    }
    runner
}

/// Admission control: enqueue `job` or refuse with `overloaded`.
///
/// `submitted` and `overloaded` advance while the queue lock is still
/// held: a snapshot taken under that lock must see the admission frontier
/// and the queue depth agree (incrementing after `drop(queue)` opens a
/// window where a shed request is visible in neither counter nor queue,
/// breaking the accounting identity documented on [`Counters`]).
fn admit(shared: &Arc<Shared>, reply: &ReplyHandle, job: Job) {
    let mut queue = shared.queue.lock().expect("queue lock poisoned");
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    if queue.len() >= shared.queue_cap {
        shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        reply.send(&error_response(
            job.id.as_ref(),
            &ProtoError::new(
                ErrorCode::Overloaded,
                format!(
                    "work queue is full ({} pending); retry later",
                    shared.queue_cap
                ),
            ),
        ));
        return;
    }
    queue.push_back(job);
    drop(queue);
    shared.job_ready.notify_one();
}

#[allow(clippy::too_many_arguments)]
fn submit_checks(
    shared: &Arc<Shared>,
    cancel: &CancelToken,
    reply: &ReplyHandle,
    id: Option<Json>,
    op: &'static str,
    circuit_key: &str,
    named: NamedChecks,
    opts: RunOpts,
) {
    // Resolve the registry entry and the outputs inline: lookup failures
    // answer immediately instead of consuming a queue slot.
    let entry = match shared.registry.lookup(circuit_key) {
        Ok(entry) => entry,
        Err(e) => {
            reply.send(&error_response(id.as_ref(), &e));
            return;
        }
    };
    let (names, checks): (Vec<String>, Vec<(NetId, i64)>) = match named {
        NamedChecks::Explicit(pairs) => {
            let mut names = Vec::with_capacity(pairs.len());
            let mut checks = Vec::with_capacity(pairs.len());
            for (name, delta) in pairs {
                match resolve_output(&entry.session, &name) {
                    Ok(net) => {
                        names.push(name);
                        checks.push((net, delta));
                    }
                    Err(e) => {
                        reply.send(&error_response(id.as_ref(), &e));
                        return;
                    }
                }
            }
            (names, checks)
        }
        NamedChecks::AllOutputs(delta) => entry
            .circuit
            .outputs()
            .iter()
            .map(|&o| (entry.circuit.net(o).name().to_string(), (o, delta)))
            .unzip(),
    };
    let runner = build_runner(&opts, cancel);
    let shared_for_job = shared.clone();
    let job_id = id.clone();
    admit(
        shared,
        reply,
        Job {
            reply: reply.clone(),
            id,
            work: Box::new(move || {
                let batch = if opts.engine == Engine::Narrow {
                    runner.run(&entry.session, &checks)
                } else {
                    // The registered session is engine-agnostic; the
                    // request's `opts.engine` picks the backend per call.
                    ltt_sat::run_checks(
                        &entry.session,
                        opts.engine,
                        &checks,
                        &runner_budget(&runner),
                        opts.fail_fast,
                    )
                };
                // Feed the entry's result cache: a later `patch` transplants
                // these for outputs its edits cannot reach.
                entry.cache_reports(&batch.reports);
                let tripped = batch
                    .reports
                    .iter()
                    .filter(|r| !r.completeness.is_exact())
                    .count() as u64;
                if tripped > 0 {
                    shared_for_job
                        .counters
                        .budget_tripped
                        .fetch_add(tripped, Ordering::Relaxed);
                }
                ok_response(op, job_id.as_ref(), batch_json(&batch, &names))
            }),
        },
    );
}

fn submit_delay(
    shared: &Arc<Shared>,
    cancel: &CancelToken,
    reply: &ReplyHandle,
    id: Option<Json>,
    circuit_key: &str,
    output: Option<String>,
    opts: RunOpts,
) {
    let entry = match shared.registry.lookup(circuit_key) {
        Ok(entry) => entry,
        Err(e) => {
            reply.send(&error_response(id.as_ref(), &e));
            return;
        }
    };
    let targets: Vec<NetId> = match &output {
        Some(name) => match resolve_output(&entry.session, name) {
            Ok(net) => vec![net],
            Err(e) => {
                reply.send(&error_response(id.as_ref(), &e));
                return;
            }
        },
        None => entry.circuit.outputs().to_vec(),
    };
    let runner = build_runner(&opts, cancel);
    let shared_for_job = shared.clone();
    let job_id = id.clone();
    admit(
        shared,
        reply,
        Job {
            reply: reply.clone(),
            id,
            work: Box::new(move || {
                // A whole-circuit request uses the batch engine's isolated
                // all-outputs search; a single output runs the search
                // directly under the same merged budget.
                let results: Vec<Json> = if opts.engine != Engine::Narrow {
                    // SAT/hybrid searches run in place, sequentially: the
                    // backend is the cross-check path, not the throughput
                    // path, and every probe already shares the merged
                    // budget (deadline, cancel, backtrack cap).
                    let budget = runner_budget(&runner);
                    targets
                        .iter()
                        .map(|&o| {
                            let search = ltt_sat::exact_delay_with_engine(
                                &entry.session,
                                opts.engine,
                                o,
                                &budget,
                            );
                            if !search.proven_exact {
                                shared_for_job
                                    .counters
                                    .budget_tripped
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            delay_json(&search, entry.circuit.net(o).name())
                        })
                        .collect()
                } else if output.is_some() {
                    let budget = runner_budget(&runner);
                    let search = entry.session.exact_delay_budgeted(targets[0], &budget);
                    let name = entry.circuit.net(targets[0]).name().to_string();
                    if !search.proven_exact {
                        shared_for_job
                            .counters
                            .budget_tripped
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    vec![delay_json(&search, &name)]
                } else {
                    entry
                        .session
                        .circuit()
                        .outputs()
                        .iter()
                        .zip(runner.try_exact_delays(&entry.session))
                        .map(|(&o, result)| {
                            let name = entry.circuit.net(o).name();
                            match result {
                                Ok(search) => {
                                    if !search.proven_exact {
                                        shared_for_job
                                            .counters
                                            .budget_tripped
                                            .fetch_add(1, Ordering::Relaxed);
                                    }
                                    delay_json(&search, name)
                                }
                                Err(e) => Json::obj([
                                    ("output", Json::str(name)),
                                    ("error", Json::str(e.to_string())),
                                ]),
                            }
                        })
                        .collect()
                };
                ok_response(
                    "delay",
                    job_id.as_ref(),
                    vec![("results".to_string(), Json::Arr(results))],
                )
            }),
        },
    );
}

/// Executes a `patch`: applies the edits through the registry (which
/// rebases the parent's session and transplants clean-cone state), then —
/// when the request bundles checks — runs them against the patched entry,
/// serving cached transplanted reports without re-execution.
///
/// The patch itself runs inline on the reader thread, like `register`:
/// that keeps pipelined follow-up requests naming the patched id ordered
/// after its registration. Only the bundled checks go through admission.
#[allow(clippy::too_many_arguments)]
fn submit_patch(
    shared: &Arc<Shared>,
    cancel: &CancelToken,
    reply: &ReplyHandle,
    id: Option<Json>,
    circuit_key: &str,
    name: Option<String>,
    edits: Vec<EditSpec>,
    checks: Option<CheckSet>,
    opts: RunOpts,
) {
    let outcome = match shared.registry.patch(circuit_key, name.as_deref(), &edits) {
        Ok(outcome) => outcome,
        Err(e) => {
            reply.send(&error_response(id.as_ref(), &e));
            return;
        }
    };
    let entry = outcome.entry.clone();
    let patch_fields = vec![
        ("circuit".to_string(), Json::str(entry.id.clone())),
        ("name".to_string(), Json::str(entry.name.clone())),
        ("cached".to_string(), Json::Bool(outcome.resident)),
        ("structural".to_string(), Json::Bool(outcome.structural)),
        (
            "dirty".to_string(),
            Json::Arr(outcome.dirty.iter().map(|d| Json::str(d.clone())).collect()),
        ),
        (
            "transplanted".to_string(),
            Json::Int(outcome.transplanted as i64),
        ),
    ];
    let Some(checks) = checks else {
        reply.send(&ok_response("patch", id.as_ref(), patch_fields));
        return;
    };
    let (names, checks): (Vec<String>, Vec<(NetId, i64)>) = match checks {
        CheckSet::Explicit(pairs) => {
            let mut names = Vec::with_capacity(pairs.len());
            let mut resolved = Vec::with_capacity(pairs.len());
            for (name, delta) in pairs {
                match resolve_output(&entry.session, &name) {
                    Ok(net) => {
                        names.push(name);
                        resolved.push((net, delta));
                    }
                    Err(e) => {
                        reply.send(&error_response(id.as_ref(), &e));
                        return;
                    }
                }
            }
            (names, resolved)
        }
        CheckSet::AllOutputs(delta) => entry
            .circuit
            .outputs()
            .iter()
            .map(|&o| (entry.circuit.net(o).name().to_string(), (o, delta)))
            .unzip(),
    };
    let runner = build_runner(&opts, cancel);
    let shared_for_job = shared.clone();
    let job_id = id.clone();
    admit(
        shared,
        reply,
        Job {
            reply: reply.clone(),
            id,
            work: Box::new(move || {
                let (batch, reused) = run_with_reuse(&runner, &entry, &checks);
                let tripped = batch
                    .reports
                    .iter()
                    .filter(|r| !r.completeness.is_exact())
                    .count() as u64;
                if tripped > 0 {
                    shared_for_job
                        .counters
                        .budget_tripped
                        .fetch_add(tripped, Ordering::Relaxed);
                }
                let mut fields = patch_fields;
                fields.append(&mut batch_json_with_reuse(&batch, &names, &reused));
                ok_response("patch", job_id.as_ref(), fields)
            }),
        },
    );
}

/// Runs `checks` against `entry`, serving any check whose exact report is
/// already cached (transplanted across a patch, or produced by an earlier
/// request) without re-executing it. Returns the merged batch — reports
/// and errors in *request* order — plus the per-report reuse flags.
fn run_with_reuse(
    runner: &BatchRunner,
    entry: &Arc<CircuitEntry>,
    checks: &[(NetId, i64)],
) -> (BatchCheck, Vec<bool>) {
    let cached: Vec<Option<VerifyReport>> = checks
        .iter()
        .map(|&(output, delta)| entry.cached_report(output, delta))
        .collect();
    // Positions (in request order) of the checks that must actually run.
    let to_run_pos: Vec<usize> = (0..checks.len()).filter(|&i| cached[i].is_none()).collect();
    let to_run: Vec<(NetId, i64)> = to_run_pos.iter().map(|&i| checks[i]).collect();
    let mut batch = runner.run(&entry.session, &to_run);
    entry.cache_reports(&batch.reports);
    // Remap the fresh slots back to request-order indices.
    for error in &mut batch.errors {
        error.index = to_run_pos[error.index];
    }
    let mut fresh = batch.reports.drain(..);
    let mut reports = Vec::with_capacity(checks.len());
    let mut reused = Vec::with_capacity(checks.len());
    let errored = |i: usize| batch.errors.iter().any(|e| e.index == i);
    for (i, slot) in cached.into_iter().enumerate() {
        match slot {
            Some(report) => {
                reports.push(report);
                reused.push(true);
            }
            None => {
                if !errored(i) {
                    reports.push(fresh.next().expect("one fresh report per clean run slot"));
                    reused.push(false);
                }
            }
        }
    }
    drop(fresh);
    batch.reports = reports;
    // Fold the served-from-cache checks into the summary so the outcome
    // and the counters describe the whole request, not just the rerun.
    for (report, &was_reused) in batch.reports.iter().zip(&reused) {
        if !was_reused {
            continue;
        }
        batch.summary.checks += 1;
        batch.summary.backtracks = batch.summary.backtracks.saturating_add(report.backtracks);
        match &report.verdict {
            Verdict::NoViolation { .. } => batch.summary.no_violation += 1,
            Verdict::Violation { .. } => batch.summary.violations += 1,
            Verdict::Possible | Verdict::Abandoned => batch.summary.undecided += 1,
        }
    }
    (batch, reused)
}

/// [`batch_json`] with the merged reports re-serialized to carry their
/// `"reused"` flags (`reused[i]` belongs to `reports[i]`).
fn batch_json_with_reuse(
    batch: &BatchCheck,
    check_names: &[String],
    reused: &[bool],
) -> Vec<(String, Json)> {
    let mut fields = batch_json(batch, check_names);
    let failed = |i: usize| batch.errors.iter().any(|e| e.index == i);
    let report_names = check_names
        .iter()
        .enumerate()
        .filter(|&(i, _)| !failed(i))
        .map(|(_, name)| name);
    let reports: Vec<Json> = batch
        .reports
        .iter()
        .zip(report_names)
        .zip(reused)
        .map(|((r, name), &was_reused)| reused_report_json(r, name, was_reused))
        .collect();
    for (key, value) in &mut fields {
        if key == "reports" {
            *value = Json::Arr(reports);
            break;
        }
    }
    fields
}

/// The per-request budget equivalent to what `runner` would apply per
/// check — used for the single-output delay search, which runs on the
/// session directly rather than through the batch map.
fn runner_budget(runner: &BatchRunner) -> Budget {
    // The runner was built by `build_runner`, so its controls are exactly:
    // external cancel token(s), optional deadline, optional backtrack cap.
    // Re-deriving the merged budget through a 1-item batch would work too,
    // but the search API takes a Budget, so expose the same combination.
    runner.per_check_budget()
}

fn status_response(shared: &Shared, id: Option<&Json>) -> Json {
    let registry = shared.registry.stats();
    let snap = shared.snapshot();
    let int = |v: u64| Json::Int(v.min(i64::MAX as u64) as i64);
    ok_response(
        "status",
        id,
        vec![
            (
                "uptime_ms".to_string(),
                Json::Int(shared.started.elapsed().as_millis().min(i64::MAX as u128) as i64),
            ),
            ("draining".to_string(), Json::Bool(shared.draining())),
            (
                "registry".to_string(),
                Json::obj([
                    // try_from + clamp, not `as`: a pathological
                    // `--registry-cap`/`--queue-cap` above `i64::MAX` must
                    // saturate in the report, not wrap negative.
                    (
                        "entries",
                        Json::Int(i64::try_from(registry.entries).unwrap_or(i64::MAX)),
                    ),
                    (
                        "capacity",
                        Json::Int(i64::try_from(registry.capacity).unwrap_or(i64::MAX)),
                    ),
                    ("hits", int(registry.hits)),
                    ("misses", int(registry.misses)),
                    ("evictions", int(registry.evictions)),
                    (
                        "hit_rate",
                        registry.hit_rate().map_or(Json::Null, Json::Float),
                    ),
                ]),
            ),
            (
                "queue".to_string(),
                Json::obj([
                    ("depth", int(snap.queued)),
                    (
                        "capacity",
                        Json::Int(i64::try_from(shared.queue_cap).unwrap_or(i64::MAX)),
                    ),
                ]),
            ),
            (
                "requests".to_string(),
                Json::obj([
                    ("submitted", int(snap.submitted)),
                    ("completed_ok", int(snap.completed_ok)),
                    ("in_flight", int(snap.in_flight)),
                    ("overloaded", int(snap.overloaded)),
                    ("budget_tripped", int(snap.budget_tripped)),
                    ("panicked", int(snap.panicked)),
                    ("too_large", int(snap.too_large)),
                ]),
            ),
            (
                "connections".to_string(),
                Json::obj([
                    ("total", int(snap.connections_total)),
                    ("open", int(snap.connections_open)),
                    ("disconnect_cancels", int(snap.disconnect_cancels)),
                ]),
            ),
        ],
    )
}

/// The `metrics` reply: the same coherent snapshot as `status`, rendered
/// in Prometheus text exposition format 0.0.4 inside a JSON envelope
/// (`content_type` + `body`). Scrapers unwrap `body`; everything before
/// the envelope is plain `NAME VALUE` samples plus the request-latency
/// histogram, from which p50/p90/p99 are derivable.
fn metrics_response(shared: &Shared, id: Option<&Json>) -> Json {
    use crate::metrics::{render_gauge_f64, render_sample};
    let registry = shared.registry.stats();
    let snap = shared.snapshot();
    let mut body = String::new();
    render_gauge_f64(
        &mut body,
        "ltt_uptime_seconds",
        "seconds since the daemon started",
        shared.started.elapsed().as_secs_f64(),
    );
    render_sample(
        &mut body,
        "ltt_draining",
        "gauge",
        "1 while the server is draining after shutdown",
        u64::from(shared.draining()),
    );
    render_sample(
        &mut body,
        "ltt_requests_submitted_total",
        "counter",
        "requests that reached admission control (enqueued or shed)",
        snap.submitted,
    );
    render_sample(
        &mut body,
        "ltt_requests_completed_total",
        "counter",
        "jobs whose handler returned normally",
        snap.completed_ok,
    );
    render_sample(
        &mut body,
        "ltt_requests_panicked_total",
        "counter",
        "jobs whose handler panicked (answered with an internal error)",
        snap.panicked,
    );
    render_sample(
        &mut body,
        "ltt_requests_shed_total",
        "counter",
        "requests refused at admission because the queue was full",
        snap.overloaded,
    );
    render_sample(
        &mut body,
        "ltt_requests_budget_tripped_total",
        "counter",
        "checks cut short by a deadline, backtrack cap, or cancellation",
        snap.budget_tripped,
    );
    render_sample(
        &mut body,
        "ltt_requests_too_large_total",
        "counter",
        "request lines refused for exceeding the line-length cap",
        snap.too_large,
    );
    render_sample(
        &mut body,
        "ltt_requests_in_flight",
        "gauge",
        "jobs currently executing on workers",
        snap.in_flight,
    );
    render_sample(
        &mut body,
        "ltt_queue_depth",
        "gauge",
        "admitted jobs waiting for a worker",
        snap.queued,
    );
    render_sample(
        &mut body,
        "ltt_queue_capacity",
        "gauge",
        "admission bound beyond which requests are shed",
        shared.queue_cap as u64,
    );
    render_sample(
        &mut body,
        "ltt_connections_total",
        "counter",
        "connections accepted since start",
        snap.connections_total,
    );
    render_sample(
        &mut body,
        "ltt_connections_open",
        "gauge",
        "connections currently open",
        snap.connections_open,
    );
    render_sample(
        &mut body,
        "ltt_disconnect_cancels_total",
        "counter",
        "in-flight requests cancelled by a client disconnect",
        snap.disconnect_cancels,
    );
    render_sample(
        &mut body,
        "ltt_registry_entries",
        "gauge",
        "circuits resident in the registry",
        registry.entries as u64,
    );
    render_sample(
        &mut body,
        "ltt_registry_capacity",
        "gauge",
        "registry LRU capacity",
        registry.capacity as u64,
    );
    render_sample(
        &mut body,
        "ltt_registry_hits_total",
        "counter",
        "registry lookups served from cache",
        registry.hits,
    );
    render_sample(
        &mut body,
        "ltt_registry_misses_total",
        "counter",
        "registry lookups that parsed and prepared a circuit",
        registry.misses,
    );
    render_sample(
        &mut body,
        "ltt_registry_evictions_total",
        "counter",
        "circuits evicted by the LRU bound",
        registry.evictions,
    );
    if let Some(rate) = registry.hit_rate() {
        render_gauge_f64(
            &mut body,
            "ltt_registry_hit_ratio",
            "hits / (hits + misses); absent before any traffic",
            rate,
        );
    }
    shared.latency.render(
        &mut body,
        "ltt_request_duration_seconds",
        "handler execution latency of finished jobs",
    );
    ok_response(
        "metrics",
        id,
        vec![
            (
                "content_type".to_string(),
                Json::str("text/plain; version=0.0.4"),
            ),
            ("body".to_string(), Json::str(body)),
        ],
    )
}
