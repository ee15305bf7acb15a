//! `serve_eco`: an in-process daemon on loopback, driven by two
//! closed-loop clients with a seeded mix of checks and ECO patches, every
//! reply compared with a local oracle.

use crate::table1::{critical_output, suite_texts, Input, QUICK};
use crate::util::{median, percentile, probe_ms, Meter, Rng, Timer};
use crate::{Ctx, Layers, Outcome};
use ltt_core::{BatchRunner, CheckSession, Verdict};
use ltt_netlist::bench_format::parse_bench;
use ltt_netlist::{CircuitEdit, DelayInterval};
use ltt_serve::proto::report_json;
use ltt_serve::{session_config, Client, Json, ServeConfig, Server, ServerHandle};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients and daemon workers (the host has 2 cores).
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Every `PATCH_EVERY`-th request of a client is a patch.
const PATCH_EVERY: usize = 10;
/// Requests per measured segment (split evenly over the clients), and
/// segments in a `--seconds 10` run: 10 800 requests, 1 080 of them
/// patches, so the patch p99 has 10 samples beyond it.
const SEGMENT: usize = 540;
const SEGMENTS_AT_10S: usize = 20;
/// Outputs per circuit that checks target, evenly spaced (the oracle's
/// exact-delay searches are the slow part of its precomputation).
const OUTPUTS_PER_CIRCUIT: usize = 4;
/// SetDelay edits per circuit in the patch pool, drawn once from a fixed
/// seed.
const EDITS_PER_CIRCUIT: usize = 4;
const POOL_SEED: u64 = 0xEC0;
/// The delay every gate is registered with.
const BASE_DELAY: u32 = 10;
/// Registry capacity: the 8 base circuits plus the most recent patched
/// children. Every check touches its base circuit, so no base is evicted.
const REGISTRY_CAP: usize = 64;

/// A served circuit and everything the oracle expects of it.
struct Served {
    name: &'static str,
    text: String,
    /// Every gate, by output net name (the renumbering edits' alphabet).
    gates: Vec<String>,
    outputs: Vec<String>,
    /// Per output: `(exact delay, expected report at exact, at exact + 1)`.
    expected: Vec<(i64, Json, Json)>,
}

/// One pooled ECO edit with its expected all-outputs re-check.
struct Edit {
    circuit: usize,
    gate: String,
    delay: u32,
    delta: i64,
    outcome: &'static str,
    reports: Vec<Json>,
}

/// A reply or report with its wall-clock fields removed (and the patch
/// path's reuse flag), leaving what must equal the oracle bit for bit.
fn strip(json: &Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| {
                    !matches!(k.as_str(), "elapsed_us" | "stage_us" | "wall_us" | "reused")
                })
                .map(|(k, v)| (k.clone(), strip(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
        other => other.clone(),
    }
}

fn outcome_of(verdicts: impl Iterator<Item = Verdict>) -> &'static str {
    let (mut violation, mut undecided) = (false, false);
    for v in verdicts {
        match v {
            Verdict::Violation { .. } => violation = true,
            Verdict::NoViolation { .. } => {}
            Verdict::Possible | Verdict::Abandoned => undecided = true,
        }
    }
    if violation {
        "violation"
    } else if undecided {
        "undecided"
    } else {
        "all_safe"
    }
}

/// The oracle, computed locally before the daemon starts (not part of
/// set-up): each target output's exact delay and expected reports, and
/// each pooled edit's expected re-check on the locally edited circuit.
/// Targets and edits are the same for every seed; the seed only orders
/// the requests, so every run serves the same mix of work.
fn oracle(inputs: &[Input]) -> (Vec<Served>, Vec<Edit>) {
    let mut rng = Rng::new(POOL_SEED);
    let mut served = Vec::new();
    let mut pool = Vec::new();
    for (ci, input) in inputs.iter().enumerate() {
        let circuit = parse_bench(input.name, &input.text, DelayInterval::fixed(BASE_DELAY))
            .expect("generated .bench text parses");
        let session = CheckSession::new(&circuit, session_config());
        let mut outputs = Vec::new();
        let mut expected = Vec::new();
        let all = circuit.outputs();
        let k = OUTPUTS_PER_CIRCUIT.min(all.len());
        for o in (0..k).map(|i| all[i * all.len() / k]) {
            let search = session.exact_delay(o);
            if !search.proven_exact {
                continue;
            }
            let name = circuit.net(o).name();
            let report = |delta| strip(&report_json(&session.verify(o, delta), name));
            expected.push((search.delay, report(search.delay), report(search.delay + 1)));
            outputs.push(name.to_string());
        }
        let critical = session.exact_delay(critical_output(&circuit));
        assert!(
            critical.proven_exact,
            "{}: exact delay not proven",
            input.name
        );
        let delta = critical.delay + 1;
        let gates: Vec<_> = circuit.gate_ids().collect();
        let gate_name = |g| circuit.net(circuit.gate(g).output()).name().to_string();
        for _ in 0..EDITS_PER_CIRCUIT {
            let gate = gates[rng.below(gates.len())];
            let delay = [5, 15, 20][rng.below(3)];
            let edited = circuit
                .apply_edit(&[CircuitEdit::SetDelay {
                    gate,
                    delay: DelayInterval::fixed(delay),
                }])
                .expect("pooled edit applies");
            let local = CheckSession::new(&edited.circuit, session_config());
            let batch = BatchRunner::serial().verify_all_outputs(&local, delta);
            pool.push(Edit {
                circuit: ci,
                gate: gate_name(gate),
                delay,
                delta,
                outcome: outcome_of(batch.reports.iter().map(|r| r.verdict.clone())),
                reports: batch
                    .reports
                    .iter()
                    .map(|r| strip(&report_json(r, edited.circuit.net(r.output).name())))
                    .collect(),
            });
        }
        served.push(Served {
            name: input.name,
            text: input.text.clone(),
            gates: gates.iter().map(|&g| gate_name(g)).collect(),
            outputs,
            expected,
        });
    }
    (served, pool)
}

/// A running daemon with every circuit registered.
struct Daemon {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
    addr: String,
    ids: Vec<String>,
}

impl Daemon {
    fn stop(self) {
        self.handle.shutdown();
        self.join
            .join()
            .expect("server thread panicked")
            .expect("server drained cleanly");
    }
}

/// Daemon start plus the `register` RPCs: the served path's set-up.
fn start(served: &[Served], timer: &Timer, layers: &mut Layers) -> Daemon {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: WORKERS,
        queue_cap: 64,
        registry_cap: REGISTRY_CAP,
        ..Default::default()
    };
    let server = Server::bind(&config).expect("bind loopback daemon");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect to daemon");
    let ids = served
        .iter()
        .map(|s| {
            let request = Json::obj([
                ("op", Json::str("register")),
                ("name", Json::str(s.name)),
                ("source", Json::str(s.text.clone())),
                ("delay", Json::Int(i64::from(BASE_DELAY))),
            ]);
            let (reply, d) = timer.time("serve.register", || client.call(&request));
            layers.add_time("serve.register_ms", d);
            let reply = reply.expect("register RPC");
            reply
                .get("circuit")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("register failed: {}", reply.encode()))
                .to_string()
        })
        .collect();
    Daemon {
        handle,
        join,
        addr,
        ids,
    }
}

/// One client's closed loop and its tally.
#[derive(Default)]
struct Tally {
    check_us: Vec<f64>,
    /// The daemon's own `wall_us` for each check (its handler time).
    handler_us: Vec<f64>,
    patch_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    reused: u64,
    rechecked: u64,
    replies: Vec<Json>,
}

impl Tally {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }
}

fn error_code(reply: &Json) -> Option<&str> {
    reply
        .get("error")
        .map(|e| e.get("code").and_then(Json::as_str).unwrap_or("error"))
}

/// What the clients share: the daemon, the oracle, and how many distinct
/// patch numbers a run can use.
#[derive(Clone, Copy)]
struct World<'a> {
    daemon: &'a Daemon,
    served: &'a [Served],
    pool: &'a [Edit],
    patch_numbers: usize,
}

/// The range of patch numbers for clients that send `requests` requests
/// each: client `c`'s `k`-th patch is number `k * CLIENTS + c`.
fn patch_numbers(requests: usize) -> usize {
    (requests / PATCH_EVERY + 1) * CLIENTS
}

/// `{"gate": G, "delay": D}`, one SetDelay edit on the wire.
fn set_delay(gate: &str, delay: u32) -> Json {
    Json::obj([
        ("gate", Json::str(gate)),
        ("delay", Json::Int(i64::from(delay))),
    ])
}

/// Edits that set gates to the delay they already have, spelling patch
/// number `n` (below `numbers`) in base `gates.len()`. They change nothing
/// in the circuit, but they give every patch of a run a content id new to
/// the daemon, so no patch is answered by a resident child: each one pays
/// for `apply_edit`, `rebase`, the cone transplant and its re-check.
fn renumber(gates: &[String], n: usize, numbers: usize) -> Vec<Json> {
    let mut edits = Vec::new();
    let (mut rest, mut span) = (n, 1);
    while span < numbers {
        edits.push(set_delay(&gates[rest % gates.len()], BASE_DELAY));
        rest /= gates.len();
        span *= gates.len();
    }
    edits
}

/// One closed-loop client: its connection, its seeded request stream and
/// its tally, kept across the segments of a run.
struct Caller {
    client: Client,
    index: usize,
    rng: Rng,
    sent: usize,
    patched: usize,
    /// Upcoming checks `(circuit, target, δ = exact + 1?)` and patches
    /// (pool index): each refilled with a fresh seeded permutation of the
    /// whole population, so every stretch of requests carries the same mix.
    checks: Vec<(usize, usize, bool)>,
    patches: Vec<usize>,
    t: Tally,
}

impl Caller {
    fn new(daemon: &Daemon, seed: u64, index: usize) -> Caller {
        Caller {
            client: Client::connect(&daemon.addr).expect("connect to daemon"),
            index,
            rng: Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            sent: 0,
            patched: 0,
            checks: Vec::new(),
            patches: Vec::new(),
            t: Tally::default(),
        }
    }
}

/// Sends the caller's next `requests` requests, one at a time.
fn client_loop(
    caller: &mut Caller,
    world: World,
    requests: usize,
    timer: &Timer,
    keep_replies: bool,
) {
    let World {
        daemon,
        served,
        pool,
        patch_numbers,
    } = world;
    let Caller {
        client,
        index,
        rng,
        sent,
        patched,
        checks,
        patches,
        t,
    } = caller;
    for _ in 0..requests {
        t.attempted += 1;
        *sent += 1;
        let i = *sent - 1;
        if (i + 1) % PATCH_EVERY == 0 {
            if patches.is_empty() {
                patches.extend(0..pool.len());
                rng.shuffle(patches);
            }
            let edit = &pool[patches.pop().expect("refilled")];
            let number = *patched * CLIENTS + *index;
            *patched += 1;
            let mut edits = renumber(&served[edit.circuit].gates, number, patch_numbers);
            edits.push(set_delay(&edit.gate, edit.delay));
            let request = Json::obj([
                ("op", Json::str("patch")),
                ("circuit", Json::str(daemon.ids[edit.circuit].clone())),
                ("edits", Json::Arr(edits)),
                ("delta", Json::Int(edit.delta)),
            ]);
            let t0 = Instant::now();
            let (reply, _) = timer.time("serve.patch_rpc", || client.call(&request));
            t.patch_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    t.fail(format!("patch RPC: {e}"));
                    continue;
                }
            };
            let reports = reply.get("reports").and_then(Json::as_array).unwrap_or(&[]);
            let got: Vec<Json> = reports.iter().map(strip).collect();
            t.rechecked += reports.len() as u64;
            t.reused += reports
                .iter()
                .filter(|r| r.get("reused").and_then(Json::as_bool) == Some(true))
                .count() as u64;
            let outcome = reply.get("outcome").and_then(Json::as_str);
            if let Some(code) = error_code(&reply) {
                t.fail(format!("patch refused: {code}"));
            } else if reply.get("cached").and_then(Json::as_bool) != Some(false) {
                t.fail(format!(
                    "patch number {number} answered by a resident child"
                ));
            } else if outcome != Some(edit.outcome) || got != edit.reports {
                t.fail(format!(
                    "patch {}:{}={} at δ {}: {:?}, expected {}",
                    served[edit.circuit].name,
                    edit.gate,
                    edit.delay,
                    edit.delta,
                    outcome,
                    edit.outcome
                ));
            }
            if keep_replies {
                t.replies.push(reply);
            }
        } else {
            if checks.is_empty() {
                for (ci, s) in served.iter().enumerate() {
                    for oi in 0..s.outputs.len() {
                        checks.extend([(ci, oi, false), (ci, oi, true)]);
                    }
                }
                rng.shuffle(checks);
            }
            let (ci, oi, plus_one) = checks.pop().expect("refilled");
            let s = &served[ci];
            let (exact, at_exact, at_next) = &s.expected[oi];
            let delta = exact + i64::from(plus_one);
            let request = Json::obj([
                ("op", Json::str("check")),
                ("circuit", Json::str(daemon.ids[ci].clone())),
                ("output", Json::str(s.outputs[oi].clone())),
                ("delta", Json::Int(delta)),
            ]);
            let t0 = Instant::now();
            let (reply, _) = timer.time("serve.check_rpc", || client.call(&request));
            t.check_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    t.fail(format!("check RPC: {e}"));
                    continue;
                }
            };
            if let Some(wall) = reply.get("wall_us").and_then(Json::as_u64) {
                t.handler_us.push(wall as f64);
            }
            let want = if plus_one { at_next } else { at_exact };
            let got = reply
                .get("reports")
                .and_then(Json::as_array)
                .and_then(|r| r.first())
                .map(strip);
            if let Some(code) = error_code(&reply) {
                t.fail(format!("check refused: {code}"));
            } else if got.as_ref() != Some(want) {
                t.fail(format!(
                    "check {}:{} at δ {delta}: {:?}",
                    s.name, s.outputs[oi], got
                ));
            }
            if keep_replies {
                t.replies.push(reply);
            }
        }
    }
}

/// Runs `requests` requests split over the closed-loop clients, after a
/// host probe taken while the daemon is idle.
fn segment(
    callers: &mut [Caller],
    world: World,
    requests: usize,
    timer: &Timer,
    keep_replies: bool,
) -> (Duration, f64, f64) {
    let probe = probe_ms();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for caller in callers.iter_mut() {
            scope
                .spawn(move || client_loop(caller, world, requests / CLIENTS, timer, keep_replies));
        }
    });
    let d = t0.elapsed();
    (d, probe, probe_ms())
}

fn metric_value(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Folds the tallies into the outcome and the client-side metrics, and
/// returns the replies kept for the wire re-timing.
fn absorb(tallies: Vec<Tally>, wall: f64, out: &mut Outcome) -> Vec<Json> {
    let (mut checks, mut handler, mut patches, mut replies) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reused, mut rechecked) = (0u64, 0u64);
    let mut attempted = 0;
    for t in tallies {
        attempted += t.attempted;
        out.failed += t.failed;
        out.problems.extend(t.problems);
        checks.extend(t.check_us);
        handler.extend(t.handler_us);
        patches.extend(t.patch_us);
        replies.extend(t.replies);
        reused += t.reused;
        rechecked += t.rechecked;
    }
    out.attempted += attempted;
    out.layers.set("serve_rps", attempted as f64 / wall);
    out.layers.set("check_p50_us", percentile(&checks, 0.50));
    out.layers.set("check_p99_us", percentile(&checks, 0.99));
    out.layers.set("patch_p50_us", percentile(&patches, 0.50));
    out.layers.set("patch_p99_us", percentile(&patches, 0.99));
    out.layers.set("serve.checks", checks.len() as f64);
    if !handler.is_empty() {
        let handler_p50 = percentile(&handler, 0.50);
        out.layers.set("serve.handler_p50_us", handler_p50);
        out.layers
            .set("serve.handler_p99_us", percentile(&handler, 0.99));
        out.layers.set(
            "serve.outside_handler_p50_us",
            percentile(&checks, 0.50) - handler_p50,
        );
    }
    out.layers.set("serve.patches", patches.len() as f64);
    out.layers.set(
        "registry.patch_reuse_ratio",
        reused as f64 / (rechecked as f64).max(1.0),
    );
    replies
}

/// `wire.encode_us` / `wire.decode_us`: the replies of the run re-encoded
/// and re-decoded in bulk, per reply.
fn wire_costs(replies: &[Json], timer: &Timer, layers: &mut Layers) {
    if replies.is_empty() {
        return;
    }
    let (texts, d) = timer.time("wire.encode", || {
        replies.iter().map(Json::encode).collect::<Vec<_>>()
    });
    layers.set(
        "wire.encode_us",
        d.as_secs_f64() * 1e6 / replies.len() as f64,
    );
    let (decoded, d) = timer.time("wire.decode", || {
        texts
            .iter()
            .map(|t| ltt_serve::decode(t))
            .collect::<Vec<_>>()
    });
    layers.set(
        "wire.decode_us",
        d.as_secs_f64() * 1e6 / replies.len() as f64,
    );
    std::hint::black_box(decoded);
}

pub fn serve_eco(ctx: &Ctx) -> Outcome {
    let (served, pool) = oracle(&suite_texts(&QUICK));
    let mut out = Outcome::default();
    let quiet = Timer::new(None);
    let timer = if ctx.trace {
        ctx.timer()
    } else {
        quiet.clone()
    };
    let rounds = if ctx.trace { 1 } else { ctx.scaled(12) };
    let mut daemon = None;
    for _ in 0..rounds {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let mut layers = Layers::default();
        let mut meter = Meter::default();
        daemon = Some(meter.piece(|| start(&served, &timer, &mut layers)));
        out.setup.push(meter);
        out.layers = layers;
    }
    let daemon = daemon.expect("at least one set-up round");
    let mut callers: Vec<Caller> = (0..CLIENTS)
        .map(|i| Caller::new(&daemon, ctx.seed, i))
        .collect();
    let segments = ctx.scaled(SEGMENTS_AT_10S);
    let world = World {
        daemon: &daemon,
        served: &served,
        pool: &pool,
        patch_numbers: patch_numbers(segments * SEGMENT / CLIENTS),
    };
    let mut wall = 0.0;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..segments {
        // A traced run keeps its first two segments untraced (the first
        // also fills the base circuits' result caches), to measure the
        // overhead.
        let timer = if i < 2 { &quiet } else { &timer };
        let (d, before, after) = segment(&mut callers, world, SEGMENT, timer, ctx.trace);
        let mut meter = Meter::default();
        meter.add(d, before, after);
        match i {
            0 => {}
            1 => plain.push(meter.scaled_s(1.0)),
            _ => traced.push(meter.scaled_s(1.0)),
        }
        out.work.push(meter);
        wall += d.as_secs_f64();
        out.unit_heap(i);
    }
    if ctx.trace && !traced.is_empty() {
        out.trace_overhead(median(&plain), median(&traced));
    }
    let requests = segments * SEGMENT;
    let tallies: Vec<Tally> = callers.into_iter().map(|c| c.t).collect();
    let replies = absorb(tallies, wall, &mut out);
    let metrics = Client::connect(&daemon.addr)
        .and_then(|mut c| c.call(&Json::obj([("op", Json::str("metrics"))])))
        .expect("metrics RPC");
    let body = metrics.get("body").and_then(Json::as_str).unwrap_or("");
    out.layers.set(
        "serve.overloaded",
        metric_value(body, "ltt_requests_shed_total"),
    );
    wire_costs(&replies, &timer, &mut out.layers);
    daemon.stop();
    out.note(format!(
        "serve_eco: {} requests over {CLIENTS} clients in {:.3} s ({:.0} req/s); check p50 {:.0} us p99 {:.0} us; patch p50 {:.0} us p99 {:.0} us",
        requests,
        wall,
        out.layers.get("serve_rps"),
        out.layers.get("check_p50_us"),
        out.layers.get("check_p99_us"),
        out.layers.get("patch_p50_us"),
        out.layers.get("patch_p99_us"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumbering_edits_are_distinct_no_ops() {
        let gates: Vec<String> = ["a", "b", "c"].iter().map(|g| g.to_string()).collect();
        let numbers = patch_numbers(100);
        let spelled: Vec<Vec<Json>> = (0..numbers).map(|n| renumber(&gates, n, numbers)).collect();
        let mut unique = spelled
            .iter()
            .map(|e| Json::Arr(e.clone()).encode())
            .collect::<Vec<_>>();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), numbers);
        for edit in spelled.iter().flatten() {
            assert_eq!(
                edit.get("delay").and_then(Json::as_u64),
                Some(u64::from(BASE_DELAY))
            );
        }
    }

    #[test]
    fn served_replies_match_the_oracle_and_repeat() {
        let inputs = suite_texts(&["c17", "s432"]);
        let (served, pool) = oracle(&inputs);
        let quiet = Timer::new(None);
        let run = || {
            let daemon = start(&served, &quiet, &mut Layers::default());
            let mut callers: Vec<Caller> =
                (0..CLIENTS).map(|i| Caller::new(&daemon, 3, i)).collect();
            let world = World {
                daemon: &daemon,
                served: &served,
                pool: &pool,
                patch_numbers: patch_numbers(60 / CLIENTS),
            };
            segment(&mut callers, world, 60, &quiet, true);
            daemon.stop();
            callers.into_iter().map(|c| c.t).collect::<Vec<Tally>>()
        };
        let (a, b) = (run(), run());
        for (x, y) in a.iter().zip(&b) {
            // Every patch was a new child (the oracle check fails a cached
            // one) and every reply matched the oracle.
            assert_eq!(x.failed, 0, "{:?}", x.problems);
            assert_eq!(x.attempted, 30);
            assert_eq!(x.patch_us.len(), 3);
            // How many of the parent's exact reports a patch transplants
            // depends on which checks the other client has already sent;
            // all else must repeat.
            let strip_all = |t: &Tally| {
                t.replies
                    .iter()
                    .map(|r| match strip(r) {
                        Json::Obj(f) => {
                            Json::Obj(f.into_iter().filter(|(k, _)| k != "transplanted").collect())
                        }
                        other => other,
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(strip_all(x), strip_all(y));
        }
    }
}
