//! `loadgen` — a concurrent load generator for `ltt-serve` daemons.
//!
//! Spawns N client connections, each issuing M `check` requests against a
//! set of registered circuits, and reports throughput plus latency
//! percentiles. With no `--addr`, an in-process daemon is started on an
//! ephemeral port and drained at the end, so one command exercises the
//! full serving path; the CI smoke job runs exactly that.
//!
//! ```text
//! loadgen [--addr A] [--clients N] [--requests M]
//!         [--circuit c17|figure1|adder] [--circuits K] [--zipf S]
//!         [--verify] [--churn R] [--jobs J] [--queue-cap Q]
//! ```
//!
//! `--circuits K` spreads load over K circuit variants (the named circuit
//! plus K−1 deterministic random DAGs); `--zipf S` skews their popularity
//! Zipf-style (rank r drawn ∝ 1/r^S — S 0 is uniform, S ≥ 1 gives a hot
//! head, the shape real registry traffic has). `--verify` precomputes
//! every check's expected outcome with an in-process [`CheckSession`] and
//! counts any served reply that disagrees — served answers must be
//! *identical* to local ones. `--churn R` makes every R-th request an ECO
//! `patch` (re-annotating the delay of the first output's driver, with an
//! all-outputs re-check bundled in the same round-trip); those
//! incremental re-verifications report their own latency percentiles,
//! separate from the steady-state check latencies. Churned revisions
//! chain off the base circuit, so the plain-check oracle stays valid;
//! patched replies are checked for well-formedness, not against the
//! (pre-edit) oracle.
//!
//! Exit code 0 when every request was answered correctly (violations are
//! expected — the load mix probes around each output's exact delay;
//! `overloaded`/`shutting_down` rejections are counted but tolerated:
//! they are the backpressure contract, not wrong answers);
//! 1 when any request failed, any verified reply mismatched, or the
//! transport broke.

use ltt_core::{CheckSession, Verdict, VerifyConfig};
use ltt_netlist::bench_format::write_bench;
use ltt_netlist::generators::{carry_skip_adder, figure1, random_circuit, RandomCircuitConfig};
use ltt_netlist::suite::c17;
use ltt_netlist::Circuit;
use ltt_serve::{percentile, Client, Json, ServeConfig, Server};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    circuit: String,
    circuits: usize,
    zipf: f64,
    verify: bool,
    churn: usize,
    jobs: usize,
    queue_cap: usize,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        clients: 8,
        requests: 25,
        circuit: "c17".to_string(),
        circuits: 1,
        zipf: 0.0,
        verify: false,
        churn: 0,
        jobs: 0,
        queue_cap: 64,
        shutdown: true,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "--clients needs an integer")?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests needs an integer")?
            }
            "--circuit" => args.circuit = value("--circuit")?,
            "--circuits" => {
                args.circuits = value("--circuits")?
                    .parse()
                    .map_err(|_| "--circuits needs an integer")?
            }
            "--zipf" => {
                args.zipf = value("--zipf")?
                    .parse()
                    .map_err(|_| "--zipf needs a number")?
            }
            "--verify" => args.verify = true,
            "--churn" => {
                args.churn = value("--churn")?
                    .parse()
                    .map_err(|_| "--churn needs an integer")?
            }
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs an integer")?
            }
            "--queue-cap" => {
                args.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap needs an integer")?
            }
            "--no-shutdown" => args.shutdown = false,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.clients == 0 || args.requests == 0 || args.circuits == 0 {
        return Err("--clients, --requests, and --circuits must be positive".to_string());
    }
    if !args.zipf.is_finite() || args.zipf < 0.0 {
        return Err("--zipf must be a finite non-negative number".to_string());
    }
    Ok(args)
}

fn pick_circuit(name: &str) -> Result<Circuit, String> {
    match name {
        "c17" => Ok(c17(10)),
        "figure1" => Ok(figure1(10)),
        "adder" => Ok(carry_skip_adder(4, 2, 10)),
        other => Err(format!(
            "unknown circuit `{other}` (expected c17, figure1, or adder)"
        )),
    }
}

/// One circuit variant of the load mix: its netlist source, the outputs
/// and deltas probed, and (under `--verify`) the expected outcome of
/// every (output, delta) cell.
struct Variant {
    name: String,
    source: String,
    outputs: Vec<String>,
    deltas: Vec<i64>,
    /// `expected[output_idx][delta_idx]` — the served `outcome` string a
    /// correct reply must carry. Empty when not verifying.
    expected: Vec<Vec<&'static str>>,
}

/// Builds the variant set: variant 0 is the named circuit, variants 1..K
/// are deterministic random DAGs (distinct seeds, so distinct content
/// hashes — each is its own registry entry).
fn build_variants(args: &Args, base: &Circuit) -> Vec<Variant> {
    (0..args.circuits)
        .map(|i| {
            let circuit;
            let circuit = if i == 0 {
                base
            } else {
                circuit = random_circuit(&RandomCircuitConfig {
                    num_gates: 60,
                    num_outputs: 3,
                    seed: 0x10AD ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..Default::default()
                });
                &circuit
            };
            let outputs: Vec<String> = circuit
                .outputs()
                .iter()
                .map(|&o| circuit.net(o).name().to_string())
                .collect();
            // Probe around the interesting region: half the topological
            // delay up to just past it (a mix of violations and proofs).
            let top = circuit.topological_delay();
            let deltas: Vec<i64> = vec![top / 2, top - 10, top, top + 1];
            let expected = if args.verify {
                let session = CheckSession::new(circuit, VerifyConfig::default());
                circuit
                    .outputs()
                    .iter()
                    .map(|&o| {
                        deltas
                            .iter()
                            .map(|&delta| match session.verify(o, delta).verdict {
                                Verdict::Violation { .. } => "violation",
                                Verdict::NoViolation { .. } => "all_safe",
                                Verdict::Possible | Verdict::Abandoned => "undecided",
                            })
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            Variant {
                name: format!("loadgen-{i}"),
                source: write_bench(circuit),
                outputs,
                deltas,
                expected,
            }
        })
        .collect()
}

/// The cumulative Zipf distribution over variant *ranks*: rank r (1-based)
/// is drawn with probability ∝ 1/r^s. `s = 0` degenerates to uniform.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// XorShift64 — a tiny deterministic PRNG so every run issues the same
/// request stream for a given client count.
fn xorshift64(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One client's tally.
#[derive(Default)]
struct Tally {
    latencies: Vec<Duration>,
    /// Round-trip latencies of `--churn` patch requests (ECO edit +
    /// bundled incremental re-check), tallied apart from plain checks.
    churn_latencies: Vec<Duration>,
    violations: u64,
    safe: u64,
    undecided: u64,
    failures: u64,
    /// Structured backpressure: `overloaded` or `shutting_down` — honest
    /// "not now" answers, not wrong ones.
    rejected: u64,
    /// `--verify` replies whose outcome differed from the local oracle.
    mismatched: u64,
}

fn run_client(
    addr: &str,
    variants: &[Variant],
    cdf: &[f64],
    requests: usize,
    client_index: usize,
    verify: bool,
    churn: usize,
) -> std::io::Result<Tally> {
    let mut client = Client::connect(addr)?;
    // Every client registers every variant: the first miss parses, the
    // rest hit the content-hashed cache — which is itself part of the
    // workload.
    let mut ids: HashMap<usize, String> = HashMap::new();
    for (v, variant) in variants.iter().enumerate() {
        let reply = client.call(&Json::obj([
            ("op", Json::str("register")),
            ("name", Json::str(variant.name.clone())),
            ("source", Json::str(variant.source.clone())),
        ]))?;
        let circuit = reply
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| std::io::Error::other(format!("register failed: {}", reply.encode())))?
            .to_string();
        ids.insert(v, circuit);
    }
    let mut rng = (client_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut tally = Tally::default();
    let mut patches_sent = 0u64;
    for i in 0..requests {
        // Zipf-pick the variant, then walk its (output, delta) grid
        // deterministically.
        let u = (xorshift64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        let v = cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1);
        let variant = &variants[v];
        let oi = (client_index + i) % variant.outputs.len();
        let di = (client_index + i / variant.outputs.len()) % variant.deltas.len();
        let is_churn = churn > 0 && (i + 1) % churn == 0;
        let request = if is_churn {
            // An ECO patch chained off the *base* revision (so the plain
            // checks keep hitting the unedited circuit the oracle knows):
            // re-annotate the first output's driver, alternating between
            // two delays, and bundle an all-outputs re-check at δ = top.
            patches_sent += 1;
            let delay = 11 + (patches_sent % 2) as i64;
            Json::obj([
                ("op", Json::str("patch")),
                ("circuit", Json::str(ids[&v].clone())),
                (
                    "edits",
                    Json::Arr(vec![Json::obj([
                        ("gate", Json::str(variant.outputs[0].clone())),
                        ("delay", Json::Int(delay)),
                    ])]),
                ),
                ("delta", Json::Int(variant.deltas[2])),
                ("id", Json::Int(i as i64)),
            ])
        } else {
            Json::obj([
                ("op", Json::str("check")),
                ("circuit", Json::str(ids[&v].clone())),
                ("output", Json::str(variant.outputs[oi].clone())),
                ("delta", Json::Int(variant.deltas[di])),
                ("id", Json::Int(i as i64)),
            ])
        };
        let start = Instant::now();
        let reply = client.call(&request)?;
        let elapsed = start.elapsed();
        if is_churn {
            tally.churn_latencies.push(elapsed);
        } else {
            tally.latencies.push(elapsed);
        }
        match reply.get("outcome").and_then(Json::as_str) {
            Some(outcome) => {
                match outcome {
                    "violation" => tally.violations += 1,
                    "all_safe" => tally.safe += 1,
                    "undecided" => tally.undecided += 1,
                    _ => {
                        tally.failures += 1;
                        continue;
                    }
                }
                // The oracle describes the pre-edit circuit, so only
                // plain checks are compared against it.
                if verify && !is_churn && variant.expected[oi][di] != outcome {
                    tally.mismatched += 1;
                    eprintln!(
                        "loadgen: MISMATCH {}:{} δ={} expected {} got {}",
                        variant.name,
                        variant.outputs[oi],
                        variant.deltas[di],
                        variant.expected[oi][di],
                        outcome
                    );
                }
            }
            None => {
                let code = reply
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or("");
                match code {
                    "overloaded" | "shutting_down" => tally.rejected += 1,
                    _ => {
                        tally.failures += 1;
                        eprintln!("loadgen: request failed: {}", reply.encode());
                    }
                }
            }
        }
    }
    Ok(tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    let base = match pick_circuit(&args.circuit) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    let variants = build_variants(&args, &base);
    let cdf = zipf_cdf(variants.len(), args.zipf);

    // Target: an external daemon, or a fresh in-process one.
    let (addr, local) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let config = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                jobs: args.jobs,
                queue_cap: args.queue_cap,
                ..Default::default()
            };
            let server = match Server::bind(&config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("loadgen: bind failed: {e}");
                    return ExitCode::from(1);
                }
            };
            let addr = server.local_addr().expect("bound server").to_string();
            let handle = server.handle();
            let join = std::thread::spawn(move || server.run());
            (addr, Some((handle, join)))
        }
    };
    println!(
        "loadgen: {} clients x {} requests -> {} ({}, {} variant(s), zipf {})",
        args.clients,
        args.requests,
        addr,
        args.circuit,
        variants.len(),
        args.zipf
    );

    let started = Instant::now();
    let tallies: Vec<std::io::Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|i| {
                let (addr, variants, cdf) = (&addr, &variants, &cdf);
                scope.spawn(move || {
                    run_client(
                        addr,
                        variants,
                        cdf,
                        args.requests,
                        i,
                        args.verify,
                        args.churn,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let mut latencies = Vec::new();
    let mut churn_latencies = Vec::new();
    let mut total = Tally::default();
    let mut transport_errors = 0u64;
    for result in tallies {
        match result {
            Ok(tally) => {
                latencies.extend(tally.latencies);
                churn_latencies.extend(tally.churn_latencies);
                total.violations += tally.violations;
                total.safe += tally.safe;
                total.undecided += tally.undecided;
                total.failures += tally.failures;
                total.rejected += tally.rejected;
                total.mismatched += tally.mismatched;
            }
            Err(e) => {
                eprintln!("loadgen: client failed: {e}");
                transport_errors += 1;
            }
        }
    }
    latencies.sort();
    churn_latencies.sort();
    let answered = latencies.len() + churn_latencies.len();
    let throughput = answered as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "answered {answered} checks in {:.3}s ({throughput:.0} req/s): \
         {} violation, {} safe, {} undecided, {} failed, {} rejected, {} mismatched",
        wall.as_secs_f64(),
        total.violations,
        total.safe,
        total.undecided,
        total.failures,
        total.rejected,
        total.mismatched,
    );
    println!(
        "latency p50 {:?}  p90 {:?}  p99 {:?}  max {:?}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or(Duration::ZERO),
    );
    if !churn_latencies.is_empty() {
        println!(
            "re-verify (patch) latency over {} ECO(s): p50 {:?}  p90 {:?}  p99 {:?}  max {:?}",
            churn_latencies.len(),
            percentile(&churn_latencies, 0.50),
            percentile(&churn_latencies, 0.90),
            percentile(&churn_latencies, 0.99),
            churn_latencies.last().copied().unwrap_or(Duration::ZERO),
        );
    }

    // Drain the target (ours, or the external one when asked to).
    match local {
        Some((handle, join)) => {
            if args.shutdown {
                handle.shutdown();
            }
            match join.join() {
                Ok(Ok(())) => println!("server drained cleanly"),
                Ok(Err(e)) => {
                    eprintln!("loadgen: server error: {e}");
                    transport_errors += 1;
                }
                Err(_) => {
                    eprintln!("loadgen: server thread panicked");
                    transport_errors += 1;
                }
            }
        }
        None => {
            if args.shutdown {
                if let Ok(mut client) = Client::connect(&addr) {
                    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
                }
            }
        }
    }

    if total.failures > 0 || total.mismatched > 0 || transport_errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
