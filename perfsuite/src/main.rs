//! `perfsuite` — the fixed-work, oracle-checked benchmark of the ltt
//! timing verifier.
//!
//! ```text
//! perfsuite --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run does a fixed amount of work: `--seconds` scales a unit count
//! calibrated for about that long on a 2-core host, and no run ever reads
//! the clock to decide when to stop. Every answer is checked against an
//! oracle. The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1` (which also writes a Chrome trace under `out/`).
//! See README.md for the workloads and what each metric should move.

mod heap;
mod sat;
mod serve;
mod table1;
mod util;

use ltt_core::Recorder;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use util::{median, Meter, Timer};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// A workload: its name, the function that runs it, and the elasticity
/// of its set-up and of its work to the host probe, as measured across
/// runs (README.md, "Host scaling").
type Workload = (&'static str, fn(&Ctx) -> Outcome, f64, f64);

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [Workload; 4] = [
    ("table1_decided", table1::table1_decided, 1.3, 1.0),
    ("s6288_search", table1::s6288_search, 1.5, 1.5),
    ("serve_eco", serve::serve_eco, 1.05, 0.85),
    ("sat_quick", sat::sat_quick, 1.3, 1.2),
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("work_s", "s"), ("peak_heap_mb", "MiB")];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("netlist.parse_ms", "ms"),
    ("netlist.topology_ms", "ms"),
    ("prepared.learning_ms", "ms"),
    ("prepared.scoap_ms", "ms"),
    ("prepared.dominators_ms", "ms"),
    ("prepared.cones_ms", "ms"),
    ("prepared.base_fixpoint_ms", "ms"),
    ("stage.narrowing_ms", "ms"),
    ("stage.dominators_ms", "ms"),
    ("stage.stems_ms", "ms"),
    ("stage.case_ms", "ms"),
    ("stage.narrowing_events", "count"),
    ("stage.dominators_events", "count"),
    ("stage.stems_events", "count"),
    ("stage.case_events", "count"),
    ("fan.decisions", "count"),
    ("fan.decisions_phase1", "count"),
    ("fan.decisions_phase2", "count"),
    ("fan.decisions_phase3", "count"),
    ("fan.backtracks", "count"),
    ("fan.rejected_candidates", "count"),
    ("fan.events_per_decision", "ratio"),
    ("fan.ms_per_backtrack", "ms"),
    ("carriers.sweep_us", "us"),
    ("sat.encode_ms", "ms"),
    ("sat.solve_ms", "ms"),
    ("sat.vars", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.restarts", "count"),
    ("sat.probes", "count"),
    ("serve.register_ms", "ms"),
    ("serve.handler_p50_us", "us"),
    ("serve.handler_p99_us", "us"),
    ("serve.outside_handler_p50_us", "us"),
    ("serve.overloaded", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("registry.patch_reuse_ratio", "ratio"),
    ("check_s", "s"),
    ("delay_s", "s"),
    ("search_s", "s"),
    ("sat_s", "s"),
    ("serve_rps", "1/s"),
    ("check_p50_us", "us"),
    ("check_p99_us", "us"),
    ("patch_p50_us", "us"),
    ("patch_p99_us", "us"),
    ("serve.checks", "count"),
    ("serve.patches", "count"),
    ("setup_raw_s", "s"),
    ("work_raw_s", "s"),
    ("host.probe_ms", "ms"),
    ("host.probe_drift_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What a workload is given: its seed, its size and the trace recorder.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    recorder: Option<Arc<Recorder>>,
}

impl Ctx {
    /// A timer recording into this run's trace (a no-op when untraced).
    pub fn timer(&self) -> Timer {
        Timer::new(self.recorder.clone())
    }

    /// A unit count: `at_10s` units for `--seconds 10`, scaled linearly,
    /// at least one. Work is sized by count, never by the clock.
    pub fn scaled(&self, at_10s: usize) -> usize {
        ((at_10s as u64 * self.seconds + 5) / 10).max(1) as usize
    }
}

/// Per-layer metric values, summed as they are measured.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    /// Adds a duration, in milliseconds.
    pub fn add_time(&mut self, name: &'static str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e3);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Layers) {
        for (&name, &value) in &other.0 {
            self.add(name, value);
        }
    }
}

/// A workload's result: operation counts, oracle failures, timings.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Each set-up repetition.
    pub setup: Vec<Meter>,
    /// Each unit of measured work.
    pub work: Vec<Meter>,
    /// The peak live heap of each unit after the first, in MiB.
    pub heap: Vec<f64>,
    pub layers: Layers,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, problem: &str) {
        self.failed += 1;
        self.problems.push(problem.to_string());
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds one unit of work: its operation counts and its wall time.
    pub fn absorb_unit(&mut self, attempted: u64, failed: u64, problems: Vec<String>, time: Meter) {
        self.attempted += attempted;
        self.failed += failed;
        self.problems.extend(problems);
        self.work.push(time);
    }

    /// Ends unit `i` for the heap statistics: records the peak live heap
    /// since the previous unit ended and restarts tracking. Unit 0 is not
    /// recorded, because it builds every lazy cache.
    pub fn unit_heap(&mut self, i: usize) {
        if i > 0 {
            self.heap.push(heap::peak_mb());
        }
        heap::reset_peak();
    }

    /// The traced run's slowdown over the same work untraced (seconds,
    /// scaled in proportion to the probe: both ran in the same sitting).
    pub fn trace_overhead(&mut self, plain_s: f64, traced_s: f64) {
        let ratio = traced_s / plain_s.max(1e-9);
        self.layers.set("trace.overhead_pct", (ratio - 1.0) * 100.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or("--seconds needs an integer in 1..=600")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.0 == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("--workload needs one of {}", names.join(", ")));
    }
    Ok(args)
}

/// A JSON number with all its digits (non-finite values cannot occur in
/// a correct run; they print as 0 so the line stays valid JSON).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfsuite: {e}");
            eprintln!("usage: perfsuite --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        recorder: args.trace.then(|| Arc::new(Recorder::new())),
    };
    let &(_, run, setup_elasticity, work_elasticity) = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .expect("validated workload");

    let probe_start = util::host_probe();
    let mut out = run(&ctx);
    let peak_mb = if out.heap.is_empty() {
        heap::peak_mb()
    } else {
        median(&out.heap)
    };
    let probe_end = util::host_probe();

    let probes: Vec<f64> = probe_start.iter().chain(&probe_end).copied().collect();
    out.layers.set("host.probe_ms", median(&probes));
    out.layers.set(
        "host.probe_drift_pct",
        (median(&probe_end) / median(&probe_start) - 1.0) * 100.0,
    );
    let medians = |meters: &[Meter], elasticity: f64| {
        let raw: Vec<f64> = meters.iter().map(|m| m.raw_s).collect();
        let scaled: Vec<f64> = meters.iter().map(|m| m.scaled_s(elasticity)).collect();
        (median(&raw), median(&scaled))
    };
    let (setup_raw_s, setup_s) = medians(&out.setup, setup_elasticity);
    let (work_raw_s, work_s) = medians(&out.work, work_elasticity);
    out.layers.set("setup_raw_s", setup_raw_s);
    out.layers.set("work_raw_s", work_raw_s);

    println!(
        "perfsuite {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "  setup_s {setup_s:.4} (raw {setup_raw_s:.4}, median of {})  work_s {work_s:.4} (raw {work_raw_s:.4}, median of {})  peak_heap_mb {peak_mb:.2}",
        out.setup.len(),
        out.work.len()
    );
    println!("  host probe start {probe_start:.2?} end {probe_end:.2?} ms");
    println!("  {} attempted, {} failed", out.attempted, out.failed);
    for problem in out.problems.iter().take(10) {
        println!("  FAILED: {problem}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let spans = ctx.timer().spans();
        out.layers.set("trace.spans", spans.len() as f64);
        println!("  span rollup (count, total ms, self ms):");
        for (name, n, total, own) in util::self_times(&spans) {
            println!(
                "    {name:<28} {n:>7} {:>11.3} {:>11.3}",
                total as f64 / 1e3,
                own as f64 / 1e3
            );
        }
        if let Some(trace) = ctx.timer().chrome_trace() {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
            match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace)) {
                Ok(()) => println!("  chrome trace -> {}", path.display()),
                Err(e) => println!("  chrome trace not written: {e}"),
            }
        }
        for (name, unit) in PER_LAYER {
            println!("  {name:<32} {:>16.4} {unit}", out.layers.get(name));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, out.layers.get(name), unit))
            .collect()
    } else {
        let values = [setup_s, work_s, peak_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };

    let correct = out.failed == 0 && out.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly the workloads and metrics this binary
    /// runs and reports.
    #[test]
    fn manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let named = |name: &str| manifest.matches(&format!("\"name\": \"{name}\"")).count();
        for (name, ..) in WORKLOADS {
            assert_eq!(named(name), 1, "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert_eq!(named(name), 1, "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{entry}");
        }
        let total = manifest.matches("\"name\": ").count();
        assert_eq!(total, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn work_is_sized_by_count() {
        let ctx = |seconds| Ctx {
            seed: 1,
            seconds,
            trace: false,
            recorder: None,
        };
        assert_eq!(ctx(10).scaled(12), 12);
        assert_eq!(ctx(5).scaled(12), 6);
        assert_eq!(ctx(1).scaled(2), 1);
    }
}
