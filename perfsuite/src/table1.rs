//! The two Table 1 workloads: the decided rows (`table1_decided`) and the
//! abandoned c6288 probe under a backtrack cap (`s6288_search`).

use crate::util::{median, probe_ms, secs, Meter, Rng, Timer};
use crate::{Ctx, Layers, Outcome};
pub use ltt_bench::table1::critical_output;
use ltt_bench::table1::{run_entry, Table1Row};
use ltt_core::{BatchRunner, CheckSession, ConeMode, Stage, Verdict, VerifyConfig, VerifyReport};
use ltt_netlist::bench_format::{parse_bench, write_bench};
use ltt_netlist::suite::iscas85_suite;
use ltt_netlist::{Circuit, DelayInterval, NetId};
use std::sync::Arc;
use std::time::Duration;

/// The suite circuit whose Table 1 search is abandoned; every other one
/// is decided.
pub const ABANDONED: &str = "s6288";

/// The `table1 --quick` circuits: everything up to 2 000 gates.
pub const QUICK: [&str; 8] = [
    "c17", "s432", "s499", "s880", "s1355", "s1908", "s2670", "s3540",
];

/// The abandoned Table 1 probe: c6288's stand-in, critical output, δ.
pub const S6288_DELTA: i64 = 1529;
/// Backtrack cap of one `s6288_search` unit: about 0.3 s of FAN search on
/// the 2-core reference host, short enough for the host probes around it
/// to track the host's drift.
pub const S6288_CAP: u64 = 150;

/// The netlist text of one suite circuit, as a user would hand it over.
pub struct Input {
    pub name: &'static str,
    pub text: String,
}

/// `.bench` text of the named suite circuits, in the given order.
pub fn suite_texts(names: &[&str]) -> Vec<Input> {
    let suite = iscas85_suite(10);
    names
        .iter()
        .map(|&name| {
            let entry = suite
                .iter()
                .find(|e| e.name == name)
                .expect("name is a suite circuit");
            Input {
                name: entry.name,
                text: write_bench(&entry.circuit),
            }
        })
        .collect()
}

/// The configuration of the `table1` harness (its c6288 cap doubles as
/// the abandon budget).
pub fn table1_config(max_backtracks: u64) -> VerifyConfig {
    VerifyConfig {
        max_backtracks,
        cone: ConeMode::Off,
        ..Default::default()
    }
}

/// The oracle of one decided circuit: the `table1` harness's exact delay
/// and its two rows, δ = exact + 1 on all outputs and δ = exact on the
/// critical output, each as its stage columns `BEFORE AFTER-G.I.T.D.
/// AFTER-STEM #BTRCK RESULT`.
pub struct Expected {
    pub name: &'static str,
    pub exact: i64,
    pub rows: [String; 2],
}

/// Table 1's stage columns of one harness row.
fn row_columns(row: &Table1Row) -> String {
    let btr = row
        .backtracks
        .map_or_else(|| "-".to_string(), |b| b.to_string());
    format!(
        "{} {} {} {btr} {}",
        row.before_gitd, row.after_gitd, row.after_stems, row.result
    )
}

/// Runs the `table1` harness (`ltt_bench::table1::run_entry`, table1
/// config) on the named decided circuits: the untimed oracle step.
pub fn expected_rows(names: &[&str]) -> Vec<Expected> {
    let suite = iscas85_suite(10);
    let config = table1_config(20_000);
    names
        .iter()
        .map(|&name| {
            let entry = suite
                .iter()
                .find(|e| e.name == name)
                .expect("name is a suite circuit");
            let rows = run_entry(entry, &config);
            assert!(
                rows.len() == 2 && rows[1].marker == 'E',
                "{name}: the table1 harness did not decide the circuit"
            );
            Expected {
                name: entry.name,
                exact: rows[1].delta,
                rows: [row_columns(&rows[0]), row_columns(&rows[1])],
            }
        })
        .collect()
}

/// The oracle entry of one circuit.
pub fn expected<'a>(oracle: &'a [Expected], name: &str) -> &'a Expected {
    oracle
        .iter()
        .find(|e| e.name == name)
        .expect("oracle covers the circuit")
}

/// One circuit, parsed and prepared, with its warm session.
pub struct Ready {
    pub name: &'static str,
    pub circuit: Arc<Circuit>,
    pub session: CheckSession<'static>,
    pub critical: NetId,
}

/// Parse + prepare + `warm_up`: what a cold `ltt check` pays before its
/// first check. Each analysis is forced through its public accessor so
/// its cost lands in its own layer; the base fixpoint comes last.
pub fn set_up(input: &Input, config: &VerifyConfig, timer: &Timer, layers: &mut Layers) -> Ready {
    let (circuit, d) = timer.time("netlist.parse", || {
        parse_bench(input.name, &input.text, DelayInterval::fixed(10))
            .expect("generated .bench text parses")
    });
    layers.add_time("netlist.parse_ms", d);
    let circuit = Arc::new(circuit);
    let (_, d) = timer.time("netlist.topology", || circuit.topology());
    layers.add_time("netlist.topology_ms", d);
    // Learning is eager: the session constructor is the learning step.
    let (session, d) = timer.time("prepared.learning", || {
        CheckSession::new_shared(circuit.clone(), config.clone())
    });
    layers.add_time("prepared.learning_ms", d);
    let prepared = session.prepared();
    let (_, d) = timer.time("prepared.scoap", || {
        prepared.controllability();
        prepared.observability();
        prepared.stem_candidates();
    });
    layers.add_time("prepared.scoap_ms", d);
    let outputs = circuit.outputs();
    let (_, d) = timer.time("prepared.dominators", || {
        for &o in outputs {
            prepared.static_dominators(o);
        }
    });
    layers.add_time("prepared.dominators_ms", d);
    let (_, d) = timer.time("prepared.cones", || {
        for &o in outputs {
            prepared.cone(o);
        }
    });
    layers.add_time("prepared.cones_ms", d);
    let (_, d) = timer.time("prepared.base_fixpoint", || session.warm_up());
    layers.add_time("prepared.base_fixpoint_ms", d);
    let critical = critical_output(&circuit);
    Ready {
        name: input.name,
        circuit,
        session,
        critical,
    }
}

/// Sets every input up `times` times (the median set-up is the metric)
/// and keeps the sessions of the last round. Only the last round feeds
/// the per-layer set-up times.
pub fn set_up_all(
    inputs: &[Input],
    config: &VerifyConfig,
    times: usize,
    timer: &Timer,
    layers: &mut Layers,
    setup: &mut Vec<Meter>,
) -> Vec<Ready> {
    let mut ready = Vec::new();
    for round in 0..times {
        let mut round_layers = Layers::default();
        let mut meter = Meter::default();
        // Drop the previous round first, so the heap peak is one round's.
        ready.clear();
        ready = inputs
            .iter()
            .map(|input| meter.piece(|| set_up(input, config, timer, &mut round_layers)))
            .collect();
        setup.push(meter);
        if round + 1 == times {
            layers.merge(&round_layers);
        }
    }
    ready
}

/// Table 1's stage columns for the reports of one row. The `table1`
/// harness's own column function is private; every decided unit holds
/// this one to the harness's rows ([`expected_rows`]).
pub fn stage_columns(reports: &[VerifyReport]) -> String {
    // Latest stage reached: 1 narrowing, 2 dominators, 3 stems, 4 search.
    let mut worst = 0u8;
    let (mut violation, mut abandoned, mut searched) = (false, false, false);
    let mut backtracks = 0u64;
    for r in reports {
        backtracks += r.backtracks;
        let stage = match &r.verdict {
            Verdict::NoViolation { stage } => match stage {
                Stage::Narrowing => 1,
                Stage::Dominators => 2,
                Stage::StemCorrelation => 3,
                Stage::CaseAnalysis | Stage::Sat => {
                    searched = true;
                    4
                }
            },
            Verdict::Violation { .. } => {
                violation = true;
                searched = true;
                4
            }
            Verdict::Abandoned => {
                abandoned = true;
                searched = true;
                4
            }
            Verdict::Possible => 4,
        };
        worst = worst.max(stage);
    }
    let col = |proved_at: u8| match worst {
        w if w < proved_at => '-',
        w if w == proved_at => 'N',
        _ => 'P',
    };
    let result = match (worst, abandoned, violation) {
        (0..=3, ..) => '-',
        (_, true, _) => 'A',
        (_, _, true) => 'V',
        _ => 'N',
    };
    let before = if worst <= 1 { 'N' } else { 'P' };
    let btr = if searched {
        backtracks.to_string()
    } else {
        "-".to_string()
    };
    format!("{before} {} {} {btr} {result}", col(2), col(3))
}

/// Folds the per-stage times and effort of `reports` into the layer
/// metrics, and their counters into `fingerprint` (which must repeat
/// exactly between units, runs and traced/untraced runs).
pub fn absorb_reports(reports: &[VerifyReport], layers: &mut Layers, fingerprint: &mut Vec<u64>) {
    for r in reports {
        let t = &r.stage_times;
        layers.add_time("stage.narrowing_ms", t.narrowing);
        layers.add_time("stage.dominators_ms", t.dominators);
        layers.add_time("stage.stems_ms", t.stems);
        layers.add_time("stage.case_ms", t.case_analysis);
        let e = &r.effort;
        layers.add("stage.narrowing_events", e.narrowing.events as f64);
        layers.add("stage.dominators_events", e.dominators.events as f64);
        layers.add("stage.stems_events", e.stems.events as f64);
        layers.add("stage.case_events", e.case_analysis.events as f64);
        let c = &r.case;
        layers.add("fan.decisions", c.decisions as f64);
        layers.add("fan.decisions_phase1", c.decisions_by_phase[0] as f64);
        layers.add("fan.decisions_phase2", c.decisions_by_phase[1] as f64);
        layers.add("fan.decisions_phase3", c.decisions_by_phase[2] as f64);
        layers.add("fan.backtracks", c.backtracks as f64);
        layers.add("fan.rejected_candidates", c.rejected_candidates as f64);
        fingerprint.extend([
            r.backtracks,
            e.narrowing.events,
            e.dominators.events,
            e.stems.events,
            e.case_analysis.events,
            r.solver.narrowings,
            c.decisions,
            c.rejected_candidates,
        ]);
    }
}

/// Derived search ratios, once the counters are summed.
pub fn fan_ratios(layers: &mut Layers) {
    let decisions = layers.get("fan.decisions");
    let backtracks = layers.get("fan.backtracks");
    if decisions > 0.0 {
        layers.set(
            "fan.events_per_decision",
            layers.get("stage.case_events") / decisions,
        );
    }
    if backtracks > 0.0 {
        layers.set(
            "fan.ms_per_backtrack",
            layers.get("stage.case_ms") / backtracks,
        );
    }
}

/// Checks a witness vector against the exact floating-mode simulator.
pub fn certified(circuit: &Circuit, report: &VerifyReport) -> bool {
    match &report.verdict {
        Verdict::Violation { vector } => {
            ltt_sta::vector_violates(circuit, vector, report.output, report.delta)
        }
        _ => true,
    }
}

/// One decided-Table-1 unit: per circuit, the exact-delay search on the
/// critical output and both published rows, checked against the
/// `table1` harness's rows ([`expected_rows`]).
#[derive(Default)]
struct Unit {
    delay: Duration,
    check: Duration,
    meter: Meter,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    fingerprint: Vec<u64>,
    layers: Layers,
}

fn decided_unit(ready: &[Ready], oracle: &[Expected], timer: &Timer) -> Unit {
    let mut u = Unit::default();
    for r in ready {
        let oracle = expected(oracle, r.name);
        let exact = oracle.exact;
        let probe = probe_ms();
        let (search, d) = timer.time("core.exact_delay", || r.session.exact_delay(r.critical));
        let (row1, d1) = timer.time("core.row_all_outputs", || {
            BatchRunner::serial().verify_all_outputs(&r.session, exact + 1)
        });
        let (row2, d2) = timer.time("core.row_critical", || r.session.verify(r.critical, exact));
        u.meter.add(d + d1 + d2, probe, probe_ms());
        u.delay += d;
        u.check += d1 + d2;

        u.attempted += 1;
        let search_ok = search.proven_exact
            && search.delay == exact
            && search
                .vector
                .as_ref()
                .is_some_and(|v| ltt_sta::vector_violates(&r.circuit, v, r.critical, exact));
        if !search_ok {
            u.failed += 1;
            u.problems.push(format!(
                "{}: exact delay {} (exact={}), expected {exact}",
                r.name, search.delay, search.proven_exact
            ));
        }
        u.attempted += row1.reports.len() as u64 + row1.errors.len() as u64 + 1;
        u.failed += row1.errors.len() as u64;
        for (want, reports) in [
            (&oracle.rows[0], &row1.reports[..]),
            (&oracle.rows[1], std::slice::from_ref(&row2)),
        ] {
            let got = stage_columns(reports);
            let uncertified = reports
                .iter()
                .filter(|rep| !certified(&r.circuit, rep))
                .count();
            if got != *want || uncertified > 0 {
                u.failed += 1;
                u.problems.push(format!(
                    "{}: row `{got}`, expected `{want}` ({uncertified} uncertified vectors)",
                    r.name
                ));
            }
        }
        absorb_reports(&search.probes, &mut u.layers, &mut u.fingerprint);
        u.fingerprint.push(search.backtracks);
        absorb_reports(&row1.reports, &mut u.layers, &mut u.fingerprint);
        absorb_reports(
            std::slice::from_ref(&row2),
            &mut u.layers,
            &mut u.fingerprint,
        );
    }
    u
}

/// `table1_decided`: the paper's decided Table 1 on the ten circuits
/// other than c6288, from `.bench` text to certified rows.
pub fn table1_decided(ctx: &Ctx) -> Outcome {
    let mut names: Vec<&str> = iscas85_suite(10)
        .iter()
        .map(|e| e.name)
        .filter(|&n| n != ABANDONED)
        .collect();
    Rng::new(ctx.seed).shuffle(&mut names);
    let inputs = suite_texts(&names);
    let oracle = expected_rows(&names);
    let config = table1_config(20_000);
    let mut out = Outcome::default();
    let quiet = Timer::new(None);
    if ctx.trace {
        // The same unit untraced, then traced (fresh sessions whose
        // config records the program's spans too): counts must agree and
        // the time gap is the tracing overhead.
        let plain = decided_unit(
            &set_up_all(
                &inputs,
                &config,
                1,
                &quiet,
                &mut Layers::default(),
                &mut Vec::new(),
            ),
            &oracle,
            &quiet,
        );
        let traced = ctx.timer();
        let config = VerifyConfig {
            obs: traced.obs(),
            ..config
        };
        let ready = set_up_all(
            &inputs,
            &config,
            1,
            &traced,
            &mut out.layers,
            &mut out.setup,
        );
        let unit = decided_unit(&ready, &oracle, &traced);
        out.trace_overhead(plain.meter.scaled_s(1.0), unit.meter.scaled_s(1.0));
        if plain.fingerprint != unit.fingerprint {
            out.fail("traced unit's effort counts differ from the untraced unit's");
        }
        out.layers.set("check_s", plain.check.as_secs_f64());
        out.layers.set("delay_s", plain.delay.as_secs_f64());
        out.layers.merge(&unit.layers);
        fan_ratios(&mut out.layers);
        out.absorb_unit(plain.attempted, plain.failed, plain.problems, plain.meter);
        out.absorb_unit(unit.attempted, unit.failed, unit.problems, unit.meter);
        return out;
    }
    let ready = set_up_all(
        &inputs,
        &config,
        ctx.scaled(5),
        &quiet,
        &mut Layers::default(),
        &mut out.setup,
    );
    let (mut delay_s, mut check_s) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<u64>> = None;
    for i in 0..ctx.scaled(4) {
        let unit = decided_unit(&ready, &oracle, &quiet);
        out.unit_heap(i);
        delay_s.push(unit.delay);
        check_s.push(unit.check);
        match &first {
            None => first = Some(unit.fingerprint),
            Some(f) if *f != unit.fingerprint => {
                out.fail("effort counts differ between two identical units")
            }
            Some(_) => {}
        }
        out.absorb_unit(unit.attempted, unit.failed, unit.problems, unit.meter);
    }
    out.note(format!(
        "table1_decided: delay_s {:.4}  check_s {:.4}  (raw medians of {} units)",
        median(&secs(&delay_s)),
        median(&secs(&check_s)),
        delay_s.len()
    ));
    out
}

/// The table1 configuration with stem correlation off: with it, every
/// capped search first pays about 1 s of stage 3, and a unit long enough
/// for the search to dominate would be too long to scale by the host
/// probe (README.md).
fn s6288_config(max_backtracks: u64) -> VerifyConfig {
    VerifyConfig {
        stem_correlation: false,
        ..table1_config(max_backtracks)
    }
}

/// One capped search on the abandoned probe, between two host probes.
fn capped_search(r: &Ready, timer: &Timer) -> (VerifyReport, Meter) {
    let mut meter = Meter::default();
    let before = probe_ms();
    let (report, d) = timer.time("core.capped_search", || {
        r.session.verify(r.critical, S6288_DELTA)
    });
    meter.add(d, before, probe_ms());
    (report, meter)
}

fn check_capped(report: &VerifyReport, out: &mut Outcome) {
    out.attempted += 1;
    if !matches!(report.verdict, Verdict::Abandoned) || report.backtracks != S6288_CAP + 1 {
        out.fail(&format!(
            "s6288: verdict {:?} after {} backtracks, expected Abandoned after {}",
            report.verdict,
            report.backtracks,
            S6288_CAP + 1
        ));
    }
}

/// `carriers.sweep_us`: one `dynamic_carriers` + `timing_dominators`
/// sweep on the probe's root fixpoint, timed in a batch.
fn carrier_sweep_us(r: &Ready, timer: &Timer) -> f64 {
    use ltt_core::carriers::{dynamic_carriers, fixpoint_with_dominators, timing_dominators};
    use ltt_core::Narrower;
    use ltt_waveform::{Signal, Time};
    let circuit: &Circuit = &r.circuit;
    let mut nw = Narrower::new(circuit);
    for &i in circuit.inputs() {
        nw.narrow_net(i, Signal::floating_input());
    }
    if let Some(table) = r.session.prepared().implication_table() {
        nw.set_implications(table.clone());
    }
    nw.narrow_net(r.critical, Signal::violation(Time::new(S6288_DELTA)));
    fixpoint_with_dominators(&mut nw, r.critical, S6288_DELTA, true);
    const SWEEPS: u32 = 50;
    let (_, d) = timer.time("carriers.sweep", || {
        for _ in 0..SWEEPS {
            let carriers = dynamic_carriers(
                circuit,
                std::hint::black_box(nw.domains()),
                r.critical,
                S6288_DELTA,
            );
            std::hint::black_box(timing_dominators(circuit, &carriers, r.critical));
        }
    });
    d.as_secs_f64() * 1e6 / f64::from(SWEEPS)
}

/// `s6288_search`: the abandoned Table 1 probe (NOR-mapped 16×16
/// multiplier, critical output, δ = 1529) under a fixed backtrack cap.
pub fn s6288_search(ctx: &Ctx) -> Outcome {
    let inputs = suite_texts(&["s6288"]);
    let config = s6288_config(S6288_CAP);
    let mut out = Outcome::default();
    let quiet = Timer::new(None);
    if ctx.trace {
        let plain_ready = set_up_all(
            &inputs,
            &config,
            1,
            &quiet,
            &mut Layers::default(),
            &mut Vec::new(),
        );
        let (plain, plain_time) = capped_search(&plain_ready[0], &quiet);
        let traced = ctx.timer();
        let config = VerifyConfig {
            obs: traced.obs(),
            ..config
        };
        let ready = set_up_all(
            &inputs,
            &config,
            1,
            &traced,
            &mut out.layers,
            &mut out.setup,
        );
        let r = &ready[0];
        let (report, time) = capped_search(r, &traced);
        out.trace_overhead(plain_time.scaled_s(1.0), time.scaled_s(1.0));
        out.layers.set("search_s", plain_time.raw_s);
        out.work.extend([plain_time, time]);
        check_capped(&plain, &mut out);
        check_capped(&report, &mut out);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        absorb_reports(std::slice::from_ref(&plain), &mut Layers::default(), &mut a);
        absorb_reports(std::slice::from_ref(&report), &mut out.layers, &mut b);
        if a != b {
            out.fail("traced search's effort counts differ from the untraced search's");
        }
        fan_ratios(&mut out.layers);
        out.layers
            .set("carriers.sweep_us", carrier_sweep_us(r, &traced));
        return out;
    }
    let ready = set_up_all(
        &inputs,
        &config,
        ctx.scaled(5),
        &quiet,
        &mut Layers::default(),
        &mut out.setup,
    );
    let r = &ready[0];
    let mut decisions = Vec::new();
    for i in 0..ctx.scaled(40) {
        let (report, time) = capped_search(r, &quiet);
        out.work.push(time);
        out.unit_heap(i);
        check_capped(&report, &mut out);
        decisions.push(report.case.decisions);
    }
    if decisions.iter().any(|&d| d != decisions[0]) {
        out.fail(&format!(
            "s6288: decision counts differ between searches: {decisions:?}"
        ));
    }
    out.note(format!(
        "s6288_search: {} searches of {} backtracks, {} decisions each",
        decisions.len(),
        S6288_CAP + 1,
        decisions[0]
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(names: &[&str], config: &VerifyConfig, timer: &Timer) -> Vec<Ready> {
        let mut setup = Vec::new();
        set_up_all(
            &suite_texts(names),
            config,
            1,
            timer,
            &mut Layers::default(),
            &mut setup,
        )
    }

    #[test]
    fn decided_units_repeat_their_effort_counts_and_rows() {
        let names = ["c17", "s432", "s1908", "s2670"];
        let quiet = Timer::new(None);
        let oracle = expected_rows(&names);
        let a = decided_unit(
            &ready(&names, &table1_config(20_000), &quiet),
            &oracle,
            &quiet,
        );
        let b = decided_unit(
            &ready(&names, &table1_config(20_000), &quiet),
            &oracle,
            &quiet,
        );
        assert_eq!(a.failed, 0, "{:?}", a.problems);
        assert!(!a.fingerprint.is_empty());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.layers.get("fan.decisions"), b.layers.get("fan.decisions"));
    }

    #[test]
    fn traced_unit_matches_untraced_unit() {
        let names = ["c17", "s499", "s3540"];
        let traced = Timer::new(Some(std::sync::Arc::new(ltt_core::Recorder::new())));
        let config = VerifyConfig {
            obs: traced.obs(),
            ..table1_config(20_000)
        };
        let sessions = ready(&names, &config, &traced);
        let oracle = expected_rows(&names);
        let plain = decided_unit(&sessions, &oracle, &Timer::new(None));
        let unit = decided_unit(&sessions, &oracle, &traced);
        assert_eq!(unit.failed, 0, "{:?}", unit.problems);
        assert_eq!(plain.fingerprint, unit.fingerprint);
        let spans = traced.spans();
        assert!(spans.iter().any(|s| s.name == "core.exact_delay"));
        // The program's own stage spans nest under the benchmark's.
        assert!(spans.iter().any(|s| s.name.starts_with("check.")));
    }

    #[test]
    fn capped_s6288_search_repeats_exactly() {
        let quiet = Timer::new(None);
        let runs: Vec<VerifyReport> = (0..2)
            .map(|_| capped_search(&ready(&["s6288"], &s6288_config(15), &quiet)[0], &quiet).0)
            .collect();
        for r in &runs {
            assert!(matches!(r.verdict, Verdict::Abandoned));
            assert_eq!(r.backtracks, 16);
        }
        assert_eq!(runs[0].case, runs[1].case);
        assert_eq!(runs[0].effort, runs[1].effort);
    }

    #[test]
    fn stage_columns_follow_table1() {
        let quiet = Timer::new(None);
        let r = &ready(&["s2670"], &table1_config(20_000), &quiet)[0];
        let row = BatchRunner::serial().verify_all_outputs(&r.session, 241);
        assert_eq!(stage_columns(&row.reports), "P P N - -");
    }
}
