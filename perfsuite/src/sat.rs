//! `sat_quick`: the `--quick` Table 1 circuits through the CNF encoder and
//! the CDCL solver, cross-checked against the narrowing engine's table.

use crate::table1::{
    certified, critical_output, expected, expected_rows, stage_columns, suite_texts, table1_config,
    Expected, Input, Ready, QUICK,
};
use crate::util::{probe_ms, Meter, Rng, Timer};
use crate::{Ctx, Layers, Outcome};
use ltt_core::{Budget, CheckSession, Engine, Verdict, VerifyConfig};
use ltt_netlist::bench_format::parse_bench;
use ltt_netlist::{DelayInterval, NetId};
use ltt_sat::{encode_check, Encoded, SatResult};
use std::sync::Arc;
use std::time::Duration;

/// Parse + session: the SAT engine reads no other prepared analysis.
fn set_up(
    inputs: &[Input],
    config: &VerifyConfig,
    timer: &Timer,
    layers: &mut Layers,
) -> Vec<Ready> {
    inputs
        .iter()
        .map(|input| {
            let (circuit, d) = timer.time("netlist.parse", || {
                parse_bench(input.name, &input.text, DelayInterval::fixed(10))
                    .expect("generated .bench text parses")
            });
            layers.add_time("netlist.parse_ms", d);
            let circuit = Arc::new(circuit);
            let (session, d) = timer.time("prepared.learning", || {
                CheckSession::new_shared(circuit.clone(), config.clone())
            });
            layers.add_time("prepared.learning_ms", d);
            Ready {
                name: input.name,
                critical: critical_output(&circuit),
                circuit,
                session,
            }
        })
        .collect()
}

/// One unit: per circuit, the SAT exact-delay search and both published
/// rows, checked against the narrowing engine's delays and verdicts (the
/// `table1` harness's rows). Returns the SAT decisions made, for the
/// traced encode/solve split.
fn unit(
    ready: &[Ready],
    oracle: &[Expected],
    timer: &Timer,
    out: &mut Outcome,
    fingerprint: &mut Vec<u64>,
) -> (Meter, Vec<(usize, NetId, i64)>) {
    let mut decisions = Vec::new();
    let probe = probe_ms();
    let mut spent = Duration::ZERO;
    let (mut attempted, mut failed, mut problems) = (0u64, 0u64, Vec::new());
    for (ci, r) in ready.iter().enumerate() {
        let exact = expected(oracle, r.name).exact;
        let (search, d) = timer.time("sat.exact_delay", || {
            ltt_sat::exact_delay(&r.session, r.critical)
        });
        spent += d;
        attempted += 1;
        decisions.extend(search.probes.iter().map(|p| (ci, r.critical, p.delta)));
        let vector_ok = search
            .vector
            .as_ref()
            .is_some_and(|v| ltt_sta::vector_violates(&r.circuit, v, r.critical, exact));
        if !(search.proven_exact && search.delay == exact && vector_ok) {
            failed += 1;
            problems.push(format!(
                "{}: SAT delay {} (exact={}), narrowing says {exact}",
                r.name, search.delay, search.proven_exact
            ));
        }
        fingerprint.push(search.backtracks);
        fingerprint.extend(search.probes.iter().map(|p| p.solver.events));
        let checks: Vec<(NetId, i64)> = r
            .circuit
            .outputs()
            .iter()
            .map(|&o| (o, exact + 1))
            .collect();
        let (row1, d1) = timer.time("sat.row_all_outputs", || {
            ltt_sat::run_checks(
                &r.session,
                Engine::Sat,
                &checks,
                &Budget::unlimited(),
                false,
            )
        });
        let (row2, d2) = timer.time("sat.row_critical", || {
            ltt_sat::verify(&r.session, r.critical, exact)
        });
        spent += d1 + d2;
        decisions.extend(checks.iter().map(|&(o, d)| (ci, o, d)));
        decisions.push((ci, r.critical, exact));
        attempted += row1.reports.len() as u64 + 1;
        for rep in &row1.reports {
            if !rep.verdict.is_no_violation() {
                failed += 1;
                problems.push(format!("{}: SAT finds δ = {} violated", r.name, exact + 1));
            }
        }
        if !(matches!(row2.verdict, Verdict::Violation { .. }) && certified(&r.circuit, &row2)) {
            failed += 1;
            problems.push(format!(
                "{}: SAT row `{}` at δ = {exact}, expected a certified V",
                r.name,
                stage_columns(std::slice::from_ref(&row2))
            ));
        }
        for rep in row1.reports.iter().chain(std::iter::once(&row2)) {
            fingerprint.extend([rep.backtracks, rep.solver.events]);
        }
    }
    let mut meter = Meter::default();
    meter.add(spent, probe, probe_ms());
    out.absorb_unit(attempted, failed, problems, meter.clone());
    (meter, decisions)
}

/// Re-runs each SAT decision of a unit through the public encoder and
/// solver separately, for the per-layer split and the CNF counters.
fn encode_solve_split(
    ready: &[Ready],
    decisions: &[(usize, NetId, i64)],
    timer: &Timer,
    layers: &mut Layers,
) {
    let budget = Budget::unlimited();
    for &(ci, output, delta) in decisions {
        let circuit = &ready[ci].circuit;
        let (encoded, d) = timer.time("sat.encode", || {
            encode_check(circuit, output, delta, &budget)
        });
        layers.add_time("sat.encode_ms", d);
        layers.add("sat.probes", 1.0);
        if let Ok(Encoded::Cnf(mut cnf)) = encoded {
            layers.add("sat.vars", f64::from(cnf.solver.num_vars()));
            let (result, d) = timer.time("sat.solve", || cnf.solver.solve(&budget));
            layers.add_time("sat.solve_ms", d);
            std::hint::black_box(matches!(result, SatResult::Sat(_)));
            let s = cnf.solver.stats;
            layers.add("sat.conflicts", s.conflicts as f64);
            layers.add("sat.propagations", s.propagations as f64);
            layers.add("sat.decisions", s.decisions as f64);
            layers.add("sat.restarts", s.restarts as f64);
        }
    }
}

pub fn sat_quick(ctx: &Ctx) -> Outcome {
    let mut names = QUICK.to_vec();
    Rng::new(ctx.seed).shuffle(&mut names);
    let inputs = suite_texts(&names);
    let oracle = expected_rows(&names);
    let config = VerifyConfig {
        engine: Engine::Sat,
        ..table1_config(20_000)
    };
    let mut out = Outcome::default();
    let quiet = Timer::new(None);
    if ctx.trace {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let plain_ready = set_up(&inputs, &config, &quiet, &mut Layers::default());
        let (plain, _) = unit(&plain_ready, &oracle, &quiet, &mut out, &mut a);
        let traced = ctx.timer();
        let config = VerifyConfig {
            obs: traced.obs(),
            ..config
        };
        let mut meter = Meter::default();
        let ready = meter.piece(|| set_up(&inputs, &config, &traced, &mut out.layers));
        out.setup.push(meter);
        let (time, decisions) = unit(&ready, &oracle, &traced, &mut out, &mut b);
        out.trace_overhead(plain.scaled_s(1.0), time.scaled_s(1.0));
        if a != b {
            out.fail("traced unit's effort counts differ from the untraced unit's");
        }
        out.layers.set("sat_s", plain.raw_s);
        encode_solve_split(&ready, &decisions, &traced, &mut out.layers);
        return out;
    }
    let mut ready = Vec::new();
    for _ in 0..ctx.scaled(25) {
        let mut meter = Meter::default();
        ready.clear();
        ready = meter.piece(|| set_up(&inputs, &config, &quiet, &mut Layers::default()));
        out.setup.push(meter);
    }
    let mut first: Option<Vec<u64>> = None;
    for i in 0..ctx.scaled(60) {
        let mut fingerprint = Vec::new();
        unit(&ready, &oracle, &quiet, &mut out, &mut fingerprint);
        out.unit_heap(i);
        match &first {
            None => first = Some(fingerprint),
            Some(f) if *f != fingerprint => {
                out.fail("effort counts differ between two identical units")
            }
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_units_repeat_their_effort_counts() {
        let config = VerifyConfig {
            engine: Engine::Sat,
            ..table1_config(20_000)
        };
        let names = ["c17", "s432", "s880"];
        let inputs = suite_texts(&names);
        let oracle = expected_rows(&names);
        let quiet = Timer::new(None);
        let ready = set_up(&inputs, &config, &quiet, &mut Layers::default());
        let mut out = Outcome::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (_, decisions) = unit(&ready, &oracle, &quiet, &mut out, &mut a);
        unit(&ready, &oracle, &quiet, &mut out, &mut b);
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        assert_eq!(a, b);
        let (mut x, mut y) = (Layers::default(), Layers::default());
        encode_solve_split(&ready, &decisions, &quiet, &mut x);
        encode_solve_split(&ready, &decisions, &quiet, &mut y);
        for name in [
            "sat.vars",
            "sat.conflicts",
            "sat.propagations",
            "sat.decisions",
            "sat.probes",
        ] {
            assert_eq!(x.get(name), y.get(name), "{name}");
        }
        assert!(x.get("sat.vars") > 0.0);
    }
}
