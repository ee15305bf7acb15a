//! Small shared pieces: the seeded generator, order statistics, the
//! host-speed probe and the span-recording timer.

use ltt_core::{Obs, Recorder, Span};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so one `--seed` always yields the
/// same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_1998_DA7E_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Durations in seconds.
pub fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

/// Words sorted by one host-speed probe run (2 MiB).
const PROBE_WORDS: usize = 1 << 18;

/// Probe time, in milliseconds, that defines the reference host speed:
/// about the median reading on the 2-core reference host.
pub const PROBE_REF_MS: f64 = 7.0;

/// One run of the host-speed probe, in milliseconds: a fixed sort of
/// pseudo-random words in a buffer allocated once. It shares no code with
/// the verifier, so it moves with the host and never with a commit.
pub fn probe_ms() -> f64 {
    static BUFFER: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let mut words = BUFFER.lock().expect("probe buffer lock poisoned");
    words.resize(PROBE_WORDS, 0);
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for w in words.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *w = x;
    }
    words.sort_unstable();
    black_box(&words[..]);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Three probe runs; the caller takes one batch at the start and one at
/// the end of every benchmark run.
pub fn host_probe() -> Vec<f64> {
    (0..3).map(|_| probe_ms()).collect()
}

/// Wall time of one round of work, raw and scaled to the reference host
/// speed. Each piece of the round is scaled by the mean of probe runs
/// just before and just after it: the host's speed drifts by up to ±25%
/// within seconds (other tenants), and the probe drifts with it.
#[derive(Clone, Debug, Default)]
pub struct Meter {
    pub raw_s: f64,
    /// Each piece: its seconds and the mean probe time around it (ms).
    pieces: Vec<(f64, f64)>,
}

impl Meter {
    /// Times `f` as one piece of this round, between two host probes.
    pub fn piece<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = probe_ms();
        let t0 = Instant::now();
        let out = f();
        let d = t0.elapsed();
        self.add(d, before, probe_ms());
        out
    }

    /// Adds a piece timed elsewhere, with the probes taken just before and
    /// just after it.
    pub fn add(&mut self, d: Duration, before_ms: f64, after_ms: f64) {
        self.raw_s += d.as_secs_f64();
        self.pieces
            .push((d.as_secs_f64(), (before_ms + after_ms) / 2.0));
    }

    /// Seconds on a host where the probe takes [`PROBE_REF_MS`]: each
    /// piece times `(PROBE_REF_MS / probe) ^ elasticity`, where the
    /// elasticity is how strongly this work's time follows the probe's
    /// (1 for proportional; README.md, "Host scaling").
    pub fn scaled_s(&self, elasticity: f64) -> f64 {
        self.pieces
            .iter()
            .map(|&(d, probe)| d * (PROBE_REF_MS / probe).powf(elasticity))
            .sum()
    }
}

/// Times calls into the measured layers and, in a traced run, records a
/// benchmark span around each one in the shared [`Recorder`].
#[derive(Clone)]
pub struct Timer {
    obs: Obs,
}

impl Timer {
    pub fn new(recorder: Option<Arc<Recorder>>) -> Timer {
        Timer {
            obs: recorder.map_or_else(Obs::disabled, Obs::recording),
        }
    }

    /// The handle to attach to `VerifyConfig::obs`, so the program's own
    /// stage spans nest under the benchmark's.
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.obs.start();
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed();
        self.obs.span(name, "bench", span, &[]);
        (out, elapsed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.obs.recorder().map_or_else(Vec::new, |r| r.spans())
    }

    pub fn chrome_trace(&self) -> Option<String> {
        self.obs.recorder().map(|r| r.chrome_trace())
    }
}

/// Per span name: `(count, total µs, self µs)`, where a span's self time
/// is its duration minus the part covered by spans nested in it on the
/// same thread.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    // Parents first: earlier start, then longer duration.
    sorted.sort_by_key(|s| (s.tid, s.start_us, std::cmp::Reverse(s.dur_us)));
    let mut child_us = vec![0u64; sorted.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..sorted.len() {
        let s = sorted[i];
        while let Some(&top) = stack.last() {
            let p = sorted[top];
            if p.tid == s.tid && s.start_us + s.dur_us <= p.start_us + p.dur_us {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            child_us[top] += s.dur_us;
        }
        stack.push(i);
    }
    let mut rollup: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for (i, s) in sorted.iter().enumerate() {
        let e = rollup.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us;
        e.2 += s.dur_us.saturating_sub(child_us[i]);
    }
    rollup
        .into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: u64, dur_us: u64) -> Span {
        Span {
            name,
            cat: "bench",
            start_us,
            dur_us,
            tid: 1,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let spans = [
            span("outer", 0, 100),
            span("inner", 10, 30),
            span("inner", 50, 20),
            span("leaf", 12, 5),
            span("after", 100, 7),
        ];
        let rollup = self_times(&spans);
        let get = |n: &str| *rollup.iter().find(|r| r.0 == n).unwrap();
        assert_eq!(get("outer"), ("outer", 1, 100, 50));
        assert_eq!(get("inner"), ("inner", 2, 50, 45));
        assert_eq!(get("after"), ("after", 1, 7, 7));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }

    #[test]
    fn seeded_generator_repeats() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let mut x: Vec<u32> = (0..20).collect();
        let mut y = x.clone();
        a.shuffle(&mut x);
        b.shuffle(&mut y);
        assert_eq!(x, y);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
