//! Prometheus-text metrics primitives.
//!
//! The daemon's `metrics` operation exposes its counters in the Prometheus
//! text exposition format (version 0.0.4): one `NAME VALUE` sample per
//! line, histograms as cumulative `_bucket{le="..."}` series plus `_sum`
//! and `_count`. This module holds the two building blocks:
//!
//! * [`Histogram`] — a lock-free fixed-bucket latency histogram. Workers
//!   record one observation per finished job with a single atomic
//!   increment; a scrape renders the cumulative buckets, from which any
//!   quantile (p50/p90/p99) is derivable without the server retaining
//!   per-request samples.
//! * [`percentile`] — the exact-sample percentile used by `loadgen`'s
//!   client-side latency report (re-exported here so the load generator
//!   and the serve tests agree on one definition).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds, in seconds, of the fixed latency buckets. The final
/// implicit bucket is `+Inf`. The spread covers sub-millisecond cache-hit
/// checks up to multi-second exact-delay searches.
pub const LATENCY_BUCKETS_S: [f64; 12] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 2.5, 10.0,
];

/// A fixed-bucket, lock-free latency histogram.
///
/// Each observation performs one relaxed bucket increment and one relaxed
/// sum update; readers derive the count from the bucket totals, so a
/// scrape is always internally consistent to within the handful of
/// observations racing it. Quantiles read off the cumulative buckets are
/// upper bounds (the bucket boundary at or above the true sample).
#[derive(Debug, Default)]
pub struct Histogram {
    /// One counter per bucket in [`LATENCY_BUCKETS_S`] plus the trailing
    /// `+Inf` bucket. Non-cumulative; cumulated at read time.
    buckets: [AtomicU64; LATENCY_BUCKETS_S.len() + 1],
    /// Total observed time in microseconds (saturating).
    sum_us: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one latency observation.
    pub fn observe(&self, latency: Duration) {
        let secs = latency.as_secs_f64();
        let slot = LATENCY_BUCKETS_S
            .iter()
            .position(|&bound| secs <= bound)
            .unwrap_or(LATENCY_BUCKETS_S.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        // Saturate rather than wrap: a scraped sum that pins at the max is
        // obviously wrong; one that silently wrapped is not.
        let _ = self
            .sum_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
                Some(sum.saturating_add(us))
            });
    }

    /// Cumulative bucket counts: entry `i` counts observations at or below
    /// bound `i`, with the final entry (the `+Inf` bucket) equal to
    /// [`count`](Histogram::count).
    pub fn cumulative(&self) -> [u64; LATENCY_BUCKETS_S.len() + 1] {
        let mut out = [0u64; LATENCY_BUCKETS_S.len() + 1];
        let mut total = 0u64;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            total = total.saturating_add(bucket.load(Ordering::Relaxed));
            out[slot] = total;
        }
        out
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.cumulative()[LATENCY_BUCKETS_S.len()]
    }

    /// Total observed time in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// The bucket upper bound (seconds) at or above quantile `q` in
    /// `0.0..=1.0` — an upper bound on the true sample quantile, to bucket
    /// resolution. `None` when empty; `f64::INFINITY` when the quantile
    /// falls in the `+Inf` bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let cumulative = self.cumulative();
        let count = cumulative[LATENCY_BUCKETS_S.len()];
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        for (slot, &bound) in LATENCY_BUCKETS_S.iter().enumerate() {
            if cumulative[slot] >= rank {
                return Some(bound);
            }
        }
        Some(f64::INFINITY)
    }

    /// Renders the histogram as Prometheus text: cumulative
    /// `{name}_bucket{le="..."}` samples (including `le="+Inf"`), then
    /// `{name}_sum` (seconds) and `{name}_count`.
    pub fn render(&self, out: &mut String, name: &str, help: &str) {
        use std::fmt::Write;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let cumulative = self.cumulative();
        for (slot, &bound) in LATENCY_BUCKETS_S.iter().enumerate() {
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {}", cumulative[slot]);
        }
        let count = cumulative[LATENCY_BUCKETS_S.len()];
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let sum = self.sum_micros() as f64 / 1_000_000.0;
        let _ = writeln!(out, "{name}_sum {sum:.6}");
        let _ = writeln!(out, "{name}_count {count}");
    }
}

/// Appends one `# HELP`/`# TYPE`/sample triple for a single-valued metric.
pub fn render_sample(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends a `# HELP`/`# TYPE`/sample triple for a float-valued gauge.
pub fn render_gauge_f64(out: &mut String, name: &str, help: &str, value: f64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// The exact-sample percentile of an already-sorted latency list, by the
/// ceiling nearest-rank definition: the smallest sample such that at least
/// `p · n` samples are at or below it, i.e. rank `⌈p·n⌉` (1-based, clamped
/// to `1..=n`). `p` is in `0.0..=1.0` (values outside are clamped); an
/// empty slice yields zero.
///
/// This is the same definition [`Histogram::quantile`] applies to its
/// cumulative buckets, so `loadgen`'s client-side report and the daemon's
/// scraped histogram quantiles agree on what "p99" means — the previous
/// `round`-based interpolation could sit a full rank below the nearest-rank
/// answer (e.g. p50 of 100 samples picked index 50, the 51st sample,
/// instead of the 50th).
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let n = sorted.len();
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_micros(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn observations_land_in_the_right_buckets() {
        let h = Histogram::new();
        h.observe(Duration::from_micros(100)); // <= 0.0005
        h.observe(Duration::from_millis(2)); // <= 0.0025
        h.observe(Duration::from_secs(60)); // +Inf
        let cumulative = h.cumulative();
        assert_eq!(cumulative[0], 1);
        assert_eq!(cumulative[2], 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_micros(), 100 + 2_000 + 60_000_000);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe(Duration::from_millis(1)); // <= 0.001
        }
        for _ in 0..10 {
            h.observe(Duration::from_millis(200)); // <= 0.25
        }
        assert_eq!(h.quantile(0.50), Some(0.001));
        assert_eq!(h.quantile(0.90), Some(0.001));
        assert_eq!(h.quantile(0.99), Some(0.25));
        let slow = Histogram::new();
        slow.observe(Duration::from_secs(100));
        assert_eq!(slow.quantile(0.5), Some(f64::INFINITY));
    }

    #[test]
    fn render_emits_prometheus_histogram_lines() {
        let h = Histogram::new();
        h.observe(Duration::from_millis(1));
        let mut out = String::new();
        h.render(&mut out, "ltt_request_duration_seconds", "request latency");
        assert!(out.contains("# TYPE ltt_request_duration_seconds histogram"));
        assert!(out.contains("ltt_request_duration_seconds_bucket{le=\"0.001\"} 1"));
        assert!(out.contains("ltt_request_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(out.contains("ltt_request_duration_seconds_count 1"));
        assert!(out.contains("ltt_request_duration_seconds_sum 0.001000"));
    }

    #[test]
    fn percentile_matches_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(percentile(&one, 0.0), one[0]);
        assert_eq!(percentile(&one, 1.0), one[0]);
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        // Ceiling nearest-rank: rank ⌈p·100⌉, 1-based.
        assert_eq!(percentile(&sorted, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&sorted, 0.90), Duration::from_millis(90));
        assert_eq!(percentile(&sorted, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&sorted, 1.0), Duration::from_millis(100));
        // Boundary cases: p = 0 clamps to the first sample, p just above a
        // rank boundary steps to the next sample, out-of-range p clamps.
        assert_eq!(percentile(&sorted, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&sorted, 0.001), Duration::from_millis(1));
        assert_eq!(percentile(&sorted, 0.011), Duration::from_millis(2));
        assert_eq!(percentile(&sorted, 0.991), Duration::from_millis(100));
        assert_eq!(percentile(&sorted, -0.5), Duration::from_millis(1));
        assert_eq!(percentile(&sorted, 1.5), Duration::from_millis(100));
        // Non-divisible length: p50 of 3 samples is the 2nd (⌈1.5⌉ = 2).
        let three: Vec<Duration> = (1..=3).map(Duration::from_millis).collect();
        assert_eq!(percentile(&three, 0.50), Duration::from_millis(2));
        assert_eq!(percentile(&three, 0.34), Duration::from_millis(2));
        assert_eq!(percentile(&three, 0.33), Duration::from_millis(1));
    }

    /// The exact-sample percentile and the bucket-resolution histogram
    /// quantile implement the same nearest-rank definition: on a sample
    /// set aligned with bucket bounds, the histogram answer is exactly the
    /// bucket containing the exact-sample answer.
    #[test]
    fn percentile_and_histogram_quantile_agree() {
        let h = Histogram::new();
        let mut samples = Vec::new();
        // 90 fast (1ms) + 10 slow (200ms) observations, as in the
        // quantile test above.
        for _ in 0..90 {
            samples.push(Duration::from_millis(1));
            h.observe(Duration::from_millis(1));
        }
        for _ in 0..10 {
            samples.push(Duration::from_millis(200));
            h.observe(Duration::from_millis(200));
        }
        samples.sort();
        for &(p, want_sample, want_bucket) in &[
            // Boundary: q = 0 means "the smallest sample" under both
            // definitions (rank clamps up to 1, never 0).
            (0.00, Duration::from_millis(1), 0.001),
            (0.50, Duration::from_millis(1), 0.001),
            (0.90, Duration::from_millis(1), 0.001),
            (0.91, Duration::from_millis(200), 0.25),
            (0.99, Duration::from_millis(200), 0.25),
            // Boundary: q = 1 means "the largest sample", and clamping
            // keeps out-of-range q pinned to the same answers.
            (1.00, Duration::from_millis(200), 0.25),
            (-1.0, Duration::from_millis(1), 0.001),
            (2.00, Duration::from_millis(200), 0.25),
        ] {
            assert_eq!(percentile(&samples, p), want_sample, "p = {p}");
            assert_eq!(h.quantile(p), Some(want_bucket), "p = {p}");
        }
    }

    /// The degenerate inputs where rank arithmetic is most likely to slip
    /// off by one: no samples, and exactly one sample.
    #[test]
    fn percentile_and_quantile_agree_on_degenerate_inputs() {
        // Empty: the histogram reports "no quantile" (None) and the
        // exact-sample percentile reports its documented zero sentinel —
        // both are explicit "no data" answers, neither panics.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), None, "q = {q}");
            assert_eq!(percentile(&[], q), Duration::ZERO, "q = {q}");
        }

        // Single sample: every quantile from 0 to 1 (and beyond, via
        // clamping) is that sample — rank ⌈q·1⌉ clamps to 1 everywhere.
        let h = Histogram::new();
        h.observe(Duration::from_millis(2)); // bucket le = 0.0025
        let one = [Duration::from_millis(2)];
        for q in [0.0, 0.25, 0.5, 0.99, 1.0, -3.0, 7.0] {
            assert_eq!(h.quantile(q), Some(0.0025), "q = {q}");
            assert_eq!(percentile(&one, q), one[0], "q = {q}");
        }

        // NaN falls through both rank computations to rank 1 (the float
        // casts saturate to 0, then clamp up): the smallest sample, not a
        // panic or an out-of-range index.
        assert_eq!(h.quantile(f64::NAN), Some(0.0025));
        assert_eq!(percentile(&one, f64::NAN), one[0]);
    }

    #[test]
    fn concurrent_observations_all_count() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        h.observe(Duration::from_millis(3));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum_micros(), 1000 * 3_000);
    }
}
