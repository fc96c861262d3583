//! Measurement helpers: the tail-percentile reporter, the 2-D hypervolume
//! of an (area, delay) front, and the open-loop request scheduler.

use std::time::{Duration, Instant};

/// Percentile ladder the tail reporter climbs, in percent.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (in percent) among `n`
/// samples, in exact integer arithmetic (hundredths of a percent).
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Whether at least [`TAIL_MIN_BEYOND`] of `n` samples lie beyond
/// percentile `p`.
fn reportable(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND
}

/// Nearest-rank percentile `p` (in percent) of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The median of `values` (the two middle values averaged for even
/// counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// A timing summary: median, the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (`None` without samples).
    pub p50: Option<f64>,
    /// `(percentile, value)` of the reported tail (`None` when fewer than
    /// `2 × TAIL_MIN_BEYOND` samples exist).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                p50: None,
                tail: None,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = LADDER
            .iter()
            .copied()
            .rev()
            .find(|&p| reportable(n, p))
            .map(|p| (p, percentile(&sorted, p)));
        Summary {
            count: n,
            p50: Some(median(&sorted)),
            tail,
        }
    }

    /// The value at percentile `p` if `p` is reportable (at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it) — used to read a fixed
    /// percentile such as p99 only when the run collected enough samples.
    pub fn at(samples: &[f64], p: f64) -> Option<f64> {
        if reportable(samples.len(), p) {
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            Some(percentile(&sorted, p))
        } else {
            None
        }
    }

    /// `p50=… p99=… (n=…)` with a unit suffix, for the human report.
    pub fn render(&self, unit: &str) -> String {
        match (self.p50, self.tail.filter(|(p, _)| *p > 50.0)) {
            (None, _) => "no samples".to_string(),
            (Some(m), None) => format!("p50={m:.4}{unit} (n={}, too few for a tail)", self.count),
            (Some(m), Some((p, v))) => {
                format!("p50={m:.4}{unit} p{p}={v:.4}{unit} (n={})", self.count)
            }
        }
    }
}

/// Hypervolume dominated by `points` (minimized `(area, delay)` pairs)
/// and bounded by `reference`: the area of the union of boxes
/// `[delay, ref.delay] × [area, ref.area]`. Dominated points add nothing;
/// points not strictly better than the reference in both objectives are
/// ignored.
pub fn hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let (ref_area, ref_delay) = reference;
    let mut inside: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(a, d)| a < ref_area && d < ref_delay)
        .collect();
    // Sweep by ascending delay; each point adds the strip between the
    // lowest area seen so far and its own area.
    inside.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.total_cmp(&y.0)));
    let mut best_area = ref_area;
    let mut volume = 0.0;
    for (area, delay) in inside {
        if area < best_area {
            volume += (ref_delay - delay) * (best_area - area);
            best_area = area;
        }
    }
    volume
}

/// An open-loop schedule: operation `i` is due at `start + i / rate`,
/// whether or not earlier operations finished. Latency is counted from the
/// due time, so a stall is charged to every operation queued behind it;
/// lateness (actual send − due) is recorded as the generator's own
/// validity check.
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    next: u64,
    /// Per-operation lateness in seconds, in issue order.
    pub lateness: Vec<f64>,
}

impl OpenLoop {
    /// A schedule of `rate` operations per second starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    pub fn new(start: Instant, rate: f64) -> OpenLoop {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
            next: 0,
            lateness: Vec::new(),
        }
    }

    /// The due time of the next operation.
    pub fn next_due(&self) -> Instant {
        self.start + self.interval.mul_f64(self.next as f64)
    }

    /// Sleeps until the next operation is due (not at all if it is
    /// overdue), records its lateness against `now`, and returns its due
    /// time. `now` is injectable so the accounting is testable.
    pub fn wait_next(&mut self, now: impl Fn() -> Instant) -> Instant {
        let due = self.next_due();
        let mut t = now();
        if t < due {
            std::thread::sleep(due - t);
            t = now();
        }
        self.lateness
            .push(t.saturating_duration_since(due).as_secs_f64());
        self.next += 1;
        due
    }

    /// Worst lateness so far, in seconds.
    pub fn late_max(&self) -> f64 {
        self.lateness.iter().copied().fold(0.0, f64::max)
    }

    /// Whether lateness grew over the phase: the median lateness of the
    /// last quarter of operations exceeds that of the first quarter by
    /// more than `slack` seconds — the generator fell steadily behind,
    /// so the offered rate was not actually sustained.
    pub fn lateness_grew(&self, slack: f64) -> bool {
        let n = self.lateness.len();
        if n < 8 {
            return false;
        }
        let q = n / 4;
        median(&self.lateness[n - q..]) > median(&self.lateness[..q]) + slack
    }
}

/// Latency of an operation that completed at `done`, counted from its due
/// time, in seconds.
pub fn latency_from_due(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypervolume_single_point() {
        // One box: (10 - 4) × (100 - 40).
        assert_eq!(hypervolume(&[(40.0, 4.0)], (100.0, 10.0)), 360.0);
    }

    #[test]
    fn hypervolume_two_points_union() {
        // Boxes from (a=60,d=2) and (a=30,d=5) against ref (100, 10):
        // 8×40 + 5×30 = 320 + 150.
        let hv = hypervolume(&[(30.0, 5.0), (60.0, 2.0)], (100.0, 10.0));
        assert_eq!(hv, 470.0);
    }

    #[test]
    fn hypervolume_three_points_hand_computed() {
        // (a=80,d=1), (a=50,d=3), (a=20,d=6), ref (100, 10):
        // 9×20 + 7×30 + 4×30 = 180 + 210 + 120.
        let pts = [(50.0, 3.0), (20.0, 6.0), (80.0, 1.0)];
        assert_eq!(hypervolume(&pts, (100.0, 10.0)), 510.0);
    }

    #[test]
    fn hypervolume_ignores_dominated_and_out_of_reference_points() {
        let base = hypervolume(&[(30.0, 5.0), (60.0, 2.0)], (100.0, 10.0));
        // (70, 6) is dominated by (30, 5); (10, 12) lies past the delay
        // reference and (120, 1) past the area reference.
        let noisy = [
            (30.0, 5.0),
            (60.0, 2.0),
            (70.0, 6.0),
            (10.0, 12.0),
            (120.0, 1.0),
        ];
        assert_eq!(hypervolume(&noisy, (100.0, 10.0)), base);
        // A point exactly on the reference adds nothing either.
        assert_eq!(hypervolume(&[(100.0, 1.0)], (100.0, 10.0)), 0.0);
        assert_eq!(hypervolume(&[], (100.0, 10.0)), 0.0);
    }

    #[test]
    fn summary_picks_highest_percentile_with_ten_beyond() {
        // 19 samples: nothing has 10 beyond p50 → no tail.
        let s = Summary::of(&(1..=19).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.count, 19);
        assert_eq!(s.p50, Some(10.0));
        assert_eq!(s.tail, None);
        // 20 samples: p50 has exactly 10 beyond.
        let s = Summary::of(&(1..=20).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((50.0, 10.0)));
        // 100 samples: p90 (10 beyond), not p99 (1 beyond).
        let s = Summary::of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((90.0, 90.0)));
        // 1000 samples: p99 is the 990th value.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(Summary::at(&v, 99.0), Some(990.0));
        assert_eq!(Summary::at(&v[..999], 99.0), None);
        // Order does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(Summary::of(&rev), s);
        assert_eq!(Summary::of(&[]).p50, None);
    }

    #[test]
    fn median_averages_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_counts_latency_from_due_time_and_records_lateness() {
        use std::cell::Cell;
        let t0 = Instant::now();
        let mut sched = OpenLoop::new(t0, 10.0); // due every 100 ms
                                                 // The clock says we are 250 ms in when op 0 is issued: it is
                                                 // 250 ms late and does not sleep.
        let clock = Cell::new(t0 + Duration::from_millis(250));
        let due0 = sched.wait_next(|| clock.get());
        assert_eq!(due0, t0);
        // Op 1 is due at 100 ms and also overdue (150 ms late).
        let due1 = sched.wait_next(|| clock.get());
        assert_eq!(due1, t0 + Duration::from_millis(100));
        // A reply at 300 ms: latency from due, not from send.
        assert!((latency_from_due(due1, t0 + Duration::from_millis(300)) - 0.2).abs() < 1e-9);
        assert!((sched.lateness[0] - 0.25).abs() < 1e-9);
        assert!((sched.lateness[1] - 0.15).abs() < 1e-9);
        assert!((sched.late_max() - 0.25).abs() < 1e-9);
        // Op 2 (due at 200 ms) issued on a clock already past it… then
        // a real sleep: op 3 is due at 300 ms; with the real clock at
        // t0 + ε it sleeps until due and is (almost) on time.
        clock.set(t0 + Duration::from_millis(200));
        sched.wait_next(|| clock.get());
        assert_eq!(sched.lateness[2], 0.0);
        let due3 = sched.wait_next(Instant::now);
        assert!(Instant::now() >= due3);
        assert!(sched.lateness[3] < 0.05);
    }

    #[test]
    fn open_loop_detects_growing_lateness() {
        let t0 = Instant::now();
        let mut steady = OpenLoop::new(t0, 1000.0);
        steady.lateness = vec![0.001; 40];
        assert!(!steady.lateness_grew(0.005));
        let mut behind = OpenLoop::new(t0, 1000.0);
        behind.lateness = (0..40).map(|i| i as f64 * 0.01).collect();
        assert!(behind.lateness_grew(0.005));
    }
}
