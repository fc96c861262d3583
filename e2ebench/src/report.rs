//! What a workload run reports: named values, correctness checks, and the
//! shared front checks (legality, exact re-scoring, hypervolume ratio).

use crate::stats::{hypervolume, median};
use crate::trace::{aggregate, tracer};
use prefix_graph::{structures, PrefixGraph};
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::pareto::ParetoFront;
use std::collections::BTreeMap;

/// Spans that wrap a unit of work (an agent's run, a job) rather than a
/// call into a layer. Their self time is the time no layer span covers.
const CONTAINER_SPANS: [&str; 2] = ["experiment.agent", "jobs.run"];

/// Values and check outcomes of one workload run.
#[derive(Default)]
pub struct Report {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Descriptions of the failures.
    pub failures: Vec<String>,
    /// Every measured value by metric name.
    pub values: BTreeMap<String, f64>,
    /// Free-form findings for the human report.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records one attempted operation or check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// A metric value, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds a line to the human report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Per-layer values from the spans recorded so far: `<span>.calls`,
    /// `.s` and `.self_s` for every span name, the cache and synthesis
    /// breakdown, and the share of `busy_s` (the summed wall time of the
    /// threads that ran the traced work) that the layer spans cover, with
    /// the wrapping spans of [`CONTAINER_SPANS`] left out.
    pub fn layers_from_trace(&mut self, wall_s: f64, busy_s: f64) {
        let spans = tracer().spans();
        let agg = aggregate(&spans);
        let mut self_sum = 0.0;
        for (name, l) in &agg {
            self.set(format!("{name}.calls"), l.calls as f64);
            self.set(format!("{name}.s"), l.seconds);
            self.set(format!("{name}.self_s"), l.self_seconds);
            if !CONTAINER_SPANS.contains(name) {
                self_sum += l.self_seconds;
            }
        }
        for role in ["infer_online", "infer_target", "forward_train"] {
            let calls = self.get(&format!("nn.{role}.calls"));
            if calls > 0.0 {
                let samples = tracer().counter(&format!("nn.{role}.samples"));
                self.set(format!("nn.{role}.samples_per_call"), samples / calls);
            }
        }
        let calls = self.get("cache.evaluate.calls");
        let misses = self.get("synth.evaluate.calls");
        self.set("cache.calls", calls);
        self.set("cache.misses", misses);
        self.set("cache.hits", calls - misses);
        if calls > 0.0 {
            self.set("cache.hit_ratio", (calls - misses) / calls);
        }
        self.set("cache.self_s", self.get("cache.evaluate.self_s"));
        if let Some(l) = agg.get("synth.evaluate") {
            self.set("synth.evaluate.p50_ms", median(&l.durations) * 1e3);
        }
        self.set("trace.wall_s", wall_s);
        self.set("trace.spans", spans.len() as f64);
        // Self times partition their root spans; without the wrapping
        // spans they add up to the time spent inside layer calls.
        self.set("trace.coverage", self_sum / busy_s);
    }

    /// The share of traced self time per layer prefix (`nn`, `rl`, `env`,
    /// `cache`, `synth`, ...), largest first; the self time of the wrapping
    /// spans shows as `unattributed`.
    pub fn layer_shares(&self) -> Vec<(String, f64)> {
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for (name, v) in &self.values {
            let Some(span) = name.strip_suffix(".self_s") else {
                continue;
            };
            // Only raw span aggregates (`layer.function.self_s`).
            if span.matches('.').count() != 1 {
                continue;
            }
            let layer = if CONTAINER_SPANS.contains(&span) {
                "unattributed".to_string()
            } else {
                span.split('.').next().unwrap_or(span).to_string()
            };
            *by_layer.entry(layer).or_insert(0.0) += v;
        }
        let total: f64 = by_layer.values().sum();
        let mut shares: Vec<(String, f64)> = by_layer
            .into_iter()
            .map(|(k, v)| (k, if total > 0.0 { v / total } else { 0.0 }))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }
}

/// SplitMix64 of `seed` and `k`: the derived seed of the `k`-th unit of
/// work (sweep, job, run) of a benchmark seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0x7fff_ffff_ffff
}

/// Every front design is a legal prefix graph and re-scores to exactly
/// its recorded point through `fresh`, an evaluator that shares no cache
/// with the run.
pub fn front_checks(front: &ParetoFront<PrefixGraph>, fresh: &dyn Evaluator, report: &mut Report) {
    for (p, g) in front.iter() {
        report.check(
            g.verify_legal().is_ok(),
            format!("front design (area {}, delay {}) is legal", p.area, p.delay),
        );
        let q = fresh.evaluate(g);
        report.check(
            q.area.to_bits() == p.area.to_bits() && q.delay.to_bits() == p.delay.to_bits(),
            format!(
                "front point ({}, {}) re-scores exactly (got ({}, {}))",
                p.area, p.delay, q.area, q.delay
            ),
        );
    }
}

/// The regular structures' points at width `n` under `evaluator` (which
/// binds the task and backend) and the fixed reference point derived from
/// them: 20% beyond their worst area and worst delay.
pub fn regular_front(n: u16, evaluator: &dyn Evaluator) -> (Vec<(f64, f64)>, (f64, f64)) {
    let points: Vec<(f64, f64)> = structures::all_regular()
        .into_iter()
        .map(|(_, ctor)| {
            let p = evaluator.evaluate(&ctor(n));
            (p.area, p.delay)
        })
        .collect();
    let max_area = points.iter().map(|p| p.0).fold(0.0, f64::max);
    let max_delay = points.iter().map(|p| p.1).fold(0.0, f64::max);
    (points, (1.2 * max_area, 1.2 * max_delay))
}

/// Hypervolume of `points` ÷ hypervolume of the regular-structure front,
/// both scored by `evaluator` against the same fixed reference point.
pub fn hv_ratio(points: &[(f64, f64)], n: u16, evaluator: &dyn Evaluator) -> f64 {
    let (regular, reference) = regular_front(n, evaluator);
    hypervolume(points, reference) / hypervolume(&regular, reference)
}

/// `(steal, total)` CPU clock ticks of the host so far, summed over CPUs
/// (`/proc/stat`); `None` when the platform does not report them. Steal
/// is time the hypervisor gave to other guests, one cause of run-to-run
/// drift on a shared host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut r = Report::new();
        r.check(true, "a");
        r.check(false, "b");
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failures, vec!["b".to_string()]);
    }
}
