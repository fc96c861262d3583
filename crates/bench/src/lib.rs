//! Shared support for the figure/table harnesses in `benches/`.
//!
//! Every harness honours `PREFIXRL_SCALE`:
//!
//! - `quick` (default): CPU-sized widths and training budgets that finish in
//!   minutes and preserve the qualitative shape of each figure;
//! - `paper`: the paper's widths (32b/64b) and budgets — sized for a long
//!   unattended run.
//!
//! Results print as aligned tables and are also written as JSON under
//! `target/prefixrl-results/` for EXPERIMENTS.md bookkeeping.

use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::pareto::ParetoFront;
use std::io::Write as _;
use std::path::PathBuf;

/// Experiment scale selected by `PREFIXRL_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale reproduction preserving qualitative shape.
    Quick,
    /// The paper's full problem sizes and budgets.
    Paper,
}

/// Reads the scale from the environment.
pub fn scale() -> Scale {
    match std::env::var("PREFIXRL_SCALE").as_deref() {
        Ok("paper") => Scale::Paper,
        _ => Scale::Quick,
    }
}

/// Where JSON artifacts are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/prefixrl-results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a JSON artifact.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create artifact");
    f.write_all(serde_json::to_string_pretty(value).unwrap().as_bytes())
        .expect("write artifact");
    println!("[artifact] {}", path.display());
}

/// One measured point of the actor-scaling benchmark.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Actor thread count.
    pub actors: usize,
    /// Whether greedy forwards were batched through the cross-actor
    /// inference broker (one fused forward per service cycle) or run
    /// per-actor.
    pub broker: bool,
    /// Environments stepped in lockstep per actor.
    pub envs_per_actor: usize,
    /// Environment steps executed.
    pub steps: u64,
    /// Training throughput (each environment step is one policy
    /// decision, so this is also decisions/sec).
    pub steps_per_sec: f64,
    /// Shared evaluation-cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Distinct designs harvested.
    pub designs: usize,
}

/// Dumps `BENCH_scaling.json` at the workspace root: steps/sec and cache
/// hit rate vs actor count, machine-readable so future changes can track
/// the performance trajectory against this file.
pub fn write_bench_scaling(widths: u16, rows: &[ScalingRow]) {
    let value = serde_json::json!({
        "benchmark": "async_actor_scaling",
        "n": widths,
        "rows": rows.iter().map(|r| serde_json::json!({
            "actors": r.actors,
            "broker": r.broker,
            "envs_per_actor": r.envs_per_actor,
            "steps": r.steps,
            "steps_per_sec": r.steps_per_sec,
            "decisions_per_sec": r.steps_per_sec,
            "cache_hit_rate": r.cache_hit_rate,
            "designs": r.designs,
        })).collect::<Vec<_>>(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scaling.json");
    std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
        .expect("write BENCH_scaling.json");
    println!("[artifact] {}", path.display());
}

/// One measured point of the sweep-scaling benchmark: a full multi-agent
/// `Experiment` at a given concurrency.
#[derive(Clone, Copy, Debug)]
pub struct SweepRow {
    /// Agents trained (one per scalarization weight).
    pub agents: usize,
    /// Concurrent agent threads (the EvalService budget).
    pub concurrency: usize,
    /// Environment steps per agent.
    pub steps_per_agent: u64,
    /// Total training throughput across agents.
    pub steps_per_sec: f64,
    /// Shared evaluation-cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Points on the merged Pareto front.
    pub merged_front: usize,
    /// Distinct designs across all agents.
    pub designs: usize,
}

/// Dumps `BENCH_sweep.json` at the workspace root: experiment-session
/// throughput and shared-cache hit rate vs concurrent agent count,
/// machine-readable so future changes can track the sweep fan-out path
/// against this file.
pub fn write_bench_sweep(n: u16, rows: &[SweepRow]) {
    let value = serde_json::json!({
        "benchmark": "experiment_sweep_scaling",
        "n": n,
        "rows": rows.iter().map(|r| serde_json::json!({
            "agents": r.agents,
            "concurrency": r.concurrency,
            "steps_per_agent": r.steps_per_agent,
            "steps_per_sec": r.steps_per_sec,
            "cache_hit_rate": r.cache_hit_rate,
            "merged_front": r.merged_front,
            "designs": r.designs,
        })).collect::<Vec<_>>(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
        .expect("write BENCH_sweep.json");
    println!("[artifact] {}", path.display());
}

/// One measured point of the `nn_throughput` harness: the tensor compute
/// engine at a given config and thread count.
#[derive(Clone, Debug)]
pub struct NnRow {
    /// Q-network config label (e.g. `small(16)`).
    pub config: String,
    /// `nn::compute` thread budget.
    pub threads: usize,
    /// Training-mode forward throughput (samples/sec).
    pub fwd_samples_per_sec: f64,
    /// Backward + optimizer-step throughput (samples/sec).
    pub bwd_samples_per_sec: f64,
    /// Immutable-inference throughput through `QInfer` (samples/sec).
    pub infer_samples_per_sec: f64,
    /// Fused frozen-snapshot inference throughput (samples/sec).
    pub fused_infer_samples_per_sec: f64,
    /// Forward throughput of the pre-PR naive conv stack measured in the
    /// same process (samples/sec; thread-independent — the old path was
    /// single-threaded).
    pub baseline_fwd_samples_per_sec: f64,
}

/// One measured point of the raw-GEMM kernel benchmark: the SIMD lane
/// tier against the scalar engine and the naive reference at one shape
/// and thread count.
#[derive(Clone, Copy, Debug)]
pub struct GemmRow {
    /// Output rows (the im2col row-block height).
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// `nn::compute` worker threads.
    pub threads: usize,
    /// Naive reference kernel (`nn::compute::reference::gemm`) GFLOP/s.
    /// Zero for rows where re-measuring the (slow, thread-independent)
    /// reference was skipped.
    pub reference_gflops: f64,
    /// Blocked scalar engine GFLOP/s (`simd::set_enabled(false)`).
    pub scalar_gflops: f64,
    /// AVX lane tier GFLOP/s (`simd::set_enabled(true)`).
    pub simd_gflops: f64,
    /// Whether the SIMD and scalar results were bitwise identical at this
    /// shape and thread count (must always be true).
    pub bit_identical: bool,
}

/// Dumps `BENCH_nn.json` at the workspace root: compute-engine throughput
/// (forward / backward / inference / fused inference) per config and
/// thread count, against the pre-PR naive single-thread baseline, plus
/// raw-GEMM GFLOP/s rows for the SIMD lane tier vs the scalar engine vs
/// the naive reference.
pub fn write_bench_nn(batch: usize, rows: &[NnRow], gemm_rows: &[GemmRow]) {
    let value = serde_json::json!({
        "benchmark": "nn_throughput",
        "batch": batch,
        "simd_compiled": nn::simd::compiled(),
        "gemm_rows": gemm_rows.iter().map(|r| serde_json::json!({
            "m": r.m,
            "k": r.k,
            "n": r.n,
            "threads": r.threads,
            "reference_gflops": r.reference_gflops,
            "scalar_gflops": r.scalar_gflops,
            "simd_gflops": r.simd_gflops,
            "simd_speedup_vs_reference": if r.reference_gflops > 0.0 {
                r.simd_gflops / r.reference_gflops
            } else {
                0.0
            },
            "simd_speedup_vs_scalar": r.simd_gflops / r.scalar_gflops.max(1e-9),
            "bit_identical": r.bit_identical,
        })).collect::<Vec<_>>(),
        "rows": rows.iter().map(|r| serde_json::json!({
            "config": r.config,
            "threads": r.threads,
            "fwd_samples_per_sec": r.fwd_samples_per_sec,
            "bwd_samples_per_sec": r.bwd_samples_per_sec,
            "infer_samples_per_sec": r.infer_samples_per_sec,
            "fused_infer_samples_per_sec": r.fused_infer_samples_per_sec,
            "baseline_fwd_samples_per_sec": r.baseline_fwd_samples_per_sec,
            "fwd_speedup_vs_baseline":
                r.fwd_samples_per_sec / r.baseline_fwd_samples_per_sec.max(1e-9),
            "fused_speedup_vs_baseline":
                r.fused_infer_samples_per_sec / r.baseline_fwd_samples_per_sec.max(1e-9),
        })).collect::<Vec<_>>(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_nn.json");
    std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
        .expect("write BENCH_nn.json");
    println!("[artifact] {}", path.display());
}

/// One measured point of the `task_throughput` harness: evaluation
/// throughput for a `(task, backend)` pair.
#[derive(Clone, Debug)]
pub struct TaskRow {
    /// Circuit task id (`adder`, `prefix-or`, `incrementer`).
    pub task: String,
    /// Objective backend id (`analytical`, `synthesis`, `synthesis-power`).
    pub backend: String,
    /// Distinct graphs in the evaluation pool.
    pub graphs: usize,
    /// Evaluations executed (pool × rounds).
    pub evals: u64,
    /// Cold (uncached) evaluation throughput.
    pub evals_per_sec: f64,
    /// Throughput through the sharded cache once warm.
    pub cached_evals_per_sec: f64,
}

/// Dumps `BENCH_tasks.json` at the workspace root: evaluation throughput
/// per `(task, backend)` pair, cold and cache-warm, machine-readable so
/// future changes can track the pluggable-workload path against this file.
pub fn write_bench_tasks(n: u16, rows: &[TaskRow]) {
    let value = serde_json::json!({
        "benchmark": "task_backend_eval_throughput",
        "n": n,
        "rows": rows.iter().map(|r| serde_json::json!({
            "task": r.task,
            "backend": r.backend,
            "graphs": r.graphs,
            "evals": r.evals,
            "evals_per_sec": r.evals_per_sec,
            "cached_evals_per_sec": r.cached_evals_per_sec,
        })).collect::<Vec<_>>(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_tasks.json");
    std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
        .expect("write BENCH_tasks.json");
    println!("[artifact] {}", path.display());
}

/// One measured point of the `serve_throughput` harness: the resident
/// service under a burst of submitted jobs.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// Job worker threads.
    pub workers: usize,
    /// Jobs submitted in the burst.
    pub jobs: usize,
    /// Scalarization weights (agents) per job.
    pub weights_per_job: usize,
    /// Environment steps per agent.
    pub steps_per_agent: u64,
    /// Finished jobs per wall-clock second (submit of the first to
    /// completion of the last).
    pub jobs_per_sec: f64,
    /// Mean seconds from submit to the job's first streamed event.
    pub submit_to_first_event_sec_mean: f64,
    /// Worst-case submit-to-first-event latency in the burst.
    pub submit_to_first_event_sec_max: f64,
    /// Shared-store hit rate across *this row's* burst, computed from the
    /// hit/miss counter deltas between the burst's start and its drain —
    /// not the cumulative rate of whatever ran before on the stack.
    pub cache_hit_rate: f64,
    /// Cache hits this burst (the delta's numerator context).
    pub cache_hits: u64,
    /// Cache misses this burst.
    pub cache_misses: u64,
}

/// Dumps `BENCH_serve.json` at the workspace root: resident-service job
/// throughput and submit-to-first-event latency vs worker count,
/// machine-readable so future changes can track the serve path against
/// this file.
pub fn write_bench_serve(n: u16, rows: &[ServeRow]) {
    let value = serde_json::json!({
        "benchmark": "serve_job_throughput",
        "n": n,
        "rows": rows.iter().map(|r| serde_json::json!({
            "workers": r.workers,
            "jobs": r.jobs,
            "weights_per_job": r.weights_per_job,
            "steps_per_agent": r.steps_per_agent,
            "jobs_per_sec": r.jobs_per_sec,
            "submit_to_first_event_sec_mean": r.submit_to_first_event_sec_mean,
            "submit_to_first_event_sec_max": r.submit_to_first_event_sec_max,
            "cache_hit_rate": r.cache_hit_rate,
            "cache_hits": r.cache_hits,
            "cache_misses": r.cache_misses,
        })).collect::<Vec<_>>(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
        .expect("write BENCH_serve.json");
    println!("[artifact] {}", path.display());
}

/// One measured point of the `query_throughput` harness: the frontier
/// read tier (DESIGN.md §15) under concurrent lookup load.
#[derive(Clone, Debug)]
pub struct QueryRow {
    /// What was measured: `in_process_best_at_delay`,
    /// `in_process_best_at_weight`, `in_process_under_writer`,
    /// `wire_query`, or `wire_query_batch`.
    pub scenario: String,
    /// Concurrent reader threads (wire scenarios: one connection each).
    pub readers: usize,
    /// Total queries answered across all readers.
    pub queries: u64,
    /// Queries per wall-clock second, summed over readers.
    pub qps: f64,
    /// Worst single-query latency observed, µs (0 when not tracked) —
    /// the "reads never block on a merge" evidence in the writer
    /// scenario.
    pub max_latency_us: f64,
}

/// Dumps `BENCH_query.json` at the workspace root: snapshot lookup
/// throughput (in-process and wire-level) vs reader threads, plus reader
/// tail latency under a concurrent fsyncing writer — machine-readable so
/// the ≥1M lookups/sec read-tier budget is tracked against this file.
pub fn write_bench_query(points_in_front: usize, rows: &[QueryRow]) {
    let value = serde_json::json!({
        "benchmark": "frontier_query_throughput",
        "points_in_front": points_in_front,
        "rows": rows.iter().map(|r| serde_json::json!({
            "scenario": r.scenario.clone(),
            "readers": r.readers,
            "queries": r.queries,
            "qps": r.qps,
            "max_latency_us": r.max_latency_us,
        })).collect::<Vec<_>>(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_query.json");
    std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
        .expect("write BENCH_query.json");
    println!("[artifact] {}", path.display());
}

/// One measured point of the `cluster_throughput` harness: the sharded
/// serve cluster (DESIGN.md §16) under merge, routed-query, and failover
/// load.
#[derive(Clone, Debug)]
pub struct ClusterRow {
    /// What was measured: `merge_throughput`, `router_query_batch`,
    /// `single_node_query_batch`, `single_node_wire_query`, or
    /// `failover_read`.
    pub scenario: String,
    /// Serve shards participating.
    pub shards: usize,
    /// Operations completed (merges, queries, or failover reads).
    pub ops: u64,
    /// Operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Worst single-operation latency observed, µs (0 when not tracked).
    pub max_latency_us: f64,
    /// Operations that failed (must be 0 — failover reads included).
    pub failures: u64,
}

/// Dumps `BENCH_cluster.json` at the workspace root: aggregate merge
/// throughput vs shard count, router scatter/gather query rate vs the
/// single-node wire rate, and primary-kill failover read latency —
/// machine-readable so the ≥1.7× @ 3 shards merge-scaling budget and the
/// <1 s zero-failure failover budget are tracked against this file.
pub fn write_bench_cluster(n: u16, rows: &[ClusterRow], notes: &str) {
    let value = serde_json::json!({
        "benchmark": "cluster_throughput",
        "n": n,
        "notes": notes,
        "rows": rows.iter().map(|r| serde_json::json!({
            "scenario": r.scenario.clone(),
            "shards": r.shards,
            "ops": r.ops,
            "ops_per_sec": r.ops_per_sec,
            "max_latency_us": r.max_latency_us,
            "failures": r.failures,
        })).collect::<Vec<_>>(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json");
    std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
        .expect("write BENCH_cluster.json");
    println!("[artifact] {}", path.display());
}

/// Prints a named series of (area, delay) points as the paper's figures
/// tabulate them, in increasing delay order.
pub fn print_series(name: &str, points: &[(f64, f64)]) {
    println!("\n== {name} ==");
    println!("{:>12} {:>12}", "area", "delay");
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (area, delay) in sorted {
        println!("{area:>12.2} {delay:>12.4}");
    }
}

/// Prints a Pareto front with labels.
pub fn print_front<T: std::fmt::Display>(name: &str, front: &ParetoFront<T>) {
    println!("\n== {name} (Pareto front, {} points) ==", front.len());
    println!("{:>12} {:>12}  design", "area", "delay");
    for (p, label) in front.iter() {
        println!("{:>12.2} {:>12.4}  {label}", p.area, p.delay);
    }
}

/// Serializes a front for artifacts.
pub fn front_json<T: std::fmt::Display>(front: &ParetoFront<T>) -> serde_json::Value {
    serde_json::Value::Array(
        front
            .iter()
            .map(|(p, label)| {
                serde_json::json!({
                    "area": p.area,
                    "delay": p.delay,
                    "label": label.to_string(),
                })
            })
            .collect(),
    )
}

/// Compares two fronts with the paper's headline metric.
pub fn report_saving<A: std::fmt::Display, B: std::fmt::Display>(
    ours_name: &str,
    ours: &ParetoFront<A>,
    base_name: &str,
    base: &ParetoFront<B>,
) {
    match ours.max_area_saving_vs(base) {
        Some((saving, delay)) => println!(
            "{ours_name} vs {base_name}: max area saving {saving:.1}% at delay {delay:.4}; dominates = {}",
            ours.pareto_dominates(base)
        ),
        None => println!("{ours_name} vs {base_name}: no overlapping delay range"),
    }
}

/// Collects points from a front.
pub fn front_points<T>(front: &ParetoFront<T>) -> Vec<(f64, f64)> {
    front.points().iter().map(|p| (p.area, p.delay)).collect()
}

/// Inserts a labelled point set into a new front.
pub fn front_of(points: &[(ObjectivePoint, String)]) -> ParetoFront<String> {
    points.iter().cloned().collect()
}

/// Selects up to `limit` front members spread evenly across the delay range
/// (taking only the fastest members would drop the small-area end).
pub fn spread_front<T: Clone>(front: &ParetoFront<T>, limit: usize) -> Vec<(ObjectivePoint, T)> {
    let all: Vec<(ObjectivePoint, T)> = front.iter().map(|(p, t)| (*p, t.clone())).collect();
    if all.len() <= limit {
        return all;
    }
    (0..limit)
        .map(|i| {
            let idx = i * (all.len() - 1) / (limit - 1);
            all[idx].clone()
        })
        .collect()
}
