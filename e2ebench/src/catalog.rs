//! The benchmark's catalog. `BENCHMARK.json` at the repository root is the
//! only source of the workloads, the metric names and units, and the run
//! length; this module reads it at compile time and binds each workload
//! name to the function that runs it.

use crate::report::Report;
use serde_json::Value;
use std::sync::OnceLock;

/// One workload of `BENCHMARK.json` with the function that runs it.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Runs it: `(seed, seconds, traced)`.
    pub run: fn(u64, f64, bool) -> Report,
}

/// Every workload this binary can run; `BENCHMARK.json` picks and orders
/// them.
const RUNNERS: [Workload; 3] = [
    Workload {
        name: "train-sweep-16b",
        run: crate::train::sweep,
    },
    Workload {
        name: "train-actors-16b",
        run: crate::train::actors,
    },
    Workload {
        name: "serve-mixed-16b",
        run: crate::serve::serve,
    },
];

/// A metric of `BENCHMARK.json` (`end_to_end` or `per_layer`).
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// What the benchmark reads from `BENCHMARK.json`.
pub struct Catalog {
    /// Seconds one run measures by default.
    pub run_seconds: f64,
    /// Every workload, in run order.
    pub workloads: Vec<Workload>,
    /// The metrics of every untraced run's result line (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// The metrics of every traced run's result line (`--trace 1`). A
    /// layer a workload does not reach reads 0.
    pub per_layer: Vec<Metric>,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Value::String(s)) => Ok(s),
        _ => Err(format!("`{key}` is not a string in {v:?}")),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
}

fn metrics(v: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(v, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?.to_string(),
                unit: text(m, "unit")?.to_string(),
            })
        })
        .collect()
}

/// Parses `BENCHMARK.json` text.
fn parse(json: &str) -> Result<Catalog, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds = match v.get("run_seconds") {
        Some(Value::Number(n)) => n.as_f64(),
        _ => return Err("BENCHMARK.json has no `run_seconds`".to_string()),
    };
    let workloads = list(&v, "workloads")?
        .iter()
        .map(|w| {
            let name = text(w, "name")?;
            RUNNERS
                .into_iter()
                .find(|r| r.name == name)
                .ok_or_else(|| format!("no runner for workload `{name}`"))
        })
        .collect::<Result<_, String>>()?;
    Ok(Catalog {
        run_seconds,
        workloads,
        end_to_end: metrics(&v, "end_to_end")?,
        per_layer: metrics(&v, "per_layer")?,
    })
}

/// The catalog of the `BENCHMARK.json` this binary was built with.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed"))
}

/// An end-to-end metric only some workloads have: printed in the human
/// report and checked by the run, not part of the final JSON line.
pub struct WorkloadMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Workloads that report it.
    pub workloads: &'static [&'static str],
}

const TRAIN: &[&str] = &["train-sweep-16b", "train-actors-16b"];
const SERVE: &[&str] = &["serve-mixed-16b"];
const ALL: &[&str] = &["train-sweep-16b", "train-actors-16b", "serve-mixed-16b"];

/// Workload-specific end-to-end metrics.
pub const WORKLOAD_METRICS: &[WorkloadMetric] = &[
    WorkloadMetric {
        name: "grad_steps_per_s",
        unit: "1/s",
        workloads: TRAIN,
    },
    WorkloadMetric {
        name: "read_p50_ms.mid",
        unit: "ms",
        workloads: SERVE,
    },
    WorkloadMetric {
        name: "read_p99_ms.low",
        unit: "ms",
        workloads: SERVE,
    },
    WorkloadMetric {
        name: "read_p99_ms.mid",
        unit: "ms",
        workloads: SERVE,
    },
    WorkloadMetric {
        name: "read_p99_ms.high",
        unit: "ms",
        workloads: SERVE,
    },
    WorkloadMetric {
        name: "read_rate_ok",
        unit: "1/s",
        workloads: SERVE,
    },
    WorkloadMetric {
        name: "job_count",
        unit: "count",
        workloads: ALL,
    },
    WorkloadMetric {
        name: "failed_ratio",
        unit: "ratio",
        workloads: ALL,
    },
    WorkloadMetric {
        name: "run_wall_s",
        unit: "s",
        workloads: ALL,
    },
    WorkloadMetric {
        name: "host_steal_share",
        unit: "ratio",
        workloads: ALL,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_and_binds_every_workload() {
        let c = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(c.workloads.len(), 3);
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(c.per_layer.iter().any(|m| m.name == "trace.coverage"));
        assert!(c.run_seconds >= 1.0);
    }

    #[test]
    fn unknown_workload_is_refused() {
        let json = r#"{"run_seconds": 1, "workloads": [{"name": "nope", "why": ""}],
                      "end_to_end": [], "per_layer": []}"#;
        assert!(parse(json).err().is_some_and(|e| e.contains("nope")));
    }
}
