//! End-to-end benchmark of PrefixRL training and serving.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <train-sweep-16b|train-actors-16b|serve-mixed-16b|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run prints a human report (every end-to-end metric by name with
//! its unit, every failed check) and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`, as listed in
//! `BENCHMARK.json`. It exits non-zero when any correctness check failed.
//! `--workload all` runs each workload in a child process of its own, so
//! that process-wide figures such as the peak RSS are that workload's own,
//! and ends with `{"correct": <all passed>}`.

mod catalog;
mod replica;
mod report;
mod serve;
mod stats;
mod trace;
mod train;
mod wrappers;

use catalog::{catalog, Workload, WORKLOAD_METRICS};
use report::{cpu_ticks, peak_rss_mb, Report};
use serde_json::{Number, Value};
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: catalog().run_seconds,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn run(w: &Workload, args: &Args) -> Report {
    let t0 = Instant::now();
    let ticks0 = cpu_ticks();
    let mut report = (w.run)(args.seed, args.seconds, args.trace);
    if let (Some(a), Some(b)) = (ticks0, cpu_ticks()) {
        if b.1 > a.1 {
            report.set("host_steal_share", (b.0 - a.0) as f64 / (b.1 - a.1) as f64);
        }
    }
    if !report.values.contains_key("peak_rss_mb") {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    let attempted = report.attempted.max(1) as f64;
    report.set("failed_ratio", report.failed as f64 / attempted);
    report.set("run_wall_s", t0.elapsed().as_secs_f64());
    if args.trace {
        let path = trace::out_path(w.name, args.seed);
        match trace::tracer().write_jsonl(&path) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    }
    report
}

/// Prints the human report of one workload run to stdout.
fn print_human(w: &Workload, args: &Args, r: &Report) {
    println!(
        "== {} (seed {}, {} s, trace {}) ==",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &catalog().end_to_end {
        println!("  {:<24} {:>14.6} {}", m.name, r.get(&m.name), m.unit);
    }
    for m in WORKLOAD_METRICS
        .iter()
        .filter(|m| m.workloads.contains(&w.name))
    {
        match r.values.get(m.name) {
            Some(v) => println!("  {:<24} {:>14.6} {}", m.name, v, m.unit),
            None => println!("  {:<24} {:>14} {}", m.name, "n/a", m.unit),
        }
    }
    println!("  {:<24} {:>14} count", "attempted", r.attempted);
    println!("  {:<24} {:>14} count", "failed", r.failed);
    if args.trace {
        let per_layer = &catalog().per_layer;
        for m in per_layer {
            if let Some(v) = r.values.get(&m.name) {
                println!("  {:<34} {v:>14.6} {}", m.name, m.unit);
            }
        }
        let extra: Vec<_> = r
            .values
            .iter()
            .filter(|(k, _)| k.starts_with("trace.") && !per_layer.iter().any(|m| &m.name == *k))
            .collect();
        for (k, v) in extra {
            println!("  {k:<34} {v:>14.6}");
        }
        let shares = r.layer_shares();
        if !shares.is_empty() {
            let line: Vec<String> = shares
                .iter()
                .map(|(l, s)| format!("{l} {:.1}%", 100.0 * s))
                .collect();
            println!("  traced self-time share by layer: {}", line.join(", "));
        }
    }
    for n in &r.notes {
        println!("  note: {n}");
    }
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
}

fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// The final-line JSON object of one run.
fn result_json(r: &Report, trace: bool) -> Value {
    let listed = if trace {
        &catalog().per_layer
    } else {
        &catalog().end_to_end
    };
    let metrics: Vec<(String, Value)> = listed
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                serde_json::json!({"value": num(r.get(&m.name)), "unit": m.unit.as_str()}),
            )
        })
        .collect();
    serde_json::json!({
        "correct": r.failed == 0 && r.attempted > 0,
        "attempted": r.attempted.max(1),
        "failed": r.failed,
        "metrics": Value::Object(metrics),
    })
}

/// Runs every workload in a child process of its own and reports whether
/// all of them passed.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this binary: {e}");
            return false;
        }
    };
    let mut all_ok = true;
    for w in &catalog().workloads {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        let ok = matches!(&status, Ok(s) if s.success());
        if !ok {
            println!("  FAILED: {} exited with {status:?}", w.name);
        }
        all_ok &= ok;
    }
    all_ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" {
        let ok = run_all(&args);
        let line = serde_json::json!({"correct": ok});
        println!("{}", serde_json::to_string(&line).expect("infallible"));
        ok
    } else {
        let workloads = &catalog().workloads;
        let Some(w) = workloads.iter().find(|w| w.name == args.workload) else {
            let names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
            eprintln!(
                "error: unknown workload `{}` (expected one of: {}|all)",
                args.workload,
                names.join("|")
            );
            return ExitCode::from(2);
        };
        let r = run(w, &args);
        print_human(w, &args, &r);
        let line = result_json(&r, args.trace);
        println!("{}", serde_json::to_string(&line).expect("infallible"));
        r.failed == 0 && r.attempted > 0
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
