//! The `serve-mixed-16b` workload: an in-process `Server` with a real
//! state directory under open-loop writes (synthesis jobs) and open-loop
//! reads (`query`, `query_batch`, `frontier`) at three fixed rates.

use crate::replica;
use crate::report::{hv_ratio, mix, Report};
use crate::stats::{latency_from_due, median, OpenLoop, Summary};
use crate::trace::{self, span, tracer};
use crate::wrappers::{fresh_store, traced_stack};
use prefixrl_core::agent::AgentConfig;
use prefixrl_core::env::EnvConfig;
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::experiment::{Experiment, Weights};
use prefixrl_core::task::{self, CircuitTask, ObjectiveBackend, SynthesisBackend, TaskEvaluator};
use prefixrl_serve::protocol::PROTOCOL;
use prefixrl_serve::query::answer_query;
use prefixrl_serve::{Client, JobSpec, ServeConfig, Server, ServerHandle};
use rand::prelude::*;
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input width of every job and read.
const N: u16 = 16;
/// The tasks jobs rotate over.
const TASKS: [&str; 3] = ["adder", "prefix-or", "incrementer"];
const BACKEND: &str = "synthesis";
/// Each job's agents (weights) and steps per agent: below the `min_replay`
/// of 200, so jobs never take a gradient step.
const JOB_WEIGHTS: [f64; 2] = [0.25, 0.75];
const JOB_STEPS: u64 = 150;
/// Open-loop job submissions per second: about a third of the
/// single-worker capacity (about 1.5 jobs/s on the reference host). At 1
/// job/s a host slowed by its neighbours pushed the worker near saturation
/// and queueing doubled job latency; at this rate job latency follows the
/// job's own run time.
pub const JOB_RATE: f64 = 0.5;
/// Open-loop read rates (reads per second) of the three read phases.
pub const READ_RATES: [(&str, f64); 3] = [("low", 250.0), ("mid", 750.0), ("high", 2000.0)];
/// The read latency limit `read_rate_ok` holds the p99 to.
pub const READ_P99_LIMIT_MS: f64 = 10.0;
/// Lateness growth (first to last quarter of a phase) that marks a rate
/// as not sustained by the generator.
const LATENESS_SLACK_S: f64 = 0.005;
/// Queries per `query_batch` read.
const BATCH: usize = 8;
/// Set-up trials (server spawn to ready) before and again after the
/// measured phase. Set-up is mostly the write-ahead log's preallocation
/// fsync, whose latency drifts with the disk's other load, so the trials
/// are many and spread over the run.
const SETUP_TRIALS: usize = 24;
/// How long the warm-up jobs, and the jobs left queued when the writes
/// stop, may take to finish (the run must end within its time limit).
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Measured jobs replayed through the traced replica in the traced run.
const REPLICA_JOBS: usize = 6;

fn job_spec(task: &str, seed: u64) -> JobSpec {
    JobSpec {
        task: task.to_string(),
        backend: BACKEND.to_string(),
        n: N,
        weights: JOB_WEIGHTS.to_vec(),
        steps: JOB_STEPS,
        seed,
    }
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        eval_threads: 1,
        state_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Spawns a server over `dir` and waits until it answers; returns it with
/// the set-up time.
fn spawn(dir: &Path) -> Result<(ServerHandle, f64), String> {
    let t0 = Instant::now();
    let handle = Server::spawn(config(dir))?;
    Client::new(handle.addr().to_string()).wait_until_ready(Duration::from_secs(30))?;
    Ok((handle, t0.elapsed().as_secs_f64()))
}

/// The synthesis backend every job of this workload scores with: the
/// server binds it at the first job's median weight.
fn backend() -> Arc<dyn ObjectiveBackend> {
    Arc::new(SynthesisBackend::new(
        netlist::Library::nangate45(),
        synth::sweep::SweepConfig::fast(),
        JOB_WEIGHTS[JOB_WEIGHTS.len() / 2],
    ))
}

fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn f64_of(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// One front point as the `frontier` verb returns it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Pt {
    area: f64,
    delay: f64,
}

fn frontier_points(resp: &Value) -> Option<Vec<Pt>> {
    resp.get("points")?
        .as_array()?
        .iter()
        .map(|p| {
            Some(Pt {
                area: f64_of(p.get("area"))?,
                delay: f64_of(p.get("delay"))?,
            })
        })
        .collect()
}

/// A query request payload (`task`, `backend`, `n`, `mode`, parameters).
fn query_payload(task: &str, mode: &str, params: Vec<(&str, f64)>) -> Value {
    let mut fields = vec![
        ("task".to_string(), Value::String(task.to_string())),
        ("backend".to_string(), Value::String(BACKEND.to_string())),
        ("n".to_string(), Value::Number(Number::UInt(u64::from(N)))),
        ("mode".to_string(), Value::String(mode.to_string())),
    ];
    fields.extend(params.into_iter().map(|(k, v)| (k.to_string(), num(v))));
    Value::Object(fields)
}

/// A random query over `task` with delays drawn around `span`.
fn random_query(rng: &mut StdRng, task: &str, span: (f64, f64)) -> Value {
    let (lo, hi) = (0.9 * span.0, 1.1 * span.1);
    let delay = |rng: &mut StdRng| lo + (hi - lo) * rng.random::<f64>();
    match rng.random_range(0..3u32) {
        0 => query_payload(task, "best_at_delay", vec![("delay", delay(rng))]),
        1 => query_payload(task, "best_at_weight", vec![("w", rng.random::<f64>())]),
        _ => {
            let (a, b) = (delay(rng), delay(rng));
            query_payload(
                task,
                "range",
                vec![("delay_lo", a.min(b)), ("delay_hi", a.max(b))],
            )
        }
    }
}

/// Whether a query answer is well-formed for a key known to the store.
fn answer_ok(answer: &Value) -> bool {
    let known = answer.get("known") == Some(&Value::Bool(true));
    let found = answer.get("found") == Some(&Value::Bool(true));
    let is_range = answer.get("mode") == Some(&Value::String("range".to_string()));
    known && (found || is_range)
}

/// Everything one read thread observed.
#[derive(Default)]
struct ReadLog {
    /// Per phase: latencies from the due time, seconds.
    from_due: Vec<Vec<f64>>,
    /// Per phase: whether lateness grew; worst lateness.
    lateness_grew: Vec<bool>,
    late_max: f64,
    /// Client-side round trip per verb, seconds.
    verbs: BTreeMap<&'static str, Vec<f64>>,
    /// Every single-query payload sent (replayed through `answer_query`).
    queries: Vec<Value>,
    attempted: u64,
    failures: Vec<String>,
}

/// The read generator: three open-loop phases of `phase_s` seconds each.
fn reader(
    addr: String,
    start: Instant,
    phase_s: f64,
    seed: u64,
    spans: Vec<(f64, f64)>,
) -> ReadLog {
    let client = Client::new(addr);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = ReadLog::default();
    let mut k = 0u64;
    for (i, &(_, rate)) in READ_RATES.iter().enumerate() {
        let phase_start = start + Duration::from_secs_f64(phase_s * i as f64);
        let phase_end = phase_start + Duration::from_secs_f64(phase_s);
        let mut sched = OpenLoop::new(phase_start, rate);
        let mut lat = Vec::new();
        while sched.next_due() < phase_end {
            let due = sched.wait_next(Instant::now);
            let t = (k % TASKS.len() as u64) as usize;
            let task = TASKS[t];
            trace::set_request(k + 1);
            let sent = Instant::now();
            let (verb, outcome) = match k % 10 {
                0..=5 => {
                    let q = random_query(&mut rng, task, spans[t]);
                    let mut fields = vec![
                        ("proto".to_string(), Value::String(PROTOCOL.into())),
                        ("cmd".to_string(), Value::String("query".into())),
                    ];
                    if let Value::Object(f) = &q {
                        fields.extend(f.iter().cloned());
                    }
                    let r = {
                        let _s = span("server.query");
                        client.request(&Value::Object(fields))
                    };
                    log.queries.push(q);
                    (
                        "query",
                        r.and_then(|resp| {
                            resp.get("result")
                                .is_some_and(answer_ok)
                                .then_some(())
                                .ok_or(format!("bad answer {resp:?}"))
                        }),
                    )
                }
                6 | 7 => {
                    let qs: Vec<Value> = (0..BATCH)
                        .map(|j| {
                            let t = (k as usize + j) % TASKS.len();
                            random_query(&mut rng, TASKS[t], spans[t])
                        })
                        .collect();
                    let r = {
                        let _s = span("server.query_batch");
                        client.query_batch(qs)
                    };
                    (
                        "query_batch",
                        r.and_then(|resp| {
                            let results =
                                resp.get("results").and_then(Value::as_array).unwrap_or(&[]);
                            (results.len() == BATCH && results.iter().all(answer_ok))
                                .then_some(())
                                .ok_or(format!("bad batch answer {resp:?}"))
                        }),
                    )
                }
                _ => {
                    let r = {
                        let _s = span("server.frontier");
                        client.frontier(task, BACKEND, N)
                    };
                    (
                        "frontier",
                        r.and_then(|resp| {
                            (resp.get("known") == Some(&Value::Bool(true))
                                && frontier_points(&resp).is_some_and(|p| !p.is_empty()))
                            .then_some(())
                            .ok_or(format!("bad frontier answer {resp:?}"))
                        }),
                    )
                }
            };
            let done = Instant::now();
            log.attempted += 1;
            match outcome {
                Ok(()) => {
                    lat.push(latency_from_due(due, done));
                    log.verbs
                        .entry(verb)
                        .or_default()
                        .push((done - sent).as_secs_f64());
                }
                Err(e) => log.failures.push(format!("{verb} read {k}: {e}")),
            }
            k += 1;
        }
        log.from_due.push(lat);
        log.lateness_grew
            .push(sched.lateness_grew(LATENESS_SLACK_S));
        log.late_max = log.late_max.max(sched.late_max());
    }
    log
}

/// Everything the write thread observed.
#[derive(Default)]
struct WriteLog {
    /// `(job id, task index)` of every accepted submission.
    jobs: Vec<(u64, usize, u64)>,
    submit_s: Vec<f64>,
    list_s: Vec<f64>,
    queue_depth_max: u64,
    late_max: f64,
    attempted: u64,
    failures: Vec<String>,
}

/// The write generator: open-loop job submissions for `seconds`, sampling
/// the queue depth with `list` after each one.
fn writer(addr: String, start: Instant, seconds: f64, seed: u64, first_job: u64) -> WriteLog {
    let client = Client::new(addr);
    let mut sched = OpenLoop::new(start, JOB_RATE);
    let end = start + Duration::from_secs_f64(seconds);
    let mut log = WriteLog::default();
    let mut k = first_job;
    while sched.next_due() < end {
        sched.wait_next(Instant::now);
        let t = (k % TASKS.len() as u64) as usize;
        let job_seed = mix(seed, 100 + k);
        let sent = Instant::now();
        log.attempted += 1;
        match client.submit(&job_spec(TASKS[t], job_seed)) {
            Ok(id) => {
                log.submit_s.push(sent.elapsed().as_secs_f64());
                log.jobs.push((id, t, job_seed));
            }
            Err(e) => log.failures.push(format!("submit {k}: {e}")),
        }
        let sent = Instant::now();
        if let Ok(jobs) = client.list() {
            log.list_s.push(sent.elapsed().as_secs_f64());
            let active = jobs
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter(|j| {
                    matches!(
                        j.get("phase"),
                        Some(Value::String(p)) if p == "queued" || p == "running"
                    )
                })
                .count() as u64;
            log.queue_depth_max = log.queue_depth_max.max(active);
        }
        k += 1;
    }
    log.late_max = sched.late_max();
    log
}

/// Independent answers from a front's points (sorted by delay).
/// Delay comparisons carry the query tier's documented `DELAY_EPS` slack
/// (fronts can hold points one ulp apart in delay).
mod oracle {
    use super::Pt;
    use prefixrl_serve::query::DELAY_EPS;

    pub fn best_at_delay(points: &[Pt], x: f64) -> (Pt, bool) {
        match points.iter().rev().find(|p| p.delay <= x + DELAY_EPS) {
            Some(p) => (*p, true),
            None => (points[0], false),
        }
    }

    pub fn best_at_weight(points: &[Pt], w: f64) -> Pt {
        let first = points[0];
        let last = points[points.len() - 1];
        let (a_min, a_span) = (last.area, first.area - last.area);
        let (d_min, d_span) = (first.delay, last.delay - first.delay);
        let norm = |v: f64, min: f64, span: f64| if span > 0.0 { (v - min) / span } else { 0.0 };
        let mut best = (0, f64::INFINITY);
        for (i, p) in points.iter().enumerate() {
            let v = w * norm(p.area, a_min, a_span) + (1.0 - w) * norm(p.delay, d_min, d_span);
            if v < best.1 {
                best = (i, v);
            }
        }
        points[best.0]
    }

    pub fn range(points: &[Pt], lo: f64, hi: f64) -> Vec<Pt> {
        points
            .iter()
            .copied()
            .filter(|p| lo - DELAY_EPS <= p.delay && p.delay <= hi + DELAY_EPS)
            .collect()
    }
}

/// The point of a query answer.
fn answer_point(answer: &Value) -> Option<Pt> {
    let p = answer.get("point")?;
    Some(Pt {
        area: f64_of(p.get("area"))?,
        delay: f64_of(p.get("delay"))?,
    })
}

/// The quiescent end-of-run grid: every query answer must match the one
/// recomputed from the `frontier` verb's points.
fn grid_check(client: &Client, task: &str, points: &[Pt], report: &mut Report) {
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.delay.total_cmp(&b.delay));
    // Delays strictly between front points (and beyond both ends), so no
    // grid delay sits on a boundary.
    let mut delays = vec![sorted[0].delay * 0.5];
    delays.extend(sorted.windows(2).map(|w| 0.5 * (w[0].delay + w[1].delay)));
    delays.push(sorted[sorted.len() - 1].delay * 1.5);
    let result = |r: Result<Value, String>| r.ok().and_then(|v| v.get("result").cloned());
    for &x in &delays {
        let got = result(client.query_best_at_delay(task, BACKEND, N, x));
        let want = oracle::best_at_delay(&sorted, x);
        let ok = got.as_ref().is_some_and(|a| {
            answer_point(a) == Some(want.0) && a.get("met") == Some(&Value::Bool(want.1))
        });
        report.check(
            ok,
            format!("{task}: best_at_delay({x}) = {got:?}, front gives {want:?} of {sorted:?}"),
        );
    }
    for i in 0..=10 {
        let w = f64::from(i) / 10.0;
        let got = result(client.query_best_at_weight(task, BACKEND, N, w));
        let want = oracle::best_at_weight(&sorted, w);
        let ok = got.is_some_and(|a| answer_point(&a) == Some(want));
        report.check(ok, format!("{task}: best_at_weight({w}) matches {want:?}"));
    }
    for (i, &lo) in delays.iter().enumerate() {
        let hi = delays[(i + 3).min(delays.len() - 1)];
        let got = result(client.query_range(task, BACKEND, N, lo, hi));
        let want = oracle::range(&sorted, lo, hi);
        let ok = got.and_then(|a| frontier_points(&a)).as_deref() == Some(&want[..]);
        report.check(ok, format!("{task}: range({lo}, {hi}) matches {want:?}"));
    }
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

/// `serve-mixed-16b`.
pub fn serve(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::new();
    let root = PathBuf::from(".bench_build")
        .join("e2ebench")
        .join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = serve_in(&root, seed, seconds, traced, &mut report);
    let _ = std::fs::remove_dir_all(&root);
    if let Err(e) = result {
        report.check(false, format!("serve workload: {e}"));
    }
    report
}

fn serve_in(
    root: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let setup_trials = |first: usize, setups: &mut Vec<f64>| -> Result<(), String> {
        for k in first..first + SETUP_TRIALS {
            let (handle, s) = spawn(&root.join(format!("setup-{k}")))?;
            setups.push(s);
            handle.shutdown()?;
        }
        Ok(())
    };
    let mut setups = Vec::new();
    setup_trials(0, &mut setups)?;
    let (handle, s) = spawn(&root.join("main"))?;
    setups.push(s);
    let addr = handle.addr().to_string();
    let client = Client::new(addr.clone());
    let outcome = drive(&handle, &client, seed, seconds, traced, report);
    handle.shutdown()?;
    setup_trials(SETUP_TRIALS, &mut setups)?;
    report.set("setup_s", median(&setups));
    outcome
}

/// Waits until job `id` is in a terminal phase, giving up at `deadline`.
fn wait_finished(client: &Client, id: u64, deadline: Instant) -> Result<Value, String> {
    let left = deadline.saturating_duration_since(Instant::now());
    client.wait_for_phase(
        id,
        &["done", "failed", "cancelled"],
        left.max(Duration::from_millis(100)),
    )
}

fn drive(
    handle: &ServerHandle,
    client: &Client,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    // Warm-up: one job per task, so every read hits a known key.
    let mut warm = Vec::new();
    for (t, task) in TASKS.iter().enumerate() {
        let job_seed = mix(seed, t as u64);
        warm.push((client.submit(&job_spec(task, job_seed))?, t, job_seed));
    }
    let deadline = Instant::now() + DRAIN_LIMIT;
    for &(id, _, _) in &warm {
        let s = wait_finished(client, id, deadline)?;
        report.check(
            s.get("phase") == Some(&Value::String("done".into())),
            format!("warm-up job {id} done"),
        );
    }
    let mut spans = Vec::new();
    for task in TASKS {
        let pts = frontier_points(&client.frontier(task, BACKEND, N)?)
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("no front for {task} after warm-up"))?;
        let lo = pts.iter().map(|p| p.delay).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.delay).fold(0.0, f64::max);
        spans.push((lo, hi));
    }

    // Measured phase: writes and reads from two threads, two connections.
    if traced {
        tracer().clear();
        tracer().enable();
    }
    let start = Instant::now() + Duration::from_millis(20);
    let phase_s = seconds / READ_RATES.len() as f64;
    let (wlog, rlog) = std::thread::scope(|s| {
        let w = {
            let addr = client.addr().to_string();
            s.spawn(move || writer(addr, start, seconds, seed, TASKS.len() as u64))
        };
        let r = {
            let addr = client.addr().to_string();
            let spans = spans.clone();
            s.spawn(move || reader(addr, start, phase_s, mix(seed, 7), spans))
        };
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    if traced {
        tracer().disable();
        // The replica phase below starts a fresh trace; keep the reads'.
        let path = trace::out_path("serve-mixed-16b-reads", seed);
        if let Err(e) = tracer().write_jsonl(&path) {
            report.note(format!("read spans not written: {e}"));
        }
    }

    // Drain: every job must reach `done`.
    let mut elapsed = Vec::new();
    let mut queue_wait = Vec::new();
    let mut run_s = Vec::new();
    // Per task: (submit→done, run time) of each job.
    let mut by_task: [(Vec<f64>, Vec<f64>); TASKS.len()] = Default::default();
    let mut status_s = Vec::new();
    let deadline = Instant::now() + DRAIN_LIMIT;
    for &(id, t, _) in &wlog.jobs {
        let r = wait_finished(client, id, deadline);
        let sent = Instant::now();
        let status = r.and_then(|_| client.status(id, 0));
        status_s.push(sent.elapsed().as_secs_f64());
        let done = status
            .as_ref()
            .is_ok_and(|s| s.get("phase") == Some(&Value::String("done".into())));
        report.check(done, format!("job {id} reached done: {status:?}"));
        if let Ok(s) = status {
            if let (Some(e), Some(f)) = (
                f64_of(s.get("elapsed_sec")),
                f64_of(s.get("submit_to_first_event_sec")),
            ) {
                elapsed.push(e);
                queue_wait.push(f);
                run_s.push(e - f);
                by_task[t].0.push(e);
                by_task[t].1.push(e - f);
            }
        }
    }
    for f in &wlog.failures {
        report.check(false, f.clone());
    }
    report.attempted += wlog.attempted - wlog.failures.len() as u64;
    for f in &rlog.failures {
        report.check(false, f.clone());
    }
    report.attempted += rlog.attempted - rlog.failures.len() as u64;

    // End-to-end values.
    let steps_per_job = (JOB_WEIGHTS.len() as u64 * JOB_STEPS) as f64;
    let tasks_run: Vec<_> = by_task.iter().filter(|(e, _)| !e.is_empty()).collect();
    if !tasks_run.is_empty() {
        // A job's run time depends mostly on its task (an adder job runs
        // about three times as long as a prefix-or job), so the median
        // over all jobs jumps between tasks with the job mix. Per-task
        // medians do not: the latency is their mean, the throughput that
        // of one job per task.
        let latency: f64 = tasks_run.iter().map(|(e, _)| median(e)).sum();
        let run: f64 = tasks_run.iter().map(|(_, r)| median(r)).sum();
        let k = tasks_run.len() as f64;
        report.set("job_p50_s", latency / k);
        report.set("env_steps_per_s", steps_per_job * k / run);
        let line: Vec<String> = TASKS
            .iter()
            .zip(&by_task)
            .filter(|(_, (e, _))| !e.is_empty())
            .map(|(task, (e, r))| format!("{task} {:.3} s / {:.3} s", median(e), median(r)))
            .collect();
        report.note(format!(
            "median job latency / run time by task: {}",
            line.join(", ")
        ));
    }
    if !elapsed.is_empty() {
        report.set("job_count", elapsed.len() as f64);
        report.note(format!(
            "job latency (submit→done): {}",
            Summary::of(&elapsed).render("s")
        ));
    }
    let mut rate_ok = 0.0;
    for (i, &(name, rate)) in READ_RATES.iter().enumerate() {
        let lat = &rlog.from_due[i];
        let summary = Summary::of(lat);
        report.note(format!(
            "reads at {name} ({rate}/s): {}{}",
            Summary::of(&lat.iter().map(|v| ms(*v)).collect::<Vec<_>>()).render("ms"),
            if rlog.lateness_grew[i] {
                ", generator lateness grew"
            } else {
                ""
            }
        ));
        if name == "mid" {
            if let Some(p50) = summary.p50 {
                report.set("read_p50_ms.mid", ms(p50));
            }
        }
        let p99 = Summary::at(lat, 99.0);
        if let Some(p99) = p99 {
            report.set(format!("read_p99_ms.{name}"), ms(p99));
        }
        if p99.is_some_and(|v| ms(v) <= READ_P99_LIMIT_MS) && !rlog.lateness_grew[i] {
            rate_ok = rate;
        }
    }
    report.set("read_rate_ok", rate_ok);

    // Per-layer values seen from the client.
    let mut verbs = rlog.verbs;
    verbs.insert("submit", wlog.submit_s.clone());
    verbs.insert("status", status_s);
    for (verb, lat) in &verbs {
        let s = Summary::of(lat);
        report.set(format!("server.{verb}.count"), s.count as f64);
        if let Some(p50) = s.p50 {
            report.set(format!("server.{verb}.p50_ms"), ms(p50));
        }
        if let Some((_, v)) = s.tail {
            report.set(format!("server.{verb}.tail_ms"), ms(v));
        }
    }
    if !queue_wait.is_empty() {
        report.set("jobs.queue_wait_p50_s", median(&queue_wait));
        report.set("jobs.run_p50_s", median(&run_s));
    }
    report.set("jobs.queue_depth_max", wlog.queue_depth_max as f64);
    report.set("gen.late_max_ms", ms(wlog.late_max.max(rlog.late_max)));
    let ping = client.ping()?;
    let frontier = ping.get("frontier");
    report.set(
        "store.epochs",
        f64_of(frontier.and_then(|f| f.get("epoch"))).unwrap_or(0.0),
    );
    report.set(
        "store.wal_records",
        f64_of(frontier.and_then(|f| f.get("wal_records"))).unwrap_or(0.0),
    );
    report.set(
        "store.compactions",
        f64_of(frontier.and_then(|f| f.get("compactions"))).unwrap_or(0.0),
    );

    // Quiescent grid and front quality.
    let mut hv = Vec::new();
    for task_name in TASKS {
        let pts = frontier_points(&client.frontier(task_name, BACKEND, N)?).unwrap_or_default();
        report.check(
            !pts.is_empty(),
            format!("{task_name}: stored front is non-empty"),
        );
        if pts.is_empty() {
            continue;
        }
        grid_check(client, task_name, &pts, report);
        let task = task::by_name(task_name).expect("built-in task");
        let fresh = TaskEvaluator::new(Arc::clone(&task), backend());
        let xy: Vec<(f64, f64)> = pts.iter().map(|p| (p.area, p.delay)).collect();
        hv.push(hv_ratio(&xy, N, &fresh));
    }
    if !hv.is_empty() {
        report.set("front_hv_ratio", hv.iter().sum::<f64>() / hv.len() as f64);
    }

    if traced {
        // `answer_query` on the same requests, against the final snapshot.
        let snapshot = handle.jobs().store().snapshot();
        let mut answer_s = Vec::with_capacity(rlog.queries.len());
        for q in &rlog.queries {
            let t = Instant::now();
            let r = answer_query(&snapshot, q);
            answer_s.push(t.elapsed().as_secs_f64());
            report.check(r.is_ok(), "in-process answer_query succeeds");
        }
        if !answer_s.is_empty() {
            let answer_p50 = median(&answer_s);
            report.set("query.answer.p50_us", answer_p50 * 1e6);
            report.set(
                "query.wire_self_p50_ms",
                report.get("server.query.p50_ms") - ms(answer_p50),
            );
        }
        let replay: Vec<(usize, u64)> = warm
            .iter()
            .chain(wlog.jobs.iter().take(REPLICA_JOBS))
            .map(|&(_, t, s)| (t, s))
            .collect();
        replica_jobs(&replay, report);
    }
    Ok(())
}

/// Replays jobs through the traced replica over one shared cache store,
/// as the server's single worker ran them, attributing a job's run time
/// to the layers.
fn replica_jobs(jobs: &[(usize, u64)], report: &mut Report) {
    let store = fresh_store();
    let stacks: Vec<(Arc<dyn CircuitTask>, Arc<dyn Evaluator>)> = TASKS
        .iter()
        .map(|name| {
            let task = task::by_name(name).expect("built-in task");
            let (eval, _) = traced_stack(Arc::clone(&task), backend(), Arc::clone(&store));
            (task, eval)
        })
        .collect();
    tracer().clear();
    tracer().enable();
    let t0 = Instant::now();
    for (i, &(t, seed)) in jobs.iter().enumerate() {
        let (task, eval) = &stacks[t];
        let mut base = AgentConfig::small(N, 0.5, JOB_STEPS);
        base.env = EnvConfig::synthesis(N);
        let exp = Experiment::builder()
            .n(N)
            .weights(Weights::list(JOB_WEIGHTS.to_vec()))
            .steps(JOB_STEPS)
            .seed(seed)
            .base_config(base)
            .task(Arc::clone(task))
            .backend(backend())
            .build();
        trace::set_request(i as u64 + 1);
        let _job = span("jobs.run");
        for run in exp.runs() {
            replica::run_agent(&run.cfg, Arc::clone(task), Arc::clone(eval));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    tracer().disable();
    report.layers_from_trace(wall, wall);
    report.set("trace.replica_jobs", jobs.len() as f64);
    let steps = (jobs.len() as u64 * JOB_WEIGHTS.len() as u64 * JOB_STEPS) as f64;
    report.set("trace.traced_env_steps_per_s", steps / wall);
    report.set(
        "trace.untraced_env_steps_per_s",
        report.get("env_steps_per_s"),
    );
}
