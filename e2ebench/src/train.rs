//! The two training workloads: `train-sweep-16b` (serial synthesis-in-the-
//! loop sweep of two agents) and `train-actors-16b` (one agent on the
//! async actor/learner runner with the inference broker).

use crate::replica::{self, ReplicaRecord};
use crate::report::{front_checks, hv_ratio, mix, peak_rss_mb, Report};
use crate::stats::median;
use crate::trace::{self, tracer};
use crate::wrappers::{fresh_store, traced_stack};
use prefix_graph::PrefixGraph;
use prefixrl_core::agent::AgentConfig;
use prefixrl_core::env::EnvConfig;
use prefixrl_core::evaluator::Evaluator;
use prefixrl_core::experiment::{
    CallbackObserver, CancelToken, Event, Experiment, ExperimentResult, Weights,
};
use prefixrl_core::pareto::ParetoFront;
use prefixrl_core::task::{
    Adder, AnalyticalBackend, ObjectiveBackend, SynthesisBackend, TaskEvaluator,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Input width of both training workloads.
const N: u16 = 16;
/// `train-sweep-16b`: the two agents' area weights.
const SWEEP_WEIGHTS: [f64; 2] = [0.25, 0.75];
/// `train-sweep-16b`: environment steps per agent (well past the
/// `min_replay` of 200 at which training starts).
pub const SWEEP_STEPS: u64 = 400;
/// `train-actors-16b`: environment steps per run (over both actors).
/// One async run's throughput varies by tens of percent with how the
/// actors, broker and learner share the cores, so a run is short (about a
/// second) and the end-to-end figures are medians over the twenty-odd runs
/// that fit in `--seconds`.
pub const ACTOR_STEPS: u64 = 10_000;
/// Set-up trials per run; `setup_s` is the median of these and of every
/// measured run's own set-up.
const SETUP_TRIALS: usize = 100;

/// One training workload's fixed shape.
#[derive(Clone, Copy)]
struct Shape {
    synthesis: bool,
    actors: usize,
}

const SWEEP: Shape = Shape {
    synthesis: true,
    actors: 1,
};
const ACTORS: Shape = Shape {
    synthesis: false,
    actors: 2,
};

impl Shape {
    fn weights(self) -> Vec<f64> {
        if self.synthesis {
            SWEEP_WEIGHTS.to_vec()
        } else {
            vec![0.5]
        }
    }

    fn steps(self) -> u64 {
        if self.synthesis {
            SWEEP_STEPS
        } else {
            ACTOR_STEPS
        }
    }

    /// A fresh backend, scoring at the sweep's median weight as the CLI
    /// does.
    fn backend(self) -> Arc<dyn ObjectiveBackend> {
        if self.synthesis {
            let w = self.weights();
            Arc::new(SynthesisBackend::new(
                netlist::Library::nangate45(),
                synth::sweep::SweepConfig::fast(),
                w[w.len() / 2],
            ))
        } else {
            Arc::new(AnalyticalBackend)
        }
    }

    fn experiment(self, seed: u64) -> Experiment {
        self.configure(seed).build()
    }

    fn configure(self, seed: u64) -> prefixrl_core::experiment::ExperimentBuilder {
        let mut base = AgentConfig::small(N, 0.5, self.steps());
        if self.synthesis {
            base.env = EnvConfig::synthesis(N);
        }
        Experiment::builder()
            .n(N)
            .weights(Weights::list(self.weights()))
            .steps(self.steps())
            .seed(seed)
            .base_config(base)
            .task(Arc::new(Adder))
            .backend(self.backend())
            .actors(self.actors)
            .batched_inference(true)
            .eval_threads(2)
    }
}

/// Event timestamps of one observed experiment run.
#[derive(Default)]
struct Timeline {
    first_step: Option<Instant>,
    /// Per agent: (first step, last step, env steps seen).
    agents: Vec<(Option<Instant>, Option<Instant>, u64)>,
    first_grad: Option<Instant>,
}

/// One measured experiment run.
struct Measured {
    result: ExperimentResult,
    wall_s: f64,
    setup_s: f64,
    timeline: Timeline,
}

/// Runs `exp` to completion, timing from `t0` (taken before `build`).
fn run_observed(exp: &Experiment, t0: Instant, agents: usize) -> Result<Measured, String> {
    let timeline = Mutex::new(Timeline {
        agents: vec![(None, None, 0); agents],
        ..Timeline::default()
    });
    let result = {
        let mut obs = CallbackObserver::new(|run, event: &Event| {
            let now = Instant::now();
            let mut t = timeline.lock().expect("timeline lock poisoned");
            match event {
                Event::Step { .. } => {
                    t.first_step.get_or_insert(now);
                    let a = &mut t.agents[run];
                    a.0.get_or_insert(now);
                    a.1 = Some(now);
                    a.2 += 1;
                }
                Event::GradStep { .. } => {
                    t.first_grad.get_or_insert(now);
                }
                _ => {}
            }
        });
        exp.run(&mut obs)?
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let timeline = timeline.into_inner().expect("timeline lock poisoned");
    let setup_s = timeline
        .first_step
        .map_or(wall_s, |f| (f - t0).as_secs_f64());
    Ok(Measured {
        result,
        wall_s,
        setup_s,
        timeline,
    })
}

/// Time from `build` to the first environment step, stopping the run
/// right there.
fn setup_trial(shape: Shape, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let token = CancelToken::new();
    let exp = shape.configure(seed).cancel_token(token.clone()).build();
    let first: Mutex<Option<Instant>> = Mutex::new(None);
    {
        let mut obs = CallbackObserver::new(|_, event: &Event| {
            if matches!(event, Event::Step { .. }) {
                first
                    .lock()
                    .expect("setup lock poisoned")
                    .get_or_insert_with(Instant::now);
                token.cancel();
            }
        });
        exp.run(&mut obs)?;
    }
    let first = first.into_inner().expect("setup lock poisoned");
    first
        .map(|f| (f - t0).as_secs_f64())
        .ok_or_else(|| "set-up trial never reached an environment step".to_string())
}

fn merged_points(front: &ParetoFront<PrefixGraph>) -> Vec<(f64, f64)> {
    front.iter().map(|(p, _)| (p.area, p.delay)).collect()
}

/// Canonical keys and point bits of a front, for exact comparison.
fn front_fingerprint(front: &ParetoFront<PrefixGraph>) -> Vec<(Vec<u64>, u64, u64)> {
    front
        .iter()
        .map(|(p, g)| (g.canonical_key(), p.area.to_bits(), p.delay.to_bits()))
        .collect()
}

fn measure_setup(shape: Shape, seed: u64, report: &mut Report) -> Vec<f64> {
    let mut setups = Vec::with_capacity(SETUP_TRIALS);
    for k in 0..SETUP_TRIALS {
        match setup_trial(shape, mix(seed, 1000 + k as u64)) {
            Ok(s) => setups.push(s),
            Err(e) => report.check(false, format!("set-up trial {k}: {e}")),
        }
    }
    setups
}

/// Per-run samples of one workload run; the end-to-end values are their
/// medians, so one run slowed by a noisy neighbour does not move them.
#[derive(Default)]
struct Totals {
    env_rates: Vec<f64>,
    grad_rates: Vec<f64>,
    walls: Vec<f64>,
    hv: Vec<f64>,
    first_rss_mb: f64,
}

impl Totals {
    fn add(&mut self, m: &Measured, report: &mut Report) {
        if self.walls.is_empty() {
            // Peak memory of one unit of work: later units would only add
            // allocator history, and their number depends on speed.
            self.first_rss_mb = peak_rss_mb();
        }
        let busy = m.wall_s - m.setup_s;
        let grads: usize = m.result.records.iter().map(|r| r.losses.len()).sum();
        // Summed over agents: each agent's steps over its own stepping
        // time, so an agent that finishes early adds no idle time.
        let rate: f64 = m
            .timeline
            .agents
            .iter()
            .filter_map(|&(first, last, steps)| {
                let span = last?.saturating_duration_since(first?).as_secs_f64();
                (steps > 1 && span > 0.0).then(|| (steps - 1) as f64 / span)
            })
            .sum();
        report.note(format!(
            "run {}: {:.3} s, set-up {:.4} s, {rate:.2} env steps/s after set-up",
            self.walls.len(),
            m.wall_s,
            m.setup_s,
        ));
        self.env_rates.push(rate);
        self.grad_rates.push(grads as f64 / busy);
        self.walls.push(m.wall_s);
    }

    fn finish(&self, report: &mut Report, setups: &[f64]) {
        if self.walls.is_empty() {
            return;
        }
        report.set("env_steps_per_s", median(&self.env_rates));
        report.set("grad_steps_per_s", median(&self.grad_rates));
        report.set("job_p50_s", median(&self.walls));
        if !self.hv.is_empty() {
            report.set("front_hv_ratio", median(&self.hv));
        }
        report.set("setup_s", median(setups));
        report.set("job_count", self.walls.len() as f64);
        report.set("peak_rss_mb", self.first_rss_mb);
    }
}

/// Checks a run's merged front: legal designs, exact re-scoring through a
/// fresh evaluator, and the hypervolume ratio against the regular
/// structures.
fn check_front(shape: Shape, m: &Measured, report: &mut Report) -> f64 {
    let front = m.result.merged_front();
    let fresh: Arc<dyn Evaluator> = Arc::new(TaskEvaluator::new(Arc::new(Adder), shape.backend()));
    front_checks(&front, fresh.as_ref(), report);
    hv_ratio(&merged_points(&front), N, fresh.as_ref())
}

/// `train-sweep-16b`.
pub fn sweep(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::new();
    let mut setups = measure_setup(SWEEP, seed, &mut report);
    if traced {
        traced_sweep(seed, &mut report, &mut setups);
        report.set("setup_s", median(&setups));
        return report;
    }
    // Sweeps run in pairs at one seed: a pair must produce the same
    // front, and both halves count as samples.
    let start = Instant::now();
    let mut totals = Totals::default();
    let mut first_of_pair = None;
    let mut k = 0u64;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        let (pair, rep) = (k / 2, k % 2);
        k += 1;
        let t0 = Instant::now();
        let exp = SWEEP.experiment(mix(seed, pair));
        let m = match run_observed(&exp, t0, SWEEP_WEIGHTS.len()) {
            Ok(m) => m,
            Err(e) => {
                report.check(false, format!("sweep {pair}/{rep}: {e}"));
                continue;
            }
        };
        report.check(
            m.result.completed,
            format!("sweep {pair}/{rep} completed its budget"),
        );
        setups.push(m.setup_s);
        totals.add(&m, &mut report);
        let fingerprint = front_fingerprint(&m.result.merged_front());
        if rep == 0 {
            let hv = check_front(SWEEP, &m, &mut report);
            // Only the first pair's front counts: how many pairs fit in a
            // run depends on speed; the front at a fixed budget must not.
            if pair == 0 {
                totals.hv.push(hv);
            }
            first_of_pair = Some(fingerprint);
        } else {
            report.check(
                first_of_pair.take() == Some(fingerprint),
                format!("sweep pair {pair}: same seed gives the same front"),
            );
        }
    }
    totals.finish(&mut report, &setups);
    report
}

/// The traced `train-sweep-16b` run: the traced replica of both agents
/// between two untraced sweeps at the same seed. The replica must match
/// the sweep bit for bit, the two sweeps must match each other, and their
/// mean throughput is the baseline of the tracing overhead.
fn traced_sweep(seed: u64, report: &mut Report, setups: &mut Vec<f64>) {
    let sweep_seed = mix(seed, 0);
    let untraced = |report: &mut Report, setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let exp = SWEEP.experiment(sweep_seed);
        match run_observed(&exp, t0, SWEEP_WEIGHTS.len()) {
            Ok(m) => {
                setups.push(m.setup_s);
                Some((exp, m))
            }
            Err(e) => {
                report.check(false, format!("untraced sweep: {e}"));
                None
            }
        }
    };
    let rate = |m: &Measured| m.result.total_steps() as f64 / (m.wall_s - m.setup_s);
    let Some((exp, m)) = untraced(report, setups) else {
        return;
    };
    experiment_layer(&m, report);
    check_front(SWEEP, &m, report);

    // The replica: the same agent configs over one traced cache shared by
    // both agents, run concurrently as the sweep runs them.
    let (cache_eval, _) = traced_stack(Arc::new(Adder), SWEEP.backend(), fresh_store());
    tracer().clear();
    tracer().enable();
    let t1 = Instant::now();
    let runs: Vec<(ReplicaRecord, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = exp
            .runs()
            .iter()
            .map(|run| {
                let cfg = run.cfg.clone();
                let eval = Arc::clone(&cache_eval);
                let id = run.id as u64;
                s.spawn(move || {
                    let t = Instant::now();
                    trace::set_request(id + 1);
                    let record = replica::run_agent(&cfg, Arc::new(Adder), eval);
                    (record, t.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica agent panicked"))
            .collect()
    });
    let traced_wall = t1.elapsed().as_secs_f64();
    tracer().disable();
    let thread_s: f64 = runs.iter().map(|r| r.1).sum();
    let records: Vec<ReplicaRecord> = runs.into_iter().map(|r| r.0).collect();
    let Some((_, again)) = untraced(report, setups) else {
        return;
    };
    report.check(
        front_fingerprint(&m.result.merged_front())
            == front_fingerprint(&again.result.merged_front()),
        "two sweeps at one seed give the same front",
    );
    let untraced_rate = 0.5 * (rate(&m) + rate(&again));
    for (rec, replica) in m.result.records.iter().zip(&records) {
        report.check(
            replica::bit_identical(&rec.designs, &rec.losses, replica),
            format!(
                "traced replica of agent {} is bit-identical to the untraced run \
                 ({} losses, {} designs)",
                rec.run,
                replica.losses.len(),
                replica.designs.len()
            ),
        );
    }
    let steps: u64 = records.iter().map(|r| r.steps).sum();
    let traced_rate = steps as f64 / traced_wall;
    report.layers_from_trace(traced_wall, thread_s);
    report.set("trace.untraced_env_steps_per_s", untraced_rate);
    report.set("trace.traced_env_steps_per_s", traced_rate);
    report.set("trace.overhead_ratio", untraced_rate / traced_rate - 1.0);
}

/// `experiment.*` and `parallel.*` from a run's event timestamps.
fn experiment_layer(m: &Measured, report: &mut Report) {
    let walls: Vec<f64> = m
        .timeline
        .agents
        .iter()
        .filter_map(|(a, b, _)| {
            Some((b.as_ref()?.saturating_duration_since(*a.as_ref()?)).as_secs_f64())
        })
        .collect();
    let ends: Vec<Instant> = m.timeline.agents.iter().filter_map(|a| a.1).collect();
    if !walls.is_empty() {
        report.set("experiment.agent_wall_s", median(&walls));
    }
    if let (Some(first), Some(last)) = (ends.iter().min(), ends.iter().max()) {
        report.set(
            "experiment.straggler_s",
            last.saturating_duration_since(*first).as_secs_f64(),
        );
    }
    let steps = m.result.total_steps() as f64;
    let grads: usize = m.result.records.iter().map(|r| r.losses.len()).sum();
    report.set("parallel.grad_per_env_step", grads as f64 / steps);
    if let (Some(s), Some(g)) = (m.timeline.first_step, m.timeline.first_grad) {
        report.set(
            "parallel.first_grad_s",
            g.saturating_duration_since(s).as_secs_f64(),
        );
    }
}

/// `train-actors-16b`.
pub fn actors(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::new();
    let mut setups = measure_setup(ACTORS, seed, &mut report);
    if traced {
        traced_actors(seed, &mut report, &mut setups);
        report.set("setup_s", median(&setups));
        return report;
    }
    let start = Instant::now();
    let mut totals = Totals::default();
    let mut k = 0u64;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let exp = ACTORS.experiment(mix(seed, k));
        match run_observed(&exp, t0, 1) {
            Ok(m) => {
                report.check(m.result.completed, format!("actor run {k} completed"));
                report.check(
                    m.result.total_steps() == ACTOR_STEPS,
                    format!("actor run {k} took exactly {ACTOR_STEPS} steps"),
                );
                setups.push(m.setup_s);
                totals.add(&m, &mut report);
                totals.hv.push(check_front(ACTORS, &m, &mut report));
            }
            Err(e) => report.check(false, format!("actor run {k}: {e}")),
        }
        k += 1;
    }
    totals.finish(&mut report, &setups);
    report
}

/// The traced `train-actors-16b` run: traced runs over a traced evaluation
/// stack alternating with untraced ones at the same seed. One async run's
/// throughput varies by tens of percent, so the tracing overhead compares
/// medians over several runs of each kind.
fn traced_actors(seed: u64, report: &mut Report, setups: &mut Vec<f64>) {
    const TRACED_RUNS: usize = 9;
    let run_seed = mix(seed, 0);
    let rate = |m: &Measured| m.result.total_steps() as f64 / (m.wall_s - m.setup_s);
    let mut untraced_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut traced_wall = 0.0;
    tracer().clear();
    for k in 0..=2 * TRACED_RUNS {
        let traced = k % 2 == 1;
        let t0 = Instant::now();
        let exp = if traced {
            let (_, (cache, service)) =
                traced_stack(Arc::new(Adder), ACTORS.backend(), fresh_store());
            tracer().enable();
            ACTORS
                .configure(run_seed)
                .eval_stack(cache, service)
                .build()
        } else {
            ACTORS.experiment(run_seed)
        };
        let m = run_observed(&exp, t0, 1);
        tracer().disable();
        let m = match m {
            Ok(m) => m,
            Err(e) => {
                report.check(false, format!("actor run {k} (traced: {traced}): {e}"));
                continue;
            }
        };
        report.check(m.result.completed, format!("actor run {k} completed"));
        setups.push(m.setup_s);
        if traced {
            traced_rates.push(rate(&m));
            traced_wall += m.wall_s;
            if traced_rates.len() == 1 {
                check_front(ACTORS, &m, report);
                experiment_layer(&m, report);
            }
        } else {
            untraced_rates.push(rate(&m));
        }
    }
    if traced_rates.is_empty() || untraced_rates.is_empty() {
        return;
    }
    report.layers_from_trace(traced_wall, traced_wall);
    let (untraced, traced) = (median(&untraced_rates), median(&traced_rates));
    report.set("trace.untraced_env_steps_per_s", untraced);
    report.set("trace.traced_env_steps_per_s", traced);
    report.set("trace.overhead_ratio", untraced / traced - 1.0);
}
