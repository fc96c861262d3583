//! Experiment sessions: builder-configured weight sweeps, run events, and
//! checkpoint/resume (DESIGN.md §10).
//!
//! The paper's headline result is an *ensemble*: 15 Double-DQN agents over
//! `w_area ∈ [0.10, 0.99]` whose visited designs merge into the Fig. 4
//! fronts, all sharing the Section IV-D evaluation cache. This module is
//! the session layer that makes that shape first-class:
//!
//! - [`Experiment`] — built with [`Experiment::builder`], owns the shared
//!   [`CachedEvaluator`]/[`EvalService`] stack and a [`Run`] handle per
//!   scalarization weight; running it fans agents out over the service's
//!   thread budget so the cross-agent cache sharing actually happens
//!   in-process.
//! - [`Runner`] — the one training-loop abstraction. [`SerialRunner`]
//!   (deterministic, checkpointable) and [`AsyncRunner`] (actor/learner
//!   threads, see [`crate::parallel`]) both implement it.
//! - [`RunObserver`] + [`Event`] — a streaming event interface replacing
//!   the return-everything-at-the-end result blob: per-step, per-gradient,
//!   per-episode, per-design, and per-checkpoint events, with
//!   callback-backed ([`CallbackObserver`]) and channel-backed
//!   ([`ChannelObserver`]) sinks.
//! - [`ExperimentResult`] — per-agent [`RunRecord`]s, the merged Pareto
//!   front, and shared-cache statistics, with one JSON schema
//!   (`prefixrl.experiment.v1`) for single runs and sweeps alike.
//!
//! Checkpointing (see [`crate::checkpoint`]) makes a killed sweep restart
//! where it stopped and produce bit-identical designs and losses to an
//! uninterrupted run.

use crate::agent::{AgentConfig, TrainLoop};
use crate::cache::{CacheConfig, CachedEvaluator};
use crate::checkpoint::{Checkpoint, RunState, SweepCheckpoint};
use crate::env::{EnvConfig, PrefixEnv};
use crate::evalsvc::EvalService;
use crate::evaluator::{Evaluator, ObjectivePoint};
use crate::pareto::ParetoFront;
use crate::qnet::PrefixQNet;
use crate::task::{self, Adder, AnalyticalBackend, CircuitTask, ObjectiveBackend, TaskEvaluator};
use parking_lot::Mutex;
use prefix_graph::PrefixGraph;
use rand::prelude::*;
use rl::DoubleDqn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------- events

/// One observation from a training run, streamed as it happens.
#[derive(Clone, Debug)]
pub enum Event {
    /// An environment step was taken.
    Step {
        /// Environment step index (0-based).
        step: u64,
        /// Exploration ε used for this step.
        epsilon: f64,
        /// Scaled reward vector `[r_area, r_delay]`.
        reward: [f32; 2],
    },
    /// A gradient step completed.
    GradStep {
        /// Gradient step count (1-based).
        grad_step: u64,
        /// Scalar Huber loss.
        loss: f32,
    },
    /// An episode hit its truncation budget.
    EpisodeEnd {
        /// Completed-episode count (1-based).
        episode: usize,
        /// Scalarized return of the episode.
        scalarized_return: f64,
    },
    /// A design not seen before by this run entered the pool.
    DesignFound {
        /// Environment step at which it was found.
        step: u64,
        /// Its evaluated objectives.
        point: ObjectivePoint,
        /// Prefix-graph node count.
        size: usize,
        /// Prefix-graph depth.
        depth: usize,
    },
    /// A checkpoint of the run was captured.
    CheckpointSaved {
        /// Environment step the checkpoint covers.
        step: u64,
    },
}

/// A sink for [`Event`]s, tagged with the emitting run's id.
///
/// Observers must be `Send`: a sweep calls one observer from several agent
/// threads (serialized behind a lock).
pub trait RunObserver: Send {
    /// Receives one event from run `run`.
    fn on_event(&mut self, run: usize, event: &Event);
}

/// Discards every event (the default sink).
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn on_event(&mut self, _run: usize, _event: &Event) {}
}

/// Calls a closure on every event.
pub struct CallbackObserver<F: FnMut(usize, &Event) + Send> {
    f: F,
}

impl<F: FnMut(usize, &Event) + Send> CallbackObserver<F> {
    /// Wraps `f` as an observer.
    pub fn new(f: F) -> Self {
        CallbackObserver { f }
    }
}

impl<F: FnMut(usize, &Event) + Send> RunObserver for CallbackObserver<F> {
    fn on_event(&mut self, run: usize, event: &Event) {
        (self.f)(run, event)
    }
}

/// Streams `(run, event)` pairs over a bounded channel, decoupling event
/// consumers (logging, UIs) from the training threads.
pub struct ChannelObserver {
    tx: crossbeam::channel::Sender<(usize, Event)>,
}

impl ChannelObserver {
    /// Creates an observer and the receiving end of its channel.
    ///
    /// Events are dropped (not blocked on) once the receiver disconnects;
    /// while connected, a full channel applies back-pressure.
    pub fn bounded(capacity: usize) -> (Self, crossbeam::channel::Receiver<(usize, Event)>) {
        let (tx, rx) = crossbeam::channel::bounded(capacity);
        (ChannelObserver { tx }, rx)
    }
}

impl RunObserver for ChannelObserver {
    fn on_event(&mut self, run: usize, event: &Event) {
        // A disconnected receiver means nobody is listening; training
        // continues unobserved rather than failing.
        let _ = self.tx.send((run, event.clone()));
    }
}

// ---------------------------------------------------------------- cancel

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TokenState {
    Running,
    Paused,
    Cancelled,
}

struct TokenInner {
    state: std::sync::Mutex<TokenState>,
    wake: std::sync::Condvar,
}

/// A cooperative cancel/pause handle threaded through every [`Runner`].
///
/// Cloning is cheap (clones share one state) and any clone may flip it.
/// Runners poll the token between environment steps (serial) or decision
/// rounds (async), so [`CancelToken::cancel`] stops a run within one event
/// tick: the serial runner saves a checkpoint exactly as `halt_at` does
/// (the run stays resumable), the async runner drains its actors and
/// returns the partial record. [`CancelToken::pause`] blocks the training
/// threads at the same poll points without losing any state until
/// [`CancelToken::resume`]; cancelling also wakes paused runs so they can
/// exit. Cancellation is permanent — a cancelled token never resumes.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh token in the running state.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                state: std::sync::Mutex::new(TokenState::Running),
                wake: std::sync::Condvar::new(),
            }),
        }
    }

    fn state(&self) -> TokenState {
        *self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set(&self, to: TokenState) {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        // Cancellation is sticky: pause/resume after cancel are no-ops.
        if *state != TokenState::Cancelled || to == TokenState::Cancelled {
            *state = to;
        }
        drop(state);
        self.inner.wake.notify_all();
    }

    /// Requests cancellation; observed within one step/decision round.
    pub fn cancel(&self) {
        self.set(TokenState::Cancelled);
    }

    /// Requests a pause; runs block at their next poll point.
    pub fn pause(&self) {
        self.set(TokenState::Paused);
    }

    /// Resumes a paused token (no-op if cancelled).
    pub fn resume(&self) {
        self.set(TokenState::Running);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.state() == TokenState::Cancelled
    }

    /// Whether the token is currently paused.
    pub fn is_paused(&self) -> bool {
        self.state() == TokenState::Paused
    }

    /// The runner-side poll: blocks while paused, then reports whether the
    /// run should stop (`true` = cancelled).
    pub fn wait_while_paused(&self) -> bool {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        while *state == TokenState::Paused {
            state = self
                .inner
                .wake
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        *state == TokenState::Cancelled
    }
}

// --------------------------------------------------------------- weights

/// The scalarization-weight schedule of a sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Weights(Vec<f64>);

impl Weights {
    /// A single weight.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ w ≤ 1`.
    pub fn single(w: f64) -> Self {
        Self::list(vec![w])
    }

    /// An explicit weight list.
    ///
    /// Duplicate weights are **rejected loudly**, not silently deduped: a
    /// duplicate would spawn a redundant agent that burns a full sweep
    /// slot and double-counts its designs in the merged front, and a
    /// silent dedupe would shift the run-id ↔ weight mapping under the
    /// caller. Callers generating weights programmatically should use
    /// [`Weights::try_list`] (same validation, recoverable error) or
    /// [`Weights::linspace`] (which collapses float-equal points itself).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, any weight lies outside `[0, 1]`, or
    /// the list contains duplicates.
    pub fn list(ws: Vec<f64>) -> Self {
        Self::try_list(ws).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The non-panicking form of [`Weights::list`], for callers validating
    /// untrusted input (the serve protocol, CLI flags).
    ///
    /// # Errors
    ///
    /// Fails if the list is empty, any weight lies outside `[0, 1]`, or
    /// the list contains (float-equal) duplicates.
    pub fn try_list(ws: Vec<f64>) -> Result<Self, String> {
        if ws.is_empty() {
            return Err("need at least one weight".to_string());
        }
        for &w in &ws {
            if !(0.0..=1.0).contains(&w) {
                return Err(format!("weight {w} outside [0, 1]"));
            }
        }
        for i in 0..ws.len() {
            for j in (i + 1)..ws.len() {
                if ws[i] == ws[j] {
                    return Err(format!(
                        "duplicate weight {} (positions {i} and {j}): each agent \
                         must train a distinct scalarization — a duplicate burns \
                         a sweep slot and double-counts in the merged front",
                        ws[i]
                    ));
                }
            }
        }
        Ok(Weights(ws))
    }

    /// `k` weights linearly spaced over `[lo, hi]` (the paper uses
    /// `linspace(0.10, 0.99, 15)`); `k = 1` yields `lo`.
    ///
    /// Float-equal neighbours are collapsed, so a degenerate range
    /// (`linspace(0.5, 0.5 + 1e-18, 3)`, where every point rounds to the
    /// same f64) yields *fewer than `k`* weights rather than duplicate
    /// agents; the endpoints themselves are always preserved.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `lo > hi`, or either endpoint is outside
    /// `[0, 1]`.
    pub fn linspace(lo: f64, hi: f64, k: usize) -> Self {
        assert!(k > 0, "need at least one weight");
        assert!(lo <= hi, "empty weight range");
        if k == 1 {
            return Self::single(lo);
        }
        let mut ws: Vec<f64> = (0..k)
            .map(|i| lo + (hi - lo) * i as f64 / (k - 1) as f64)
            .collect();
        // The sequence is nondecreasing, so consecutive dedup removes all
        // float-equal points a tiny range collapses onto.
        ws.dedup();
        Self::list(ws)
    }

    /// The weights, in run order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Number of weights (= number of agents).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the schedule is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

// --------------------------------------------------------------- records

/// What one agent's run produced (the serializable core of the old
/// `TrainResult`, tagged with its sweep position).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    /// Run id (index into the sweep's weight list).
    pub run: usize,
    /// The agent's scalarization weight `w_area`.
    pub w_area: f64,
    /// Environment steps executed.
    pub steps: u64,
    /// Every distinct design visited, with evaluated objectives.
    pub designs: Vec<(PrefixGraph, ObjectivePoint)>,
    /// Per-gradient-step losses.
    pub losses: Vec<f32>,
    /// Scalarized episode returns.
    pub episode_returns: Vec<f64>,
}

impl RunRecord {
    /// The Pareto front over this run's designs.
    pub fn front(&self) -> ParetoFront<PrefixGraph> {
        self.designs.iter().map(|(g, p)| (*p, g.clone())).collect()
    }

    /// A partial record reflecting a mid-run checkpoint (used when a sweep
    /// halts before this run finishes).
    pub fn from_checkpoint(run: usize, ckpt: &Checkpoint) -> Self {
        RunRecord {
            run,
            w_area: ckpt.cfg.dqn.weight[0] as f64,
            steps: ckpt.step,
            designs: ckpt.designs.clone(),
            losses: ckpt.losses.clone(),
            episode_returns: ckpt.episode_returns.clone(),
        }
    }
}

// ---------------------------------------------------------------- runner

/// Everything a [`Runner`] needs for one agent's run.
pub struct RunContext<'a> {
    /// Run id (sweep position; 0 for single runs).
    pub run_id: usize,
    /// The agent configuration.
    pub cfg: &'a AgentConfig,
    /// The circuit task being optimized (see [`crate::task`]).
    pub task: Arc<dyn CircuitTask>,
    /// The (typically shared) evaluator stack.
    pub evaluator: Arc<dyn Evaluator>,
    /// Event sink.
    pub observer: &'a mut dyn RunObserver,
    /// Capture a checkpoint every this many environment steps.
    pub checkpoint_every: Option<u64>,
    /// Receives each captured checkpoint (the sweep persists it).
    pub on_checkpoint: Option<&'a mut dyn FnMut(usize, Checkpoint)>,
    /// Resume from this checkpoint instead of starting fresh.
    pub resume: Option<Checkpoint>,
    /// Stop after this many environment steps, saving a checkpoint — for
    /// interrupt/resume testing and CI smoke runs.
    pub halt_at: Option<u64>,
    /// Cooperative cancel/pause handle, polled between steps (serial) or
    /// decision rounds (async). A run stopped by it returns a partial
    /// outcome with `completed == false`.
    pub cancel: CancelToken,
}

/// The outcome of one agent's (possibly halted) run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run record (partial if `completed` is false).
    pub record: RunRecord,
    /// Whether the step budget was exhausted (false after `halt_at`).
    pub completed: bool,
}

/// The single training-loop abstraction: both the serial loop and the
/// async actor/learner system run one agent to completion behind this
/// interface, which is what lets [`Experiment`] treat them uniformly.
pub trait Runner: Sync {
    /// Runs one agent per `ctx`, streaming events to its observer.
    ///
    /// # Errors
    ///
    /// Fails on an invalid resume checkpoint or an unsupported
    /// context/runner combination.
    fn run(&self, ctx: RunContext<'_>) -> Result<RunOutcome, String>;
}

/// The deterministic serial runner (one environment, exact
/// checkpoint/resume) — [`crate::agent::TrainLoop`] behind the [`Runner`]
/// interface.
pub struct SerialRunner;

impl Runner for SerialRunner {
    fn run(&self, mut ctx: RunContext<'_>) -> Result<RunOutcome, String> {
        let mut lp = match ctx.resume.take() {
            Some(ckpt) => TrainLoop::from_checkpoint_with_task(
                &ckpt,
                Arc::clone(&ctx.task),
                Arc::clone(&ctx.evaluator),
            )?,
            None => {
                TrainLoop::with_task(ctx.cfg, Arc::clone(&ctx.task), Arc::clone(&ctx.evaluator))
            }
        };
        loop {
            // Poll the token between steps: pause blocks right here (no
            // state is lost), cancel snapshots and stops exactly like a
            // halt, so a cancelled run resumes from its checkpoint.
            if ctx.cancel.wait_while_paused() && !lp.is_done() {
                let ckpt = lp.checkpoint();
                let step = lp.step();
                if let Some(cb) = ctx.on_checkpoint.as_mut() {
                    cb(ctx.run_id, ckpt.clone());
                }
                ctx.observer
                    .on_event(ctx.run_id, &Event::CheckpointSaved { step });
                return Ok(RunOutcome {
                    record: RunRecord::from_checkpoint(ctx.run_id, &ckpt),
                    completed: false,
                });
            }
            if let Some(halt) = ctx.halt_at {
                if lp.step() >= halt && !lp.is_done() {
                    let ckpt = lp.checkpoint();
                    let step = lp.step();
                    if let Some(cb) = ctx.on_checkpoint.as_mut() {
                        cb(ctx.run_id, ckpt.clone());
                    }
                    ctx.observer
                        .on_event(ctx.run_id, &Event::CheckpointSaved { step });
                    return Ok(RunOutcome {
                        record: RunRecord::from_checkpoint(ctx.run_id, &ckpt),
                        completed: false,
                    });
                }
            }
            if !lp.step_once(ctx.run_id, ctx.observer) {
                break;
            }
            if let Some(every) = ctx.checkpoint_every {
                if every > 0 && lp.step().is_multiple_of(every) && !lp.is_done() {
                    let ckpt = lp.checkpoint();
                    let step = lp.step();
                    if let Some(cb) = ctx.on_checkpoint.as_mut() {
                        cb(ctx.run_id, ckpt);
                    }
                    ctx.observer
                        .on_event(ctx.run_id, &Event::CheckpointSaved { step });
                }
            }
        }
        let run = ctx.run_id;
        let w_area = ctx.cfg.dqn.weight[0] as f64;
        let (_, result) = lp.into_parts();
        Ok(RunOutcome {
            record: RunRecord {
                run,
                w_area,
                steps: result.steps,
                designs: result.designs,
                losses: result.losses,
                episode_returns: result.episode_returns,
            },
            completed: true,
        })
    }
}

/// Rolls out the greedy policy (ε = 0) from each starting state, returning
/// the designs visited — how trained agents emit their final adders.
pub fn greedy_designs(
    dqn: &mut DoubleDqn<PrefixQNet>,
    cfg: &EnvConfig,
    evaluator: Arc<dyn Evaluator>,
    episodes: usize,
    seed: u64,
) -> Vec<(PrefixGraph, ObjectivePoint)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = PrefixEnv::new(cfg.clone(), evaluator);
    let mut out: BTreeMap<Vec<u64>, (PrefixGraph, ObjectivePoint)> = BTreeMap::new();
    let record = |env: &PrefixEnv, out: &mut BTreeMap<_, (PrefixGraph, ObjectivePoint)>| {
        out.entry(env.graph().canonical_key())
            .or_insert_with(|| (env.graph().clone(), env.metrics()));
    };
    for _ in 0..episodes {
        env.reset(&mut rng);
        record(&env, &mut out);
        loop {
            let state = env.features();
            let mask = env.action_mask();
            let Some(a) = dqn.greedy_action(&state, &mask) else {
                break;
            };
            let outcome = env.step_flat(a);
            record(&env, &mut out);
            if outcome.truncated {
                break;
            }
        }
    }
    out.into_values().collect()
}

// ------------------------------------------------------------ experiment

/// A handle to one configured agent of an experiment.
#[derive(Clone)]
pub struct Run {
    /// Run id (index into the weight list).
    pub id: usize,
    /// This agent's scalarization weight.
    pub w_area: f64,
    /// The full agent configuration the runner executes.
    pub cfg: AgentConfig,
}

impl Run {
    /// Executes this run alone with an explicit runner and evaluator —
    /// the escape hatch under [`Experiment::run`]'s orchestration. The
    /// task is resolved from `cfg.env.task` through the built-in registry.
    ///
    /// # Errors
    ///
    /// Fails on an unregistered task id and propagates runner failures
    /// (e.g. an invalid resume checkpoint).
    pub fn execute(
        &self,
        runner: &dyn Runner,
        evaluator: Arc<dyn Evaluator>,
        observer: &mut dyn RunObserver,
    ) -> Result<RunOutcome, String> {
        let task = task::by_name(&self.cfg.env.task).ok_or_else(|| {
            format!(
                "unknown task `{}` (registered: {:?})",
                self.cfg.env.task,
                task::TASK_NAMES
            )
        })?;
        runner.run(RunContext {
            run_id: self.id,
            cfg: &self.cfg,
            task,
            evaluator,
            observer,
            checkpoint_every: None,
            on_checkpoint: None,
            resume: None,
            halt_at: None,
            cancel: CancelToken::new(),
        })
    }
}

/// An externally owned evaluation stack: an evaluator binding (typically
/// over a shared [`crate::cache::EvalCache`] store) plus the
/// [`EvalService`] wrapping it — what [`ExperimentBuilder::eval_stack`]
/// accepts.
pub type EvalStack = (Arc<CachedEvaluator<Box<dyn Evaluator>>>, Arc<EvalService>);

/// Builder for [`Experiment`] — see the module docs for the full shape.
pub struct ExperimentBuilder {
    n: u16,
    weights: Weights,
    steps: u64,
    seed: u64,
    base: Option<AgentConfig>,
    task: Arc<dyn CircuitTask>,
    backend: Arc<dyn ObjectiveBackend>,
    stack: Option<EvalStack>,
    eval_threads: usize,
    cache_shards: usize,
    actors: usize,
    batched_inference: bool,
    nn_threads: Option<usize>,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<PathBuf>,
    halt_at: Option<u64>,
    cancel: CancelToken,
}

impl ExperimentBuilder {
    fn new() -> Self {
        ExperimentBuilder {
            n: 8,
            weights: Weights::single(0.5),
            steps: 2000,
            seed: 0,
            base: None,
            task: Arc::new(Adder),
            backend: Arc::new(AnalyticalBackend),
            stack: None,
            eval_threads: 4,
            cache_shards: 16,
            actors: 1,
            batched_inference: true,
            nn_threads: None,
            checkpoint_every: None,
            checkpoint_path: None,
            halt_at: None,
            cancel: CancelToken::new(),
        }
    }

    /// Input width `N`.
    pub fn n(mut self, n: u16) -> Self {
        self.n = n;
        self
    }

    /// The circuit task to optimize (defaults to the [`Adder`]). Built-in
    /// tasks come from [`task::by_name`]; custom implementations of
    /// [`CircuitTask`] plug in the same way.
    pub fn task(mut self, task: Arc<dyn CircuitTask>) -> Self {
        self.task = task;
        self
    }

    /// The objective backend scoring the task (defaults to
    /// [`AnalyticalBackend`]).
    pub fn backend(mut self, backend: Arc<dyn ObjectiveBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The scalarization weights — one agent per weight.
    pub fn weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Environment steps per agent.
    pub fn steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    /// Master seed; run `i` trains with `seed + i`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A full [`AgentConfig`] template. Overrides `n`/`steps`; the per-run
    /// weight and seed are still applied on top.
    pub fn base_config(mut self, cfg: AgentConfig) -> Self {
        self.base = Some(cfg);
        self
    }

    /// The [`EvalService`] thread budget; agents also fan out over this
    /// many concurrent runs.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn eval_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one eval thread");
        self.eval_threads = threads;
        self
    }

    /// Shard count of the shared evaluation cache.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one cache shard");
        self.cache_shards = shards;
        self
    }

    /// Async actor threads *per agent*. `1` (default) selects the
    /// deterministic, checkpointable [`SerialRunner`]; `> 1` selects
    /// [`AsyncRunner`] (no checkpoint support).
    ///
    /// # Panics
    ///
    /// Panics if `actors == 0`.
    pub fn actors(mut self, actors: usize) -> Self {
        assert!(actors > 0, "need at least one actor");
        self.actors = actors;
        self
    }

    /// Whether async runs route greedy forwards through the cross-actor
    /// inference broker — one fused Q-network forward over every actor's
    /// pending states per service cycle (see
    /// [`AsyncRunner::batched_inference`]). Defaults to `true`; only
    /// meaningful with [`ExperimentBuilder::actors`] `> 1`. Trajectories
    /// are unaffected either way (the fused net is per-sample), only
    /// decision throughput changes.
    pub fn batched_inference(mut self, on: bool) -> Self {
        self.batched_inference = on;
        self
    }

    /// The `nn` compute thread budget (conv GEMM panels; see
    /// `nn::compute::set_threads`). Applied globally when the experiment
    /// runs. Results are bit-identical at every setting — only wall-clock
    /// changes — so checkpoint/resume determinism is unaffected. Defaults
    /// to leaving the global setting (1, or `PREFIXRL_NN_THREADS`) alone.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn nn_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one nn compute thread");
        self.nn_threads = Some(threads);
        self
    }

    /// Capture a checkpoint every `steps` environment steps per agent.
    pub fn checkpoint_every(mut self, steps: u64) -> Self {
        self.checkpoint_every = Some(steps);
        self
    }

    /// Persist sweep checkpoints to this file (atomically rewritten).
    pub fn checkpoint_path(mut self, path: PathBuf) -> Self {
        self.checkpoint_path = Some(path);
        self
    }

    /// Halt every agent at this step after saving a checkpoint — for
    /// interrupt/resume testing and CI smoke runs.
    pub fn halt_at(mut self, step: u64) -> Self {
        self.halt_at = Some(step);
        self
    }

    /// Attach a [`CancelToken`] the caller keeps a clone of: cancelling it
    /// stops every run within one event tick (serial runs checkpoint
    /// first, so the sweep stays resumable), pausing it blocks them
    /// between steps. This is how a resident server cancels a job without
    /// tearing the process down.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Run over an externally owned evaluation stack instead of building a
    /// private one: `cache` is an evaluator binding (typically a
    /// [`crate::task::TaskEvaluator`] for this experiment's task/backend
    /// bound to a shared [`crate::cache::EvalCache`] store) and `service`
    /// the [`EvalService`] wrapping it. This is the multi-job server path:
    /// every concurrent experiment evaluates through one store and one
    /// thread-budget discipline, and [`Experiment::cache_stats`] reports
    /// the *shared* store's aggregate counters. The caller must bind an
    /// evaluator matching `.task(...)`/`.backend(...)` — the discriminant
    /// keying assumes it.
    pub fn eval_stack(
        mut self,
        cache: Arc<CachedEvaluator<Box<dyn Evaluator>>>,
        service: Arc<EvalService>,
    ) -> Self {
        self.stack = Some((cache, service));
        self
    }

    /// Assembles the experiment: per-run agent configs plus the shared
    /// cache/service evaluation stack over the configured task/backend
    /// (or the externally owned stack from
    /// [`ExperimentBuilder::eval_stack`]).
    pub fn build(self) -> Experiment {
        let (cache, service) = match self.stack {
            // Externally owned stack: the caller bound the evaluator, the
            // configured backend is only used for labels and
            // off-reward-path annotations.
            Some(stack) => stack,
            None => {
                let inner: Box<dyn Evaluator> = Box::new(TaskEvaluator::new(
                    Arc::clone(&self.task),
                    Arc::clone(&self.backend),
                ));
                let cache = Arc::new(CachedEvaluator::with_config(
                    inner,
                    CacheConfig::with_shards(self.cache_shards),
                ));
                let service = Arc::new(EvalService::new(
                    Arc::clone(&cache) as Arc<dyn Evaluator>,
                    self.eval_threads,
                ));
                (cache, service)
            }
        };
        let evaluator_name = cache.name().to_string();
        let runs = self
            .weights
            .values()
            .iter()
            .enumerate()
            .map(|(id, &w)| {
                let mut cfg = match &self.base {
                    Some(base) => base.clone(),
                    None => AgentConfig::small(self.n, w as f32, self.steps),
                };
                cfg.env.task = self.task.task_id().to_string();
                cfg.dqn.weight = [w as f32, 1.0 - w as f32];
                cfg.seed = self.seed.wrapping_add(id as u64);
                cfg.qnet.seed = cfg.qnet.seed.wrapping_add(id as u64);
                Run { id, w_area: w, cfg }
            })
            .collect();
        Experiment {
            runs,
            task: self.task,
            backend: self.backend,
            cache,
            service,
            evaluator_name,
            parallelism: self.eval_threads,
            actors: self.actors,
            batched_inference: self.batched_inference,
            nn_threads: self.nn_threads,
            checkpoint_every: self.checkpoint_every,
            checkpoint_path: self.checkpoint_path,
            halt_at: self.halt_at,
            cancel: self.cancel,
        }
    }
}

/// Aggregate statistics of the experiment's shared evaluation cache.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CacheStats {
    /// Shard count.
    pub shards: usize,
    /// Total hits (including coalesced in-flight waits).
    pub hits: u64,
    /// Total misses (inner evaluations).
    pub misses: u64,
    /// Entries evicted by capacity bounds.
    pub evictions: u64,
    /// Hit rate in `[0, 1]`.
    pub hit_rate: f64,
    /// Distinct states currently cached.
    pub unique_states: usize,
}

/// A configured multi-agent training session over one shared evaluation
/// stack.
pub struct Experiment {
    runs: Vec<Run>,
    task: Arc<dyn CircuitTask>,
    backend: Arc<dyn ObjectiveBackend>,
    cache: Arc<CachedEvaluator<Box<dyn Evaluator>>>,
    service: Arc<EvalService>,
    evaluator_name: String,
    parallelism: usize,
    actors: usize,
    batched_inference: bool,
    nn_threads: Option<usize>,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<PathBuf>,
    halt_at: Option<u64>,
    cancel: CancelToken,
}

impl Experiment {
    /// Starts a builder with analytical defaults (one agent, `w = 0.5`).
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::new()
    }

    /// The configured run handles, in weight order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The circuit task this experiment optimizes.
    pub fn task(&self) -> &Arc<dyn CircuitTask> {
        &self.task
    }

    /// The objective backend scoring the task.
    pub fn backend(&self) -> &Arc<dyn ObjectiveBackend> {
        &self.backend
    }

    /// The shared evaluation service (hand this to anything else that
    /// should hit the same cache).
    pub fn service(&self) -> Arc<EvalService> {
        Arc::clone(&self.service)
    }

    /// Current statistics of the shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            shards: self.cache.shards(),
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            evictions: self.cache.evictions(),
            hit_rate: self.cache.hit_rate(),
            unique_states: self.cache.unique_states(),
        }
    }

    /// Runs every agent, fanning out over the service's thread budget.
    ///
    /// # Errors
    ///
    /// Fails if any run fails (first error wins; remaining runs finish).
    pub fn run(&self, observer: &mut dyn RunObserver) -> Result<ExperimentResult, String> {
        self.run_from(
            SweepCheckpoint::fresh(self.task.task_id(), self.runs.len()),
            observer,
        )
    }

    /// Runs with [`NullObserver`].
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run_quiet(&self) -> Result<ExperimentResult, String> {
        self.run(&mut NullObserver)
    }

    /// Resumes from a sweep checkpoint: finished agents are restored from
    /// their records, in-progress agents continue bit-identically from
    /// their checkpoints, pending agents start fresh.
    ///
    /// # Errors
    ///
    /// Fails if the checkpoint does not match this experiment's shape, or
    /// was recorded for a different circuit task — continuing an adder
    /// sweep as a prefix-OR sweep would silently mix oracles.
    pub fn resume(
        &self,
        sweep: SweepCheckpoint,
        observer: &mut dyn RunObserver,
    ) -> Result<ExperimentResult, String> {
        if sweep.task != self.task.task_id() {
            return Err(format!(
                "cannot resume: checkpoint was recorded for task `{}`, experiment \
                 is configured for task `{}`",
                sweep.task,
                self.task.task_id()
            ));
        }
        if sweep.runs.len() != self.runs.len() {
            return Err(format!(
                "checkpoint has {} runs, experiment has {}",
                sweep.runs.len(),
                self.runs.len()
            ));
        }
        for (run, state) in self.runs.iter().zip(&sweep.runs) {
            if let RunState::InProgress(c) = state {
                if c.cfg.env.task != self.task.task_id() {
                    return Err(format!(
                        "run {}: checkpoint task mismatch: trained on `{}`, \
                         experiment task is `{}`",
                        run.id,
                        c.cfg.env.task,
                        self.task.task_id()
                    ));
                }
            }
            let ckpt_w = match state {
                RunState::InProgress(c) => c.cfg.dqn.weight[0] as f64,
                RunState::Done(r) => r.w_area,
                RunState::Pending => continue,
            };
            if (ckpt_w - run.w_area).abs() > 1e-6 {
                return Err(format!(
                    "run {} weight mismatch: checkpoint {ckpt_w}, experiment {}",
                    run.id, run.w_area
                ));
            }
        }
        self.run_from(sweep, observer)
    }

    fn run_from(
        &self,
        sweep: SweepCheckpoint,
        observer: &mut dyn RunObserver,
    ) -> Result<ExperimentResult, String> {
        let t0 = std::time::Instant::now();
        if let Some(t) = self.nn_threads {
            nn::compute::set_threads(t);
        }
        let slots: Vec<Mutex<Option<RunState>>> = sweep
            .runs
            .into_iter()
            .map(|s| Mutex::new(Some(s)))
            .collect();
        // Partial records of runs a cancel stopped without a checkpoint
        // (the async runner cannot snapshot); indexed by run id.
        let partials: Vec<Mutex<Option<RunRecord>>> =
            (0..slots.len()).map(|_| Mutex::new(None)).collect();
        let shared_observer = Mutex::new(observer);
        let persist_lock = Mutex::new(());
        let next = AtomicUsize::new(0);
        let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let runner: Box<dyn Runner> = if self.actors > 1 {
            Box::new(AsyncRunner {
                actors: self.actors,
                batched_inference: self.batched_inference,
            })
        } else {
            Box::new(SerialRunner)
        };
        let workers = self.parallelism.min(self.runs.len()).max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= self.runs.len() {
                        break;
                    }
                    if self.cancel.is_cancelled() {
                        // Don't start queued runs after a cancel; their
                        // slots stay Pending (resumable from scratch).
                        continue;
                    }
                    let resume = match slots[i].lock().as_ref().expect("slot populated") {
                        RunState::Done(_) => continue,
                        RunState::Pending => None,
                        RunState::InProgress(ckpt) => Some((**ckpt).clone()),
                    };
                    let mut local_observer = LockedObserver {
                        inner: &shared_observer,
                    };
                    let mut on_checkpoint = |id: usize, ckpt: Checkpoint| {
                        *slots[id].lock() = Some(RunState::InProgress(Box::new(ckpt)));
                        self.persist(&slots, &persist_lock);
                    };
                    let ctx = RunContext {
                        run_id: i,
                        cfg: &self.runs[i].cfg,
                        task: Arc::clone(&self.task),
                        evaluator: Arc::clone(&self.service) as Arc<dyn Evaluator>,
                        observer: &mut local_observer,
                        checkpoint_every: self.checkpoint_every,
                        on_checkpoint: Some(&mut on_checkpoint),
                        resume,
                        halt_at: self.halt_at,
                        cancel: self.cancel.clone(),
                    };
                    match runner.run(ctx) {
                        Ok(outcome) => {
                            if outcome.completed {
                                *slots[i].lock() = Some(RunState::Done(outcome.record));
                                self.persist(&slots, &persist_lock);
                            } else if matches!(
                                slots[i].lock().as_ref().expect("slot populated"),
                                RunState::Pending
                            ) {
                                // Stopped without ever checkpointing (an
                                // async cancel): keep the partial record
                                // so its designs still reach the report.
                                *partials[i].lock() = Some(outcome.record);
                            }
                            // A halted/cancelled serial run already
                            // persisted via on_checkpoint and stays
                            // InProgress.
                        }
                        Err(e) => errors.lock().push(format!("run {i}: {e}")),
                    }
                });
            }
        });
        {
            let errors = errors.lock();
            if !errors.is_empty() {
                return Err(errors.join("; "));
            }
        }
        let mut records = Vec::with_capacity(self.runs.len());
        let mut completed = true;
        for (i, slot) in slots.iter().enumerate() {
            match slot.lock().take().expect("slot populated") {
                RunState::Done(mut record) => {
                    // Report the configured f64 weight, not its f32
                    // round-trip through DqnConfig.
                    record.w_area = self.runs[i].w_area;
                    records.push(record);
                }
                RunState::InProgress(ckpt) => {
                    completed = false;
                    let mut record = RunRecord::from_checkpoint(i, &ckpt);
                    record.w_area = self.runs[i].w_area;
                    records.push(record);
                }
                RunState::Pending => {
                    completed = false;
                    let partial = partials[i].lock().take();
                    records.push(partial.unwrap_or(RunRecord {
                        run: i,
                        w_area: self.runs[i].w_area,
                        steps: 0,
                        designs: Vec::new(),
                        losses: Vec::new(),
                        episode_returns: Vec::new(),
                    }));
                }
            }
        }
        // Off-reward-path annotations (e.g. switching power) for the
        // merged frontier, when the backend produces them. Indexed in the
        // frontier's (deterministic, strictly-delay-increasing) iteration
        // order, which `merged_front()` reproduces from the same records.
        let merged: ParetoFront<PrefixGraph> = records
            .iter()
            .flat_map(|r| r.designs.iter().map(|(g, p)| (*p, g.clone())))
            .collect();
        let frontier_power: Option<Vec<f64>> = merged
            .iter()
            .map(|(_, g)| self.backend.annotate(self.task.as_ref(), g))
            .collect();
        Ok(ExperimentResult {
            n: self.runs[0].cfg.env.n,
            task: self.task.task_id().to_string(),
            backend: self.backend.backend_id().to_string(),
            evaluator: self.evaluator_name.clone(),
            steps_per_agent: self.runs[0].cfg.total_steps,
            actors_per_agent: self.actors,
            completed,
            records,
            frontier_power,
            cache: self.cache_stats(),
            elapsed_sec: t0.elapsed().as_secs_f64(),
        })
    }

    /// Atomically rewrites the sweep checkpoint file, if one is configured.
    ///
    /// Each slot is serialized to a value tree under its own lock (no
    /// intermediate `RunState` clone — in-progress slots embed full replay
    /// buffers, so cloning them would double the dominant cost); the file
    /// is still one atomic whole-sweep snapshot, with each slot internally
    /// consistent.
    fn persist(&self, slots: &[Mutex<Option<RunState>>], persist_lock: &Mutex<()>) {
        let Some(path) = &self.checkpoint_path else {
            return;
        };
        let _guard = persist_lock.lock();
        let runs: Vec<serde::Value> = slots
            .iter()
            .map(|s| s.lock().as_ref().expect("slot populated").to_value())
            .collect();
        let sweep = serde::Value::Object(vec![
            ("version".to_string(), Checkpoint::FORMAT_VERSION.to_value()),
            ("task".to_string(), self.task.task_id().to_value()),
            ("runs".to_string(), serde::Value::Array(runs)),
        ]);
        let json = serde_json::to_string_pretty(&sweep).expect("infallible");
        if let Err(e) = crate::checkpoint::write_atomic(path, &json) {
            // Checkpointing is best-effort durability; training goes on.
            eprintln!("warning: sweep checkpoint write failed: {e}");
        }
    }
}

/// Per-thread adapter funnelling events into the sweep's shared observer.
struct LockedObserver<'a, 'b> {
    inner: &'a Mutex<&'b mut dyn RunObserver>,
}

impl RunObserver for LockedObserver<'_, '_> {
    fn on_event(&mut self, run: usize, event: &Event) {
        self.inner.lock().on_event(run, event);
    }
}

// ------------------------------------------------------------------ result

/// Everything a (possibly multi-agent) experiment produced.
pub struct ExperimentResult {
    /// Input width.
    pub n: u16,
    /// The circuit task's stable id (e.g. `"adder"`).
    pub task: String,
    /// The objective backend's stable id (e.g. `"analytical"`).
    pub backend: String,
    /// Inner evaluator name (`task/backend`, e.g. `"adder/analytical"`).
    pub evaluator: String,
    /// Step budget per agent.
    pub steps_per_agent: u64,
    /// Async actor threads per agent (1 = deterministic serial runner).
    pub actors_per_agent: usize,
    /// Whether every agent exhausted its budget (false after `halt_at`).
    pub completed: bool,
    /// Per-agent records, in run order.
    pub records: Vec<RunRecord>,
    /// Off-reward-path switching-power annotations (µW) for the merged
    /// frontier, in [`ExperimentResult::merged_front`] iteration order;
    /// `None` when the backend does not annotate.
    pub frontier_power: Option<Vec<f64>>,
    /// Shared-cache statistics at completion.
    pub cache: CacheStats,
    /// Wall-clock seconds of this process's portion of the work.
    pub elapsed_sec: f64,
}

impl ExperimentResult {
    /// Total environment steps across all agents.
    pub fn total_steps(&self) -> u64 {
        self.records.iter().map(|r| r.steps).sum()
    }

    /// The combined Pareto front over every agent's design pool — the
    /// paper's Fig. 4 construction.
    pub fn merged_front(&self) -> ParetoFront<PrefixGraph> {
        self.records
            .iter()
            .flat_map(|r| r.designs.iter().map(|(g, p)| (*p, g.clone())))
            .collect()
    }

    /// The `prefixrl.experiment.v1` JSON report shared by `prefixrl train`
    /// and `prefixrl sweep` (schema documented in DESIGN.md §10). With
    /// `include_graphs`, merged-frontier entries embed the full prefix
    /// graphs for downstream tooling.
    pub fn to_json(&self, include_graphs: bool) -> serde_json::Value {
        let frontier_json = |front: &ParetoFront<PrefixGraph>, graphs: bool| {
            serde_json::Value::Array(
                front
                    .iter()
                    .map(|(p, g)| {
                        let mut entry = serde_json::json!({
                            "area": p.area,
                            "delay": p.delay,
                            "size": g.size(),
                            "depth": g.depth(),
                        });
                        if graphs {
                            if let serde_json::Value::Object(entries) = &mut entry {
                                entries.push(("graph".to_string(), serde::Serialize::to_value(g)));
                            }
                        }
                        entry
                    })
                    .collect(),
            )
        };
        let total_requests: u64 = self.cache.hits + self.cache.misses;
        // The merged frontier, with per-point power annotations when the
        // backend produced them (index-aligned with merged_front order).
        let mut merged_json = frontier_json(&self.merged_front(), include_graphs);
        if let (serde_json::Value::Array(items), Some(powers)) =
            (&mut merged_json, &self.frontier_power)
        {
            // Annotations are index-aligned with merged_front order; a
            // length mismatch would mean silent mispairing, so drop them
            // entirely rather than zip-truncate.
            if items.len() == powers.len() {
                for (item, p) in items.iter_mut().zip(powers) {
                    if let serde_json::Value::Object(entries) = item {
                        entries.push(("power_uw".to_string(), serde::Serialize::to_value(p)));
                    }
                }
            }
        }
        let agents: Vec<serde_json::Value> = self
            .records
            .iter()
            .map(|r| {
                let front = r.front();
                // The serial runner's evaluation count is exact: one per
                // step, one per episode reset, one initial state. Async
                // actors run several environments with step-claim
                // overshoot, so no exact per-agent count exists there.
                let eval_requests = (self.actors_per_agent == 1)
                    .then(|| r.steps + r.episode_returns.len() as u64 + 1);
                serde_json::json!({
                    "run": r.run,
                    "w_area": r.w_area,
                    "steps": r.steps,
                    "designs": r.designs.len(),
                    "grad_steps": r.losses.len(),
                    "episodes": r.episode_returns.len(),
                    "eval_requests": eval_requests,
                    "frontier_size": front.len(),
                    "frontier": frontier_json(&front, false),
                })
            })
            .collect();
        serde_json::json!({
            "schema": "prefixrl.experiment.v1",
            "n": self.n,
            "task": self.task,
            "backend": self.backend,
            "evaluator": self.evaluator,
            "agents_count": self.records.len(),
            "steps_per_agent": self.steps_per_agent,
            "total_steps": self.total_steps(),
            "completed": self.completed,
            "elapsed_sec": self.elapsed_sec,
            "steps_per_sec": self.total_steps() as f64 / self.elapsed_sec.max(1e-9),
            "agents": serde_json::Value::Array(agents),
            "merged_frontier": merged_json,
            "cache": {
                "shards": self.cache.shards,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "hit_rate": self.cache.hit_rate,
                "unique_states": self.cache.unique_states,
                "requests": total_requests,
            },
        })
    }
}

// The async runner lives in `parallel.rs` (thread topology) but is part of
// this module's public surface.
pub use crate::parallel::AsyncRunner;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_linspace_matches_paper_shape() {
        let w = Weights::linspace(0.10, 0.99, 15);
        assert_eq!(w.len(), 15);
        assert!((w.values()[0] - 0.10).abs() < 1e-12);
        assert!((w.values()[14] - 0.99).abs() < 1e-12);
        for pair in w.values().windows(2) {
            assert!(pair[0] < pair[1], "weights must increase");
        }
        assert_eq!(Weights::linspace(0.3, 0.9, 1).values(), &[0.3]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn weights_reject_out_of_range() {
        Weights::list(vec![0.5, 1.5]);
    }

    #[test]
    fn builder_configures_runs() {
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::linspace(0.2, 0.8, 3))
            .steps(100)
            .seed(7)
            .eval_threads(2)
            .build();
        let runs = exp.runs();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].cfg.seed, 7);
        assert_eq!(runs[2].cfg.seed, 9);
        assert!((runs[1].w_area - 0.5).abs() < 1e-12);
        assert_eq!(runs[1].cfg.dqn.weight[0], 0.5);
        assert_eq!(runs[0].cfg.total_steps, 100);
    }

    #[test]
    fn experiment_shares_cache_across_agents() {
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::linspace(0.2, 0.8, 3))
            .base_config(AgentConfig::tiny(8, 0.5))
            .eval_threads(3)
            .build();
        let result = exp.run_quiet().unwrap();
        assert!(result.completed);
        assert_eq!(result.records.len(), 3);
        // All agents reset into the same two start states, so the shared
        // cache must coalesce them.
        assert!(result.cache.hits > 0, "agents never shared the cache");
        assert!(!result.merged_front().is_empty());
    }

    #[test]
    fn channel_observer_streams_events() {
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        let (mut obs, rx) = ChannelObserver::bounded(100_000);
        let result = exp.run(&mut obs).unwrap();
        drop(obs);
        let events: Vec<(usize, Event)> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        let steps = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Step { .. }))
            .count() as u64;
        assert_eq!(steps, result.records[0].steps);
        let grads = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::GradStep { .. }))
            .count();
        assert_eq!(grads, result.records[0].losses.len());
        let designs = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::DesignFound { .. }))
            .count();
        assert_eq!(designs, result.records[0].designs.len());
    }

    #[test]
    fn result_json_has_schema_fields() {
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::linspace(0.3, 0.7, 2))
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        let result = exp.run_quiet().unwrap();
        let json = result.to_json(false);
        assert_eq!(
            json.get("schema").unwrap(),
            &serde_json::Value::String("prefixrl.experiment.v1".into())
        );
        assert_eq!(json.get("agents").unwrap().as_array().unwrap().len(), 2);
        assert!(json.get("merged_frontier").is_some());
        assert!(json.get("cache").unwrap().get("hit_rate").is_some());
        assert_eq!(
            json.get("task").unwrap(),
            &serde_json::Value::String("adder".into())
        );
        assert_eq!(
            json.get("backend").unwrap(),
            &serde_json::Value::String("analytical".into())
        );
    }

    #[test]
    fn builder_task_threads_into_run_configs() {
        let exp = Experiment::builder()
            .n(8)
            .task(task::by_name("incrementer").unwrap())
            .weights(Weights::linspace(0.3, 0.7, 2))
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        assert_eq!(exp.task().task_id(), "incrementer");
        for run in exp.runs() {
            assert_eq!(run.cfg.env.task, "incrementer");
        }
    }

    #[test]
    fn weights_reject_duplicates_loudly() {
        let err = Weights::try_list(vec![0.3, 0.5, 0.3]).unwrap_err();
        assert!(err.contains("duplicate weight"), "{err}");
        assert!(err.contains("positions 0 and 2"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate weight")]
    fn weights_list_panics_on_duplicates() {
        Weights::list(vec![0.5, 0.5]);
    }

    #[test]
    fn linspace_collapses_float_equal_points_at_tiny_ranges() {
        // Every point of this range rounds to the same f64: one agent.
        let w = Weights::linspace(0.5, 0.5 + 1e-18, 3);
        assert_eq!(w.values(), &[0.5]);
        // A representable range keeps its distinct points, endpoints
        // included.
        let w = Weights::linspace(0.5, 0.5 + 1e-12, 3);
        assert!(w.len() >= 2, "endpoints must survive");
        assert_eq!(w.values()[0], 0.5);
        assert_eq!(*w.values().last().unwrap(), 0.5 + 1e-12);
        for pair in w.values().windows(2) {
            assert!(pair[0] < pair[1], "collapse must leave strict order");
        }
    }

    #[test]
    fn cancel_token_stops_serial_run_within_one_tick() {
        let token = CancelToken::new();
        let canceller = token.clone();
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(AgentConfig::tiny(8, 0.5))
            .cancel_token(token)
            .build();
        let mut obs = CallbackObserver::new(move |_, e| {
            if let Event::Step { step, .. } = e {
                if *step >= 50 {
                    canceller.cancel();
                }
            }
        });
        let result = exp.run(&mut obs).unwrap();
        assert!(!result.completed);
        // The token fired during step 50; the runner polls before the
        // next step, so exactly 51 steps ran.
        assert_eq!(result.records[0].steps, 51, "cancel not within one tick");
        assert!(!result.records[0].designs.is_empty());
    }

    #[test]
    fn cancelled_sweep_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("prefixrl-cancel-{}", std::process::id()));
        let path = dir.join("cancelled.sweep.json");
        let base = AgentConfig::tiny(8, 0.5);
        let reference = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(base.clone())
            .build()
            .run_quiet()
            .unwrap();
        let token = CancelToken::new();
        let canceller = token.clone();
        let halted = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(base.clone())
            .cancel_token(token)
            .checkpoint_path(path.clone())
            .build()
            .run(&mut CallbackObserver::new(move |_, e| {
                if let Event::Step { step, .. } = e {
                    if *step >= 80 {
                        canceller.cancel();
                    }
                }
            }))
            .unwrap();
        assert!(!halted.completed);
        let sweep = SweepCheckpoint::load(&path).unwrap();
        let resumed = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(base)
            .build()
            .resume(sweep, &mut NullObserver)
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.records[0].losses, reference.records[0].losses);
        assert_eq!(
            resumed.records[0].designs.len(),
            reference.records[0].designs.len()
        );
        for ((ga, pa), (gb, pb)) in resumed.records[0]
            .designs
            .iter()
            .zip(&reference.records[0].designs)
        {
            assert_eq!(ga.canonical_key(), gb.canonical_key());
            assert_eq!(pa, pb);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pause_blocks_and_resume_continues() {
        let token = CancelToken::new();
        token.pause();
        let handle = {
            let token = token.clone();
            std::thread::spawn(move || {
                Experiment::builder()
                    .n(8)
                    .weights(Weights::single(0.5))
                    .base_config(AgentConfig::tiny(8, 0.5))
                    .cancel_token(token)
                    .build()
                    .run_quiet()
                    .unwrap()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert!(!handle.is_finished(), "paused run must not progress");
        token.resume();
        let result = handle.join().unwrap();
        assert!(result.completed);
        assert_eq!(result.records[0].steps, 300);
    }

    #[test]
    fn external_eval_stack_is_shared_across_experiments() {
        use crate::cache::EvalCache;
        let store = Arc::new(EvalCache::new(CacheConfig::with_shards(4)));
        let make = || {
            let inner: Box<dyn Evaluator> = Box::new(TaskEvaluator::analytical(Adder));
            let cache = Arc::new(CachedEvaluator::with_store(inner, Arc::clone(&store)));
            let service = Arc::new(EvalService::new(
                Arc::clone(&cache) as Arc<dyn Evaluator>,
                2,
            ));
            Experiment::builder()
                .n(8)
                .weights(Weights::single(0.5))
                .base_config(AgentConfig::tiny(8, 0.5))
                .eval_stack(cache, service)
                .build()
        };
        let first = make().run_quiet().unwrap();
        assert!(first.completed);
        let misses_after_first = store.misses();
        assert!(misses_after_first > 0);
        // A second, identical experiment over the same external stack
        // replays the same deterministic states: the shared store must
        // serve it entirely from cache.
        let second = make().run_quiet().unwrap();
        assert!(second.completed);
        assert_eq!(
            store.misses(),
            misses_after_first,
            "second run must be all hits through the shared store"
        );
        assert_eq!(second.cache.misses, store.misses());
    }

    #[test]
    fn resume_rejects_task_mismatch() {
        let exp = Experiment::builder()
            .n(8)
            .task(task::by_name("prefix-or").unwrap())
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        let sweep = SweepCheckpoint::fresh("adder", 1);
        let err = match exp.resume(sweep, &mut NullObserver) {
            Err(e) => e,
            Ok(_) => panic!("task mismatch must be rejected"),
        };
        assert!(err.contains("task `adder`"), "{err}");
        assert!(err.contains("task `prefix-or`"), "{err}");
    }
}
