//! The asynchronous distributed training system (paper Section IV-D).
//!
//! The paper's key systems observation is that DQN is off-policy, so
//! experience generation (environment + synthesis) decouples from gradient
//! computation: 192 synthesis workers fed one learner. This module
//! reproduces that architecture at thread scale behind the
//! [`crate::experiment::Runner`] interface:
//!
//! - [`evaluate_batch`] — batch evaluation on a worker pool, provided by
//!   [`crate::evalsvc`] (re-exported here for the figure harnesses and the
//!   scaling benchmark);
//! - [`AsyncRunner`] — actor threads run `envs_per_actor` environments in
//!   lockstep, select actions through the shared [`ScalarizedPolicy`] with
//!   **one batched Q-network forward per decision round** (not batch-of-1),
//!   and stream transitions over a channel to a learner thread that trains
//!   and publishes its policy. Publication is a **snapshot swap**: on each
//!   target-sync the learner freezes the online network into a fused
//!   [`FrozenQNet`] (batch-norms folded into their convolutions) behind an
//!   `Arc`; actors notice the version bump and clone the `Arc` — a pointer
//!   copy. Per decision, actors perform **zero weight copies and take no
//!   locks**: acting is `&FrozenQNet` through the immutable
//!   [`rl::QInfer`] path. Events stream to the run's observer from both
//!   sides.
//!
//! # The cross-actor inference broker
//!
//! With [`AsyncRunner::batched_inference`] on (the default), actors do not
//! run their greedy forwards locally. Each round an actor sends its
//! greedy-state batch to a dedicated **broker thread** and blocks on a
//! private reply channel; the broker drains every request currently
//! queued, concatenates the states, runs **one fused forward over the
//! combined batch**, splits the Q-rows back per request and replies. Many
//! small per-actor batches become one large GEMM per service cycle — the
//! thread-scale analogue of the paper's batched inference server in front
//! of its 192 synthesis workers.
//!
//! Centralizing inference also lets the broker **memoize**: Q-values are a
//! pure function of (snapshot, state), so each service cycle runs its
//! fused forward only over the *unique states not already answered under
//! the current snapshot* and serves everything else from a bit-exact memo
//! table (cleared on every publish). Actors frequently pose identical
//! states — shared reset states early in training, revisited prefixes
//! under the greedy policy — and only a central service can deduplicate
//! them across actors; per-actor inference recomputes every one.
//!
//! Correctness rests on the fused net being **per-sample**: convolutions,
//! folded batch-norms and LeakyReLU never mix rows, so a state's Q-values
//! are bit-identical whatever batch they ride in (pinned by a test in
//! `crate::qnet`). Exploration coins are drawn on the actor *before* the
//! request is sent, so an actor consumes its RNG identically in broker and
//! local mode. Shutdown is by disconnection in both directions: actors
//! exiting drop their request senders (broker's `recv` errs → broker
//! exits); a broker panic drops the request receiver and every in-flight
//! reply sender, actors see the error as a cancelled decision and break,
//! and the scope re-raises the panic.
//!
//! Because experience arrives asynchronously, the async path is not
//! bit-identical run to run, and it does not support checkpoint/resume —
//! the deterministic [`crate::experiment::SerialRunner`] does.

use crate::agent::{AgentConfig, TrainResult};
use crate::env::PrefixEnv;
use crate::evaluator::{Evaluator, ObjectivePoint};
use crate::experiment::{
    CancelToken, Event, NullObserver, RunContext, RunObserver, RunOutcome, RunRecord, Runner,
};
use crate::qnet::{FrozenQNet, PrefixQNet, QNetConfig};
use crate::task::{self, CircuitTask};
use crossbeam::channel;
use parking_lot::{Mutex, RwLock};
use prefix_graph::PrefixGraph;
use rand::prelude::*;
use rl::{DoubleDqn, EpsilonSchedule, QInfer, ReplayBuffer, ScalarizedPolicy, Transition};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::evalsvc::evaluate_batch;

/// The frozen policy snapshot published by the learner.
///
/// Actors poll `version` (one relaxed atomic load per decision round) and
/// only touch the lock when it bumps — and even then they clone an `Arc`,
/// never the weights. The decision path itself is lock-free: batched
/// inference through `&FrozenQNet`.
struct PolicyBoard {
    version: AtomicU64,
    snapshot: RwLock<Arc<FrozenQNet>>,
}

/// The design pool shared by all actors: canonical key → (graph, metrics).
type DesignPool = Mutex<HashMap<Vec<u64>, (PrefixGraph, ObjectivePoint)>>;

/// One actor's greedy-state batch awaiting Q-values, plus the private
/// reply channel the actor blocks on. The broker answers each request
/// with exactly `states.len()` Q-rows.
struct InferRequest {
    states: Vec<Vec<f32>>,
    reply: channel::Sender<Vec<Vec<[f32; 2]>>>,
}

/// Entry cap for the broker's per-snapshot memo table — a backstop for
/// pathological state churn between publishes (publishes clear the table
/// long before this in practice). Keys are full feature vectors, so the
/// cap is what bounds worst-case broker memory: [`BrokerMemo::resolve`]
/// never lets the table exceed it, even when a single cycle's fresh set
/// is larger than the whole cap.
const BROKER_MEMO_CAP: usize = 1 << 12;

/// The broker's per-snapshot Q-row memo: state bit-pattern → Q-rows.
/// Cleared on every snapshot publish; holds at most `cap` entries.
struct BrokerMemo {
    cap: usize,
    rows: HashMap<Vec<u32>, Vec<[f32; 2]>>,
}

impl BrokerMemo {
    fn new(cap: usize) -> Self {
        BrokerMemo {
            cap,
            rows: HashMap::new(),
        }
    }

    /// Drop every memoized row (the snapshot changed).
    fn clear(&mut self) {
        self.rows.clear();
    }

    /// Resolve one decision cycle: return one Q-row per key, in key
    /// order, running `infer` at most once over the deduplicated states
    /// not already memoized. `keys[i]` must be the bit pattern of
    /// `states[i]`.
    ///
    /// Replies are assembled from a cycle-local map into which memo hits
    /// are copied *before* any eviction, so the cap backstop below can
    /// never drop a row the current cycle still needs.
    fn resolve(
        &mut self,
        keys: &[Vec<u32>],
        states: &[&[f32]],
        infer: impl FnOnce(&[&[f32]]) -> Vec<Vec<[f32; 2]>>,
    ) -> Vec<Vec<[f32; 2]>> {
        debug_assert_eq!(keys.len(), states.len());
        let mut cycle: HashMap<&Vec<u32>, Vec<[f32; 2]>> = HashMap::new();
        let mut fresh: Vec<(&Vec<u32>, &[f32])> = Vec::new();
        let mut seen: HashSet<&Vec<u32>> = HashSet::new();
        for (key, &state) in keys.iter().zip(states) {
            if !seen.insert(key) {
                continue;
            }
            match self.rows.get(key) {
                Some(hit) => {
                    cycle.insert(key, hit.clone());
                }
                None => fresh.push((key, state)),
            }
        }
        if !fresh.is_empty() {
            let batch: Vec<&[f32]> = fresh.iter().map(|&(_, s)| s).collect();
            let q = infer(&batch);
            debug_assert_eq!(q.len(), fresh.len());
            // Cap backstop: evict earlier cycles' rows, then memoize the
            // fresh rows only while room remains, so the table never
            // exceeds `cap` entries. The reply scatter reads `cycle`,
            // never the memo, so eviction cannot lose a row mid-cycle.
            if self.rows.len() + fresh.len() > self.cap {
                self.rows.clear();
            }
            for (&(key, _), row) in fresh.iter().zip(q) {
                if self.rows.len() < self.cap {
                    self.rows.insert(key.clone(), row.clone());
                }
                cycle.insert(key, row);
            }
        }
        keys.iter().map(|k| cycle[k].clone()).collect()
    }
}

/// The asynchronous actor/learner runner: `actors` parallel experience
/// generators feed one learner thread.
///
/// Semantics match the serial runner (same config fields), but experience
/// arrives asynchronously, so per-step pairing of acting and learning is
/// not bit-identical to the serial path and checkpoint/resume is not
/// supported. Each actor steps `envs_per_actor` environments per decision
/// round; total environment steps across all actors equal
/// `cfg.total_steps`.
pub struct AsyncRunner {
    /// Number of actor threads (≥ 1).
    pub actors: usize,
    /// Route greedy forwards through the cross-actor inference broker
    /// (one fused forward over all actors' pending states per service
    /// cycle — see the module docs) instead of running them per-actor.
    /// Defaults to `true`; trajectories are unaffected either way because
    /// the fused net is per-sample.
    pub batched_inference: bool,
}

impl AsyncRunner {
    /// An async runner with `actors` actor threads and the cross-actor
    /// inference broker enabled (the default configuration).
    pub fn new(actors: usize) -> Self {
        AsyncRunner {
            actors,
            batched_inference: true,
        }
    }

    /// Convenience: trains one agent to completion unobserved. Sweeps and
    /// observed runs should go through
    /// [`crate::experiment::Experiment`].
    ///
    /// # Panics
    ///
    /// Panics if the runner was built with zero actors.
    pub fn train(&self, cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>) -> TrainResult {
        assert!(self.actors > 0, "need at least one actor");
        let task = task::by_name(&cfg.env.task)
            .unwrap_or_else(|| panic!("unknown task `{}`", cfg.env.task));
        let record = run_async(
            0,
            cfg,
            task,
            evaluator,
            self.actors,
            self.batched_inference,
            &mut NullObserver,
            &CancelToken::new(),
        );
        TrainResult {
            designs: record.designs,
            losses: record.losses,
            episode_returns: record.episode_returns,
            steps: record.steps,
        }
    }
}

impl Runner for AsyncRunner {
    fn run(&self, ctx: RunContext<'_>) -> Result<RunOutcome, String> {
        if self.actors == 0 {
            return Err("need at least one actor".to_string());
        }
        if ctx.resume.is_some() {
            return Err(
                "AsyncRunner does not support checkpoint resume; use the serial runner \
                 (actors = 1)"
                    .to_string(),
            );
        }
        if ctx.checkpoint_every.is_some() || ctx.halt_at.is_some() {
            return Err(
                "AsyncRunner does not support checkpointing or halt-at (asynchronous \
                 experience makes resume non-reproducible); use the serial runner \
                 (actors = 1)"
                    .to_string(),
            );
        }
        let record = run_async(
            ctx.run_id,
            ctx.cfg,
            ctx.task,
            ctx.evaluator,
            self.actors,
            self.batched_inference,
            ctx.observer,
            &ctx.cancel,
        );
        // A cancel that lands after the actors already exhausted the
        // budget changes nothing — the run is complete (mirrors the
        // serial runner's `!lp.is_done()` guard); otherwise a cancelled
        // run returns its partial record with `completed == false`: not
        // resumable (no checkpoint), but the designs are not lost.
        let completed = !ctx.cancel.is_cancelled() || record.steps >= ctx.cfg.total_steps;
        Ok(RunOutcome { record, completed })
    }
}

#[allow(clippy::too_many_arguments)]
fn run_async(
    run_id: usize,
    cfg: &AgentConfig,
    circuit_task: Arc<dyn CircuitTask>,
    evaluator: Arc<dyn Evaluator>,
    num_actors: usize,
    batched_inference: bool,
    observer: &mut dyn RunObserver,
    cancel: &CancelToken,
) -> RunRecord {
    let online = PrefixQNet::new(&cfg.qnet);
    let board = Arc::new(PolicyBoard {
        version: AtomicU64::new(1),
        snapshot: RwLock::new(Arc::new(online.frozen())),
    });
    let (tx, rx) = channel::bounded::<Transition>(4096);
    let steps_taken = Arc::new(AtomicU64::new(0));
    let designs: Arc<DesignPool> = Arc::new(Mutex::new(HashMap::new()));
    let schedule = EpsilonSchedule::linear(cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps);
    let observer = Mutex::new(observer);
    let episode_returns: Mutex<Vec<f64>> = Mutex::new(Vec::new());

    let losses = std::thread::scope(|s| {
        // The inference broker: drains every queued request, runs one
        // fused forward over the concatenation, scatters the Q-rows back.
        // Capacity `num_actors` means a round of actors never blocks on
        // the request send (each actor has at most one request in flight).
        let broker_tx = if batched_inference {
            let (btx, brx) = channel::bounded::<InferRequest>(num_actors);
            let board = Arc::clone(&board);
            s.spawn(move || {
                let mut scratch = nn::Scratch::new();
                let mut my_version = board.version.load(Ordering::Acquire);
                let mut snapshot: Arc<FrozenQNet> = board.snapshot.read().clone();
                let mut pending: Vec<InferRequest> = Vec::new();
                // Q-rows already computed under the current snapshot,
                // keyed by the state's exact f32 bit pattern. A memo hit
                // returns precisely the bits a fresh forward would
                // (inference is deterministic and per-sample), so this
                // changes no actor's trajectory — it only skips forwards.
                let mut memo = BrokerMemo::new(BROKER_MEMO_CAP);
                // Blocking recv for the first request of a cycle, then a
                // non-blocking drain of whatever else is already queued.
                // No waiting for stragglers: the memo table makes batch
                // size a minor factor (a state computed this cycle is a
                // memo hit next cycle, whichever request it rides in), so
                // serving immediately minimizes decision latency and
                // context switches. Batch composition cannot change any
                // Q-value, so drain depth is a throughput knob only.
                // Exits when the last actor drops its sender.
                while let Ok(first) = brx.recv() {
                    pending.push(first);
                    while let Ok(more) = brx.try_recv() {
                        pending.push(more);
                    }
                    let published = board.version.load(Ordering::Acquire);
                    if published != my_version {
                        snapshot = board.snapshot.read().clone();
                        my_version = published;
                        memo.clear();
                    }
                    // One bit-exact key per pending state, request order.
                    let keys: Vec<Vec<u32>> = pending
                        .iter()
                        .flat_map(|r| r.states.iter())
                        .map(|s| s.iter().map(|v| v.to_bits()).collect())
                        .collect();
                    let states: Vec<&[f32]> = pending
                        .iter()
                        .flat_map(|r| r.states.iter().map(Vec::as_slice))
                        .collect();
                    // The fused forward covers only the unique states not
                    // already memoized under this snapshot.
                    let rows =
                        memo.resolve(&keys, &states, |batch| snapshot.infer(batch, &mut scratch));
                    let mut row_it = rows.into_iter();
                    for req in pending.drain(..) {
                        let reply: Vec<Vec<[f32; 2]>> =
                            row_it.by_ref().take(req.states.len()).collect();
                        // A send error means the requesting actor already
                        // exited (cancel landed mid-request) — drop the rows.
                        let _ = req.reply.send(reply);
                    }
                }
            });
            Some(btx)
        } else {
            None
        };

        // Actors.
        for actor in 0..num_actors {
            let tx = tx.clone();
            let broker_tx = broker_tx.clone();
            let board = Arc::clone(&board);
            let steps_taken = Arc::clone(&steps_taken);
            let designs = Arc::clone(&designs);
            let evaluator = Arc::clone(&evaluator);
            let circuit_task = Arc::clone(&circuit_task);
            let cfg = cfg.clone();
            let observer = &observer;
            let episode_returns = &episode_returns;
            let cancel = cancel.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((actor as u64 + 1) * 0x9e37));
                let mut scratch = nn::Scratch::new();
                // Broker mode: a private bounded(1) reply lane per actor.
                // The reply sender is cloned into each request so the
                // broker can answer; the receiver stays here.
                let broker = broker_tx.map(|btx| {
                    let (reply_tx, reply_rx) = channel::bounded::<Vec<Vec<[f32; 2]>>>(1);
                    (btx, reply_tx, reply_rx)
                });
                // The actor's policy net is a shared pointer to the
                // learner's latest frozen snapshot — never a copy. The
                // version must be read *before* the snapshot: a publish
                // landing between the two reads then makes the in-loop
                // check refresh immediately, instead of pinning a stale
                // snapshot for a whole sync interval.
                let mut my_version = board.version.load(Ordering::Acquire);
                let mut snapshot: Arc<FrozenQNet> = board.snapshot.read().clone();
                let policy = ScalarizedPolicy::new(cfg.dqn.weight);
                let num_envs = cfg.envs_per_actor.max(1);
                let mut envs: Vec<PrefixEnv> = (0..num_envs)
                    .map(|_| {
                        PrefixEnv::with_task(
                            cfg.env.clone(),
                            Arc::clone(&circuit_task),
                            Arc::clone(&evaluator),
                        )
                    })
                    .collect();
                let mut env_returns = vec![0.0f64; num_envs];
                for env in &mut envs {
                    env.reset(&mut rng);
                    record_design(run_id, &designs, env, observer, 0);
                }
                'acting: loop {
                    // Poll the token per decision round: pause blocks all
                    // actors here (the learner idles on its empty channel),
                    // cancel ends acting — the learner then drains what is
                    // queued and exits when the last sender drops.
                    if cancel.wait_while_paused() {
                        break 'acting;
                    }
                    let claimed = steps_taken.fetch_add(num_envs as u64, Ordering::Relaxed);
                    if claimed >= cfg.total_steps {
                        break;
                    }
                    let round = (num_envs as u64).min(cfg.total_steps - claimed) as usize;
                    // Swap in the newer snapshot when the learner
                    // published one (an Arc clone, not a weight copy).
                    let published = board.version.load(Ordering::Acquire);
                    if published != my_version {
                        snapshot = board.snapshot.read().clone();
                        my_version = published;
                    }
                    let eps = schedule.value(claimed);
                    // One batched forward for the whole environment round.
                    let mut states: Vec<Vec<f32>> =
                        envs[..round].iter().map(PrefixEnv::features).collect();
                    let masks: Vec<Vec<bool>> =
                        envs[..round].iter().map(PrefixEnv::action_mask).collect();
                    let state_refs: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
                    let mask_refs: Vec<&[bool]> = masks.iter().map(Vec::as_slice).collect();
                    let actions = match &broker {
                        Some((btx, reply_tx, reply_rx)) => {
                            let picked = policy.select_actions_with(
                                &state_refs,
                                &mask_refs,
                                eps,
                                &mut rng,
                                |batch| {
                                    let req = InferRequest {
                                        states: batch.iter().map(|s| s.to_vec()).collect(),
                                        reply: reply_tx.clone(),
                                    };
                                    btx.send(req).ok()?;
                                    reply_rx.recv().ok()
                                },
                            );
                            match picked {
                                Some(actions) => actions,
                                // Broker gone mid-decision (it panicked and
                                // its unwind dropped our reply sender):
                                // abandon the round so the scope can
                                // re-raise the broker's panic.
                                None => break 'acting,
                            }
                        }
                        None => policy.select_actions(
                            &*snapshot,
                            &state_refs,
                            &mask_refs,
                            eps,
                            &mut rng,
                            &mut scratch,
                        ),
                    };
                    for (i, action) in actions.into_iter().enumerate() {
                        let action = action.expect("legal action always exists");
                        let env = &mut envs[i];
                        let step_index = claimed + i as u64;
                        let outcome = env.step_flat(action);
                        record_design(run_id, &designs, env, observer, step_index);
                        env_returns[i] += (cfg.dqn.weight[0] * outcome.reward[0]
                            + cfg.dqn.weight[1] * outcome.reward[1])
                            as f64;
                        observer.lock().on_event(
                            run_id,
                            &Event::Step {
                                step: step_index,
                                epsilon: eps,
                                reward: outcome.reward,
                            },
                        );
                        let t = Transition {
                            state: std::mem::take(&mut states[i]),
                            action,
                            reward: outcome.reward,
                            next_state: env.features(),
                            next_mask: env.action_mask(),
                            done: false,
                        };
                        if tx.send(t).is_err() {
                            break 'acting; // learner gone
                        }
                        if outcome.truncated {
                            let finished = {
                                let mut returns = episode_returns.lock();
                                returns.push(env_returns[i]);
                                returns.len()
                            };
                            observer.lock().on_event(
                                run_id,
                                &Event::EpisodeEnd {
                                    episode: finished,
                                    scalarized_return: env_returns[i],
                                },
                            );
                            env_returns[i] = 0.0;
                            env.reset(&mut rng);
                            record_design(run_id, &designs, env, observer, step_index);
                        }
                    }
                }
                drop(tx);
            });
        }
        drop(tx);
        // The actors hold the only remaining request senders: the broker
        // (if any) exits exactly when the last actor does.
        drop(broker_tx);

        // Learner (runs on this thread).
        let target = PrefixQNet::new(&QNetConfig {
            seed: cfg.qnet.seed ^ 0x5eed,
            ..cfg.qnet.clone()
        });
        let mut dqn = DoubleDqn::new(online, target, cfg.dqn.clone());
        let mut replay = ReplayBuffer::new(cfg.replay_capacity);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdead);
        let mut losses = Vec::new();
        let mut since_publish = 0u64;
        while let Ok(t) = rx.recv() {
            replay.push(t);
            // Drain whatever else is queued to keep actors unblocked.
            while let Ok(t) = rx.try_recv() {
                replay.push(t);
            }
            if let Some(loss) = dqn.train_step(&replay, &mut rng) {
                losses.push(loss);
                observer.lock().on_event(
                    run_id,
                    &Event::GradStep {
                        grad_step: losses.len() as u64,
                        loss,
                    },
                );
                since_publish += 1;
                if since_publish >= cfg.dqn.target_sync_every {
                    since_publish = 0;
                    *board.snapshot.write() = Arc::new(dqn.online().frozen());
                    board.version.fetch_add(1, Ordering::Release);
                }
            }
        }
        losses
    });

    let designs = Arc::try_unwrap(designs)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());
    // Sort by canonical key so async reports are stable to consume even
    // though the pool filled in nondeterministic order.
    let mut designs: Vec<(Vec<u64>, (PrefixGraph, ObjectivePoint))> = designs.into_iter().collect();
    designs.sort_by(|a, b| a.0.cmp(&b.0));
    // A cancelled run executed only the rounds claimed before the token
    // fired; a completed one claims past the budget but truncates its last
    // round, so the executed count is exactly the budget.
    let steps = steps_taken.load(Ordering::Relaxed).min(cfg.total_steps);
    RunRecord {
        run: run_id,
        w_area: cfg.dqn.weight[0] as f64,
        steps,
        designs: designs.into_iter().map(|(_, d)| d).collect(),
        losses,
        episode_returns: episode_returns.into_inner(),
    }
}

fn record_design(
    run_id: usize,
    designs: &DesignPool,
    env: &PrefixEnv,
    observer: &Mutex<&mut dyn RunObserver>,
    step: u64,
) {
    let key = env.graph().canonical_key();
    let mut pool = designs.lock();
    if pool.contains_key(&key) {
        return;
    }
    pool.insert(key, (env.graph().clone(), env.metrics()));
    drop(pool);
    observer.lock().on_event(
        run_id,
        &Event::DesignFound {
            step,
            point: env.metrics(),
            size: env.graph().size(),
            depth: env.graph().depth() as usize,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedEvaluator;
    use crate::task::{Adder, TaskEvaluator};

    fn run(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>, actors: usize) -> RunRecord {
        run_async(
            0,
            cfg,
            Arc::new(Adder),
            evaluator,
            actors,
            true,
            &mut NullObserver,
            &CancelToken::new(),
        )
    }

    #[test]
    fn async_training_completes_and_harvests() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 400;
        let eval = Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder)));
        let result = run(&cfg, eval.clone(), 3);
        assert!(
            result.designs.len() > 20,
            "{} designs",
            result.designs.len()
        );
        assert!(!result.losses.is_empty(), "learner never trained");
        for (g, _) in &result.designs {
            g.verify_legal().unwrap();
        }
        // Actors share the cache: repeated start states must hit.
        assert!(eval.hits() > 0);
        // Async now reports per-environment episode returns too.
        assert!(!result.episode_returns.is_empty());
    }

    #[test]
    fn async_and_serial_explore_comparable_design_counts() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 300;
        let mut lp = crate::agent::TrainLoop::new(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        lp.run_to_completion(0, &mut NullObserver);
        let serial = lp.into_parts().1;
        let parallel = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), 2);
        // Same step budget → same order of magnitude of distinct designs.
        let (a, b) = (serial.designs.len() as f64, parallel.designs.len() as f64);
        assert!(a / b < 4.0 && b / a < 4.0, "serial {a} vs async {b}");
    }

    #[test]
    fn single_env_actors_still_work() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 200;
        cfg.envs_per_actor = 1;
        let result = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), 2);
        assert!(
            result.designs.len() > 10,
            "{} designs",
            result.designs.len()
        );
    }

    /// The broker must be a pure transport: routing greedy forwards
    /// through it instead of running them on the actor may not perturb a
    /// trajectory. With one actor the run is fully deterministic once the
    /// learner never publishes (`target_sync_every` beyond the step
    /// budget pins the initial snapshot), so broker-on and broker-off
    /// must agree **bitwise** — same steps, same designs with the same
    /// metrics, same episode returns in the same order. Exploration coins
    /// are drawn before the request is sent, so RNG consumption matches
    /// by construction; this test pins the rest of the plumbing (request
    /// framing, reply scatter, state copies).
    #[test]
    fn broker_and_local_inference_produce_identical_trajectories() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 240;
        cfg.dqn.target_sync_every = u64::MAX; // never publish: frozen policy
        let mut records = [true, false].map(|batched| {
            run_async(
                0,
                &cfg,
                Arc::new(Adder),
                Arc::new(TaskEvaluator::analytical(Adder)),
                1,
                batched,
                &mut NullObserver,
                &CancelToken::new(),
            )
        });
        let [with_broker, without] = &mut records;
        assert_eq!(with_broker.steps, without.steps);
        assert_eq!(
            with_broker.episode_returns, without.episode_returns,
            "episode returns diverged"
        );
        assert_eq!(
            with_broker.designs.len(),
            without.designs.len(),
            "design pools diverged"
        );
        for ((ga, pa), (gb, pb)) in with_broker.designs.iter().zip(&without.designs) {
            assert_eq!(ga.canonical_key(), gb.canonical_key());
            assert_eq!((pa.area, pa.delay), (pb.area, pb.delay));
        }
    }

    fn bit_keys(states: &[Vec<f32>]) -> Vec<Vec<u32>> {
        states
            .iter()
            .map(|s| s.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn slices(states: &[Vec<f32>]) -> Vec<&[f32]> {
        states.iter().map(Vec::as_slice).collect()
    }

    /// Per-state fake forward: Q-row is a function of the state alone,
    /// so a memoized reply and a recomputed reply are distinguishable
    /// from a wrong-row reply but not from each other.
    fn fake_infer(batch: &[&[f32]]) -> Vec<Vec<[f32; 2]>> {
        batch.iter().map(|s| vec![[s[0], -s[0]]]).collect()
    }

    /// Regression: memo-cap eviction used to `clear()` rows that the
    /// current cycle's reply scatter still needed — a state that is a
    /// memo *hit* this cycle is excluded from the fused batch, so after
    /// eviction its lookup panicked and took down the whole run. Trip
    /// the cap in a cycle that contains such a duplicate and check every
    /// row still comes back, with the table staying within the cap.
    #[test]
    fn broker_memo_cap_eviction_preserves_current_cycle_hits() {
        let mut memo = BrokerMemo::new(4);
        let warm: Vec<Vec<f32>> = (0..3).map(|i| vec![i as f32]).collect();
        let rows = memo.resolve(&bit_keys(&warm), &slices(&warm), fake_infer);
        assert_eq!(rows.len(), 3);
        // 3 memoized + 2 fresh > cap 4, and the first state is a hit.
        let trip: Vec<Vec<f32>> = vec![vec![0.0], vec![10.0], vec![11.0]];
        let rows = memo.resolve(&bit_keys(&trip), &slices(&trip), fake_infer);
        assert_eq!(
            rows,
            vec![vec![[0.0, 0.0]], vec![[10.0, -10.0]], vec![[11.0, -11.0]],]
        );
        assert!(memo.rows.len() <= 4, "{} entries", memo.rows.len());
    }

    /// The cap is a hard bound even when one cycle's fresh set alone
    /// exceeds it: the overflow portion is served but not memoized.
    #[test]
    fn broker_memo_never_exceeds_cap() {
        let mut memo = BrokerMemo::new(2);
        let big: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32 + 1.0]).collect();
        let rows = memo.resolve(&bit_keys(&big), &slices(&big), fake_infer);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &vec![[i as f32 + 1.0, -(i as f32 + 1.0)]]);
        }
        assert!(memo.rows.len() <= 2, "{} entries", memo.rows.len());
    }

    /// Repeats — across cycles and within one cycle — reach the fused
    /// forward exactly once; every key still gets its row.
    #[test]
    fn broker_memo_deduplicates_hits_and_in_cycle_repeats() {
        let mut memo = BrokerMemo::new(16);
        let states: Vec<Vec<f32>> = vec![vec![1.0], vec![2.0], vec![1.0]];
        let forwarded = std::cell::Cell::new(0usize);
        let counting = |batch: &[&[f32]]| {
            forwarded.set(forwarded.get() + batch.len());
            fake_infer(batch)
        };
        let first = memo.resolve(&bit_keys(&states), &slices(&states), counting);
        assert_eq!(forwarded.get(), 2, "in-cycle repeat reached the net");
        let second = memo.resolve(&bit_keys(&states), &slices(&states), counting);
        assert_eq!(forwarded.get(), 2, "memo hit reached the net");
        assert_eq!(first, second);
        memo.clear();
        memo.resolve(&bit_keys(&states), &slices(&states), counting);
        assert_eq!(forwarded.get(), 4, "clear() must drop memoized rows");
    }

    #[test]
    fn async_runner_rejects_resume() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let mut lp = crate::agent::TrainLoop::new(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        for _ in 0..10 {
            lp.step_once(0, &mut NullObserver);
        }
        let ckpt = lp.checkpoint();
        let runner = AsyncRunner::new(2);
        let err = runner
            .run(RunContext {
                run_id: 0,
                cfg: &cfg,
                task: Arc::new(Adder),
                evaluator: Arc::new(TaskEvaluator::analytical(Adder)),
                observer: &mut NullObserver,
                checkpoint_every: None,
                on_checkpoint: None,
                resume: Some(ckpt),
                halt_at: None,
                cancel: CancelToken::new(),
            })
            .unwrap_err();
        assert!(err.contains("resume"), "{err}");
    }

    #[test]
    fn async_runner_rejects_checkpoint_requests() {
        let cfg = AgentConfig::tiny(8, 0.5);
        for (every, halt) in [(Some(50), None), (None, Some(50))] {
            let err = AsyncRunner::new(2)
                .run(RunContext {
                    run_id: 0,
                    cfg: &cfg,
                    task: Arc::new(Adder),
                    evaluator: Arc::new(TaskEvaluator::analytical(Adder)),
                    observer: &mut NullObserver,
                    checkpoint_every: every,
                    on_checkpoint: None,
                    resume: None,
                    halt_at: halt,
                    cancel: CancelToken::new(),
                })
                .unwrap_err();
            assert!(err.contains("checkpointing"), "{err}");
        }
    }

    /// Serve-shutdown audit (DESIGN.md §13): a panic inside the async
    /// system must propagate out of `run_async`, not hang it. An
    /// evaluator panic unwinds an actor; the scope unwind drops its
    /// transition sender, the learner's `recv` disconnects once the last
    /// sender is gone, surviving actors exit through the send-error break,
    /// and the scope re-raises the panic. Symmetrically, a learner panic
    /// drops the receiver during unwind, every blocked `tx.send` errors,
    /// and all actors break — the `Arc<FrozenQNet>` snapshots they hold
    /// keep the learner's published weights alive until they exit, so no
    /// use-after-free window exists. This test pins the actor direction
    /// (the only one with an injection point) with a watchdog.
    #[test]
    fn evaluator_panic_propagates_instead_of_hanging() {
        struct PanicAfter {
            calls: AtomicU64,
        }
        impl Evaluator for PanicAfter {
            fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
                if self.calls.fetch_add(1, Ordering::SeqCst) >= 20 {
                    panic!("synthetic oracle failure");
                }
                ObjectivePoint {
                    area: graph.size() as f64,
                    delay: graph.depth() as f64,
                }
            }
            fn name(&self) -> &str {
                "panic-after"
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut cfg = AgentConfig::tiny(8, 0.5);
                cfg.total_steps = 100_000;
                AsyncRunner::new(3).train(
                    &cfg,
                    Arc::new(PanicAfter {
                        calls: AtomicU64::new(0),
                    }),
                )
            }));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("async system hung after an actor panic");
        assert!(panicked, "the panic must propagate to the caller");
    }

    /// Serve-shutdown audit (DESIGN.md §13): a `ChannelObserver` whose
    /// receiver is dropped mid-run must not stall training. The observer
    /// sends with `let _ =`, and the compat channel's `send` returns an
    /// error (rather than blocking) once the receiver is gone — even for
    /// senders already blocked on a full channel — so events are dropped
    /// and the run finishes.
    #[test]
    fn observer_receiver_dropped_mid_run_does_not_stall() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 300;
        // Capacity 1: without the disconnect-errors guarantee the very
        // first unconsumed event after the drop would block forever.
        let (mut observer, rx) = crate::experiment::ChannelObserver::bounded(1);
        let (tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let record = run_async(
                0,
                &cfg,
                Arc::new(Adder),
                Arc::new(TaskEvaluator::analytical(Adder)),
                2,
                true,
                &mut observer,
                &CancelToken::new(),
            );
            let _ = tx.send(record);
        });
        // Consume one event to prove the stream was live, then hang up
        // (the compat receiver has no recv_timeout; poll with a deadline).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if rx.try_recv().is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no event ever arrived"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(rx);
        let record = done
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run stalled after the observer receiver was dropped");
        assert_eq!(record.steps, 300);
    }

    #[test]
    fn cancel_token_stops_async_run_with_partial_record() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 1_000_000; // far beyond what a test should run
        let token = CancelToken::new();
        let cancel_at = 300u64;
        let canceller = token.clone();
        let mut observer = crate::experiment::CallbackObserver::new(move |_, e| {
            if let Event::Step { step, .. } = e {
                if *step >= cancel_at {
                    canceller.cancel();
                }
            }
        });
        let record = run_async(
            0,
            &cfg,
            Arc::new(Adder),
            Arc::new(TaskEvaluator::analytical(Adder)),
            2,
            true,
            &mut observer,
            &token,
        );
        assert!(
            record.steps >= cancel_at && record.steps < cfg.total_steps,
            "cancel must stop the run early (steps = {})",
            record.steps
        );
        assert!(!record.designs.is_empty(), "partial pool must survive");
    }

    #[test]
    fn pause_and_resume_round_trips_async_run() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 200;
        let token = CancelToken::new();
        token.pause();
        let handle = {
            let token = token.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                run_async(
                    0,
                    &cfg,
                    Arc::new(Adder),
                    Arc::new(TaskEvaluator::analytical(Adder)),
                    2,
                    true,
                    &mut NullObserver,
                    &token,
                )
            })
        };
        // Paused before the first decision round: nothing may finish.
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert!(!handle.is_finished(), "paused actors must block");
        token.resume();
        let record = handle.join().expect("run completes after resume");
        assert_eq!(record.steps, 200);
    }
}
