//! The PrefixRL serial training loop.
//!
//! One agent is trained per scalarization weight `w`; the paper trains 15
//! agents with `w_area ∈ [0.10, 0.99]` and assembles the Pareto frontier
//! from the designs they discover. Every state visited during training is
//! harvested into the design pool (with its evaluated objectives), which is
//! what the figure harnesses bin into fronts.
//!
//! The loop itself lives in [`TrainLoop`], a resumable state machine: it
//! steps one environment transition at a time, streams
//! [`crate::experiment::Event`]s to a [`crate::experiment::RunObserver`],
//! and can snapshot its complete state into a
//! [`crate::checkpoint::Checkpoint`] (and be rebuilt from one) such that a
//! resumed run is bit-identical to an uninterrupted one. Sessions of one
//! or more agents go through [`crate::experiment::Experiment`].

use crate::checkpoint::Checkpoint;
use crate::env::{EnvConfig, PrefixEnv};
use crate::evaluator::{Evaluator, ObjectivePoint};
use crate::experiment::{Event, NullObserver, RunObserver};
use crate::pareto::ParetoFront;
use crate::qnet::{PrefixQNet, QNetConfig};
use crate::task::{self, CircuitTask};
use prefix_graph::PrefixGraph;
use rand::prelude::*;
use rl::{DoubleDqn, DqnConfig, EpsilonSchedule, ReplayBuffer, Transition};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Full configuration of one PrefixRL agent.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Environment settings.
    pub env: EnvConfig,
    /// Q-network settings.
    pub qnet: QNetConfig,
    /// Double-DQN settings (includes the scalarization weight).
    pub dqn: DqnConfig,
    /// Total environment steps.
    pub total_steps: u64,
    /// Replay buffer capacity (paper: 4×10⁵).
    pub replay_capacity: usize,
    /// Exploration start ε.
    pub eps_start: f64,
    /// Exploration end ε (annealed to ~0 as in the paper).
    pub eps_end: f64,
    /// Steps over which ε anneals.
    pub eps_decay_steps: u64,
    /// Gradient steps per environment step.
    pub train_every: u64,
    /// Environments each async actor steps in lockstep, batching its
    /// Q-network forwards (the serial path always uses one).
    pub envs_per_actor: usize,
    /// Master seed.
    pub seed: u64,
}

impl AgentConfig {
    /// A minimal configuration for unit tests (analytical reward scale).
    pub fn tiny(n: u16, w_area: f32) -> Self {
        AgentConfig {
            env: EnvConfig::analytical(n),
            qnet: QNetConfig::tiny(n),
            dqn: DqnConfig {
                batch_size: 16,
                min_replay: 64,
                ..DqnConfig::paper(w_area)
            },
            total_steps: 300,
            replay_capacity: 4_000,
            eps_start: 1.0,
            eps_end: 0.05,
            eps_decay_steps: 200,
            train_every: 1,
            envs_per_actor: 2,
            seed: 0,
        }
    }

    /// A CPU-tractable experiment configuration.
    pub fn small(n: u16, w_area: f32, total_steps: u64) -> Self {
        AgentConfig {
            env: EnvConfig::analytical(n),
            qnet: QNetConfig::small(n),
            dqn: DqnConfig {
                batch_size: 16,
                min_replay: 200,
                ..DqnConfig::paper(w_area)
            },
            total_steps,
            replay_capacity: 20_000,
            eps_start: 1.0,
            eps_end: 0.02,
            eps_decay_steps: total_steps * 3 / 4,
            train_every: 1,
            envs_per_actor: 2,
            seed: 0,
        }
    }

    /// The paper's full-scale configuration (5×10⁵ steps, B=32, C=256,
    /// replay 4×10⁵, Adam 4e-5) — constructible but sized for a cluster.
    pub fn paper(n: u16, w_area: f32) -> Self {
        AgentConfig {
            env: EnvConfig::synthesis(n),
            qnet: QNetConfig::paper(n),
            dqn: DqnConfig::paper(w_area),
            total_steps: 500_000,
            replay_capacity: 400_000,
            eps_start: 1.0,
            eps_end: 0.0,
            eps_decay_steps: 400_000,
            train_every: 1,
            envs_per_actor: 4,
            seed: 0,
        }
    }
}

/// Everything a training run produces.
pub struct TrainResult {
    /// Every distinct design visited, with its evaluated objectives, in
    /// deterministic (canonical-key) order for the serial path.
    pub designs: Vec<(PrefixGraph, ObjectivePoint)>,
    /// Per-gradient-step losses.
    pub losses: Vec<f32>,
    /// Scalarized episode returns (training diagnostic).
    pub episode_returns: Vec<f64>,
    /// Environment steps executed.
    pub steps: u64,
}

impl TrainResult {
    /// The Pareto front over all visited designs.
    pub fn front(&self) -> ParetoFront<PrefixGraph> {
        self.designs.iter().map(|(g, p)| (*p, g.clone())).collect()
    }

    /// The design minimizing the scalarized objective.
    pub fn best_scalarized(
        &self,
        w_area: f64,
        c_area: f64,
        c_delay: f64,
    ) -> Option<&(PrefixGraph, ObjectivePoint)> {
        self.designs.iter().min_by(|a, b| {
            let cost =
                |p: &ObjectivePoint| w_area * c_area * p.area + (1.0 - w_area) * c_delay * p.delay;
            cost(&a.1).total_cmp(&cost(&b.1))
        })
    }
}

/// The serial PrefixRL training loop as a resumable state machine.
///
/// Owns everything one agent's run needs — environment, Double-DQN, replay
/// buffer, ε-schedule position, RNG, and the harvested design pool — and
/// advances one environment step per [`TrainLoop::step_once`] call. The
/// whole state snapshots into a [`Checkpoint`] between steps, and
/// [`TrainLoop::from_checkpoint`] rebuilds it such that the continued run
/// is bit-identical to one that never stopped.
pub struct TrainLoop {
    cfg: AgentConfig,
    env: PrefixEnv,
    dqn: DoubleDqn<PrefixQNet>,
    replay: ReplayBuffer,
    schedule: EpsilonSchedule,
    rng: StdRng,
    /// Canonical key → design; `BTreeMap` so result order is deterministic.
    designs: BTreeMap<Vec<u64>, (PrefixGraph, ObjectivePoint)>,
    losses: Vec<f32>,
    episode_returns: Vec<f64>,
    episode_return: f64,
    step: u64,
    /// Set until the start state has been announced to an observer (the
    /// constructor has none to emit `DesignFound` to).
    pending_initial_record: bool,
}

impl TrainLoop {
    /// Initializes a fresh run: seeds the RNG, builds online/target
    /// networks, resets the environment, and records the start state. The
    /// circuit task is resolved from `cfg.env.task` through the built-in
    /// registry (panics on an unknown id); custom tasks go through
    /// [`TrainLoop::with_task`].
    pub fn new(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>) -> Self {
        Self::with_env(cfg, PrefixEnv::new(cfg.env.clone(), evaluator))
    }

    /// Initializes a fresh run over an explicit (possibly custom) circuit
    /// task; `cfg.env.task` is overwritten with the task's id so
    /// checkpoints record it.
    pub fn with_task(
        cfg: &AgentConfig,
        task: Arc<dyn CircuitTask>,
        evaluator: Arc<dyn Evaluator>,
    ) -> Self {
        Self::with_env(cfg, PrefixEnv::with_task(cfg.env.clone(), task, evaluator))
    }

    fn with_env(cfg: &AgentConfig, mut env: PrefixEnv) -> Self {
        let mut cfg = cfg.clone();
        // The environment resolved (and possibly rewrote) the task id;
        // keep the checkpointed config in sync with it.
        cfg.env = env.config().clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let online = PrefixQNet::new(&cfg.qnet);
        let target = PrefixQNet::new(&QNetConfig {
            seed: cfg.qnet.seed ^ 0x5eed,
            ..cfg.qnet.clone()
        });
        let dqn = DoubleDqn::new(online, target, cfg.dqn.clone());
        let replay = ReplayBuffer::new(cfg.replay_capacity);
        let schedule = EpsilonSchedule::linear(cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps);
        env.reset(&mut rng);
        TrainLoop {
            cfg,
            env,
            dqn,
            replay,
            schedule,
            rng,
            designs: BTreeMap::new(),
            losses: Vec::new(),
            episode_returns: Vec::new(),
            episode_return: 0.0,
            step: 0,
            pending_initial_record: true,
        }
    }

    /// Rebuilds a loop from a [`Checkpoint`] so that continuing produces
    /// bit-identical losses and designs to the uninterrupted run. The
    /// checkpoint's recorded task is resolved through the built-in
    /// registry.
    ///
    /// # Errors
    ///
    /// Fails if the checkpoint's task id is not registered, or on
    /// architecture mismatch between the checkpoint and the network built
    /// from its own config (corrupt checkpoint).
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        evaluator: Arc<dyn Evaluator>,
    ) -> Result<Self, String> {
        let task = task::by_name(&ckpt.cfg.env.task).ok_or_else(|| {
            format!(
                "checkpoint records unknown task `{}` (registered: {:?})",
                ckpt.cfg.env.task,
                task::TASK_NAMES
            )
        })?;
        Self::from_checkpoint_with_task(ckpt, task, evaluator)
    }

    /// Rebuilds a loop from a [`Checkpoint`] over an explicit task,
    /// refusing a task mismatch — resuming an adder checkpoint as a
    /// prefix-OR run would silently train on the wrong rewards.
    ///
    /// # Errors
    ///
    /// Fails if `task` does not match the checkpoint's recorded task, or
    /// on architecture mismatch (corrupt checkpoint).
    pub fn from_checkpoint_with_task(
        ckpt: &Checkpoint,
        task: Arc<dyn CircuitTask>,
        evaluator: Arc<dyn Evaluator>,
    ) -> Result<Self, String> {
        if task.task_id() != ckpt.cfg.env.task {
            return Err(format!(
                "checkpoint task mismatch: checkpoint was trained on task `{}`, \
                 resume requested task `{}`",
                ckpt.cfg.env.task,
                task.task_id()
            ));
        }
        let cfg = ckpt.cfg.clone();
        let mut env = PrefixEnv::with_task(cfg.env.clone(), task, evaluator);
        env.restore(ckpt.env_graph.clone(), ckpt.env_steps as usize);
        let online = PrefixQNet::new(&cfg.qnet);
        let target = PrefixQNet::new(&QNetConfig {
            seed: cfg.qnet.seed ^ 0x5eed,
            ..cfg.qnet.clone()
        });
        let mut dqn = DoubleDqn::new(online, target, cfg.dqn.clone());
        dqn.load_state_snapshot(&ckpt.trainer)?;
        dqn.online_mut().load_opt_state(&ckpt.opt)?;
        let schedule = EpsilonSchedule::linear(cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps);
        let mut designs = BTreeMap::new();
        for (g, p) in &ckpt.designs {
            designs.insert(g.canonical_key(), (g.clone(), *p));
        }
        Ok(TrainLoop {
            cfg,
            env,
            dqn,
            replay: ckpt.replay.clone(),
            schedule,
            rng: StdRng::from_state(ckpt.rng),
            designs,
            losses: ckpt.losses.clone(),
            episode_returns: ckpt.episode_returns.clone(),
            episode_return: ckpt.episode_return,
            step: ckpt.step,
            pending_initial_record: false,
        })
    }

    /// Snapshots the complete loop state between environment steps.
    pub fn checkpoint(&mut self) -> Checkpoint {
        if self.pending_initial_record {
            // Checkpointing before any step: fold the start state into the
            // pool silently so the snapshot is self-contained.
            Self::record(&mut self.designs, &self.env);
            self.pending_initial_record = false;
        }
        let trainer = self.dqn.save_state();
        let net_digest = nn::serialize::digest(&trainer.online);
        Checkpoint {
            version: Checkpoint::FORMAT_VERSION,
            cfg: self.cfg.clone(),
            step: self.step,
            trainer,
            opt: self.dqn.online_mut().opt_state(),
            replay: self.replay.clone(),
            rng: self.rng.state(),
            env_graph: self.env.graph().clone(),
            env_steps: self.env.steps() as u64,
            episode_return: self.episode_return,
            designs: self.designs.values().cloned().collect(),
            losses: self.losses.clone(),
            episode_returns: self.episode_returns.clone(),
            net_digest,
        }
    }

    /// Convenience: trains a fresh agent to completion unobserved — the
    /// one-shot equivalent of the old `train` free function. Sweeps and
    /// observed runs should go through [`crate::experiment::Experiment`].
    pub fn run(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>) -> TrainResult {
        let mut lp = TrainLoop::new(cfg, evaluator);
        lp.run_to_completion(0, &mut NullObserver);
        lp.into_parts().1
    }

    /// Environment steps executed so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Whether the step budget is exhausted.
    pub fn is_done(&self) -> bool {
        self.step >= self.cfg.total_steps
    }

    /// The agent configuration this loop runs.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    /// Executes one environment step (action selection, transition,
    /// harvesting, replay push, gradient step, episode bookkeeping),
    /// streaming events to `observer` under run id `run`. Returns `false`
    /// once the step budget is exhausted (no step executed).
    pub fn step_once(&mut self, run: usize, observer: &mut dyn RunObserver) -> bool {
        if self.is_done() {
            return false;
        }
        if self.pending_initial_record {
            self.record_observed(run, observer);
            self.pending_initial_record = false;
        }
        let eps = self.schedule.value(self.step);
        let state = self.env.features();
        let mask = self.env.action_mask();
        let action = self
            .dqn
            .act(&state, &mask, eps, &mut self.rng)
            .expect("prefix env always has a legal action");
        let outcome = self.env.step_flat(action);
        self.record_observed(run, observer);
        let w = self.cfg.dqn.weight;
        let scalarized = (w[0] * outcome.reward[0] + w[1] * outcome.reward[1]) as f64;
        self.episode_return += scalarized;
        observer.on_event(
            run,
            &Event::Step {
                step: self.step,
                epsilon: eps,
                reward: outcome.reward,
            },
        );
        self.replay.push(Transition {
            state,
            action,
            reward: outcome.reward,
            next_state: self.env.features(),
            next_mask: self.env.action_mask(),
            done: false, // no terminal states; truncation bootstraps
        });
        if self.cfg.train_every > 0 && self.step.is_multiple_of(self.cfg.train_every) {
            if let Some(loss) = self.dqn.train_step(&self.replay, &mut self.rng) {
                self.losses.push(loss);
                observer.on_event(
                    run,
                    &Event::GradStep {
                        grad_step: self.losses.len() as u64,
                        loss,
                    },
                );
            }
        }
        if outcome.truncated {
            self.episode_returns.push(self.episode_return);
            observer.on_event(
                run,
                &Event::EpisodeEnd {
                    episode: self.episode_returns.len(),
                    scalarized_return: self.episode_return,
                },
            );
            self.episode_return = 0.0;
            self.env.reset(&mut self.rng);
            self.record_observed(run, observer);
        }
        self.step += 1;
        true
    }

    /// Runs until the step budget is exhausted.
    pub fn run_to_completion(&mut self, run: usize, observer: &mut dyn RunObserver) {
        while self.step_once(run, observer) {}
    }

    /// Runs until the step budget is exhausted or `cancel` fires, polling
    /// the token between environment steps (a pause blocks right there
    /// with no state lost). Returns `true` when the budget was exhausted,
    /// `false` when stopped by cancellation — in which case the loop is
    /// intact mid-run and [`TrainLoop::checkpoint`] captures it.
    pub fn run_while(
        &mut self,
        run: usize,
        observer: &mut dyn RunObserver,
        cancel: &crate::experiment::CancelToken,
    ) -> bool {
        loop {
            if cancel.wait_while_paused() {
                return false;
            }
            if !self.step_once(run, observer) {
                return true;
            }
        }
    }

    /// Consumes the loop, yielding the trainer and the run record.
    pub fn into_parts(mut self) -> (DoubleDqn<PrefixQNet>, TrainResult) {
        if self.pending_initial_record {
            Self::record(&mut self.designs, &self.env);
        }
        let result = TrainResult {
            designs: self.designs.into_values().collect(),
            losses: self.losses,
            episode_returns: self.episode_returns,
            steps: self.step,
        };
        (self.dqn, result)
    }

    fn record(
        designs: &mut BTreeMap<Vec<u64>, (PrefixGraph, ObjectivePoint)>,
        env: &PrefixEnv,
    ) -> bool {
        let key = env.graph().canonical_key();
        if designs.contains_key(&key) {
            return false;
        }
        designs.insert(key, (env.graph().clone(), env.metrics()));
        true
    }

    fn record_observed(&mut self, run: usize, observer: &mut dyn RunObserver) {
        if Self::record(&mut self.designs, &self.env) {
            observer.on_event(
                run,
                &Event::DesignFound {
                    step: self.step,
                    point: self.env.metrics(),
                    size: self.env.graph().size(),
                    depth: self.env.graph().depth() as usize,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedEvaluator;
    use crate::task::{by_name, Adder, PrefixOr, TaskEvaluator};

    fn run(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>) -> TrainResult {
        TrainLoop::run(cfg, evaluator)
    }

    #[test]
    fn tiny_training_run_completes_and_harvests_designs() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let eval = Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder)));
        let result = run(&cfg, eval.clone());
        assert_eq!(result.steps, 300);
        assert!(
            result.designs.len() > 20,
            "only {} designs",
            result.designs.len()
        );
        assert!(!result.losses.is_empty(), "training never started");
        // The cache must have seen repeated states (start states recur).
        assert!(eval.hits() > 0);
        // All harvested designs are legal.
        for (g, p) in &result.designs {
            g.verify_legal().unwrap();
            assert!(p.area > 0.0 && p.delay > 0.0);
        }
    }

    #[test]
    fn front_is_nonempty_and_consistent() {
        let cfg = AgentConfig::tiny(8, 0.3);
        let result = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        let front = result.front();
        assert!(!front.is_empty());
        // No design may dominate a front member.
        for (p, _) in front.iter() {
            for (_, q) in &result.designs {
                assert!(!q.dominates(p), "front member dominated");
            }
        }
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let a = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        let b = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        assert_eq!(a.designs.len(), b.designs.len());
        assert_eq!(a.losses, b.losses);
        // BTreeMap-backed pools make the design ordering itself stable.
        for ((ga, pa), (gb, pb)) in a.designs.iter().zip(&b.designs) {
            assert_eq!(ga.canonical_key(), gb.canonical_key());
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn greedy_rollout_emits_designs() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let eval: Arc<dyn Evaluator> = Arc::new(TaskEvaluator::analytical(Adder));
        let mut lp = TrainLoop::new(&cfg, Arc::clone(&eval));
        lp.run_to_completion(0, &mut NullObserver);
        let (mut dqn, _) = lp.into_parts();
        let designs = crate::experiment::greedy_designs(&mut dqn, &cfg.env, eval, 2, 7);
        assert!(designs.len() > 2);
    }

    #[test]
    fn checkpoint_records_task_and_refuses_mismatch() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let or_eval: Arc<dyn Evaluator> = Arc::new(TaskEvaluator::analytical(PrefixOr));
        let mut lp = TrainLoop::with_task(&cfg, by_name("prefix-or").unwrap(), or_eval.clone());
        for _ in 0..20 {
            lp.step_once(0, &mut NullObserver);
        }
        let ckpt = lp.checkpoint();
        assert_eq!(ckpt.cfg.env.task, "prefix-or");
        // Matching task resumes fine…
        assert!(TrainLoop::from_checkpoint_with_task(
            &ckpt,
            by_name("prefix-or").unwrap(),
            or_eval
        )
        .is_ok());
        // …a different task is refused loudly.
        let err = TrainLoop::from_checkpoint_with_task(
            &ckpt,
            Arc::new(Adder),
            Arc::new(TaskEvaluator::analytical(Adder)),
        )
        .err()
        .expect("mismatch must fail");
        assert!(err.contains("task mismatch"), "{err}");
        assert!(err.contains("prefix-or") && err.contains("adder"), "{err}");
    }

    #[test]
    fn run_while_polls_cancel_and_stays_checkpointable() {
        use crate::experiment::CancelToken;
        let cfg = AgentConfig::tiny(8, 0.5);
        let eval: Arc<dyn Evaluator> = Arc::new(TaskEvaluator::analytical(Adder));
        let mut lp = TrainLoop::new(&cfg, Arc::clone(&eval));
        // A pre-cancelled token stops before the first step.
        let token = CancelToken::new();
        token.cancel();
        assert!(!lp.run_while(0, &mut NullObserver, &token));
        assert_eq!(lp.step(), 0);
        // The stopped loop is intact: checkpoint + rebuild works mid-run.
        let ckpt = lp.checkpoint();
        let resumed = TrainLoop::from_checkpoint(&ckpt, Arc::clone(&eval)).unwrap();
        assert_eq!(resumed.step(), 0);
        // A live token lets the same loop run out its budget.
        assert!(lp.run_while(0, &mut NullObserver, &CancelToken::new()));
        assert!(lp.is_done());
    }

    #[test]
    fn best_scalarized_tracks_weight() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let result = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        let small = result.best_scalarized(1.0, 1.0, 1.0).unwrap();
        let fast = result.best_scalarized(0.0, 1.0, 1.0).unwrap();
        assert!(small.1.area <= fast.1.area);
        assert!(fast.1.delay <= small.1.delay);
    }
}
