//! A replica of `TrainLoop::step_once` built only from public calls, with
//! a span around each call into a layer: `rl` (act, train step, replay
//! push), `core::env` (features, mask, step, reset) and — through
//! [`TracedNet`] and the evaluator handed in — `nn`, `cache` and `synth`.
//!
//! The replica must compute exactly what `TrainLoop` computes; the traced
//! `train-sweep-16b` run checks its losses and design pool bit for bit
//! against an untraced run at the same seed, so a later change to
//! `TrainLoop` cannot leave the traced run measuring a different program.

use crate::trace::span;
use crate::wrappers::TracedNet;
use prefix_graph::PrefixGraph;
use prefixrl_core::agent::AgentConfig;
use prefixrl_core::env::PrefixEnv;
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::qnet::{PrefixQNet, QNetConfig};
use prefixrl_core::task::CircuitTask;
use rand::prelude::*;
use rl::{DoubleDqn, EpsilonSchedule, ReplayBuffer, Transition};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one replicated agent run produced.
pub struct ReplicaRecord {
    /// Distinct designs in canonical-key order (as `RunRecord::designs`).
    pub designs: Vec<(PrefixGraph, ObjectivePoint)>,
    /// Per-gradient-step losses.
    pub losses: Vec<f32>,
    /// Environment steps executed.
    pub steps: u64,
}

/// Runs one agent of `cfg` to its step budget, as `TrainLoop` would.
pub fn run_agent(
    cfg: &AgentConfig,
    task: Arc<dyn CircuitTask>,
    evaluator: Arc<dyn Evaluator>,
) -> ReplicaRecord {
    let _agent = span("experiment.agent");
    let mut env = {
        let _s = span("env.reset");
        PrefixEnv::with_task(cfg.env.clone(), task, evaluator)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (online, target) = {
        let _s = span("nn.init");
        (
            PrefixQNet::new(&cfg.qnet),
            PrefixQNet::new(&QNetConfig {
                seed: cfg.qnet.seed ^ 0x5eed,
                ..cfg.qnet.clone()
            }),
        )
    };
    let mut dqn = DoubleDqn::new(
        TracedNet::online(online),
        TracedNet::target(target),
        cfg.dqn.clone(),
    );
    let mut replay = ReplayBuffer::new(cfg.replay_capacity);
    let schedule = EpsilonSchedule::linear(cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps);
    {
        let _s = span("env.reset");
        env.reset(&mut rng);
    }
    let mut designs: BTreeMap<Vec<u64>, (PrefixGraph, ObjectivePoint)> = BTreeMap::new();
    let record = |env: &PrefixEnv, designs: &mut BTreeMap<_, _>| {
        designs
            .entry(env.graph().canonical_key())
            .or_insert_with(|| (env.graph().clone(), env.metrics()));
    };
    record(&env, &mut designs);
    let mut losses = Vec::new();
    for step in 0..cfg.total_steps {
        let eps = schedule.value(step);
        let state = {
            let _s = span("env.features");
            env.features()
        };
        let mask = {
            let _s = span("env.action_mask");
            env.action_mask()
        };
        let action = {
            let _s = span("rl.act");
            dqn.act(&state, &mask, eps, &mut rng)
                .expect("prefix env always has a legal action")
        };
        let outcome = {
            let _s = span("env.step");
            env.step_flat(action)
        };
        record(&env, &mut designs);
        let next_state = {
            let _s = span("env.features");
            env.features()
        };
        let next_mask = {
            let _s = span("env.action_mask");
            env.action_mask()
        };
        {
            let _s = span("rl.replay_push");
            replay.push(Transition {
                state,
                action,
                reward: outcome.reward,
                next_state,
                next_mask,
                done: false,
            });
        }
        if cfg.train_every > 0 && step.is_multiple_of(cfg.train_every) {
            let _s = span("rl.train_step");
            if let Some(loss) = dqn.train_step(&replay, &mut rng) {
                losses.push(loss);
            }
        }
        if outcome.truncated {
            let _s = span("env.reset");
            env.reset(&mut rng);
            record(&env, &mut designs);
        }
    }
    ReplicaRecord {
        designs: designs.into_values().collect(),
        losses,
        steps: cfg.total_steps,
    }
}

/// Whether two runs produced bit-identical losses and design pools.
pub fn bit_identical(
    a_designs: &[(PrefixGraph, ObjectivePoint)],
    a_losses: &[f32],
    b: &ReplicaRecord,
) -> bool {
    let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(a_losses) == bits(&b.losses)
        && a_designs.len() == b.designs.len()
        && a_designs
            .iter()
            .zip(&b.designs)
            .all(|((ga, pa), (gb, pb))| {
                ga.canonical_key() == gb.canonical_key()
                    && pa.area.to_bits() == pb.area.to_bits()
                    && pa.delay.to_bits() == pb.delay.to_bits()
            })
}
