//! Span-recording wrappers around the layers' public traits: a
//! `QNetwork`/`QInfer` wrapper around [`PrefixQNet`] (the `nn` layer as
//! `DoubleDqn` drives it) and an [`Evaluator`] wrapper placed outside
//! (`cache.*`) or inside (`synth.*`) a `CachedEvaluator`.

use crate::trace::{count, span};
use nn::Scratch;
use prefix_graph::PrefixGraph;
use prefixrl_core::cache::{CacheConfig, CachedEvaluator, EvalCache};
use prefixrl_core::evalsvc::EvalService;
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::experiment::EvalStack;
use prefixrl_core::qnet::PrefixQNet;
use prefixrl_core::task::{CircuitTask, ObjectiveBackend, TaskEvaluator};
use rl::{QInfer, QNetwork};
use std::sync::Arc;

/// [`PrefixQNet`] with spans around every call `DoubleDqn` makes. The
/// `target` flag names the role, so inference splits into
/// `nn.infer_online` and `nn.infer_target`.
pub struct TracedNet {
    inner: PrefixQNet,
    target: bool,
}

impl TracedNet {
    /// Wraps the online network.
    pub fn online(inner: PrefixQNet) -> Self {
        TracedNet {
            inner,
            target: false,
        }
    }

    /// Wraps the target network.
    pub fn target(inner: PrefixQNet) -> Self {
        TracedNet {
            inner,
            target: true,
        }
    }
}

impl QInfer for TracedNet {
    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn infer(&self, states: &[&[f32]], scratch: &mut Scratch) -> Vec<Vec<[f32; 2]>> {
        let (name, samples) = if self.target {
            ("nn.infer_target", "nn.infer_target.samples")
        } else {
            ("nn.infer_online", "nn.infer_online.samples")
        };
        let _s = span(name);
        count(samples, states.len() as f64);
        self.inner.infer(states, scratch)
    }
}

impl QNetwork for TracedNet {
    fn forward(&mut self, states: &[&[f32]], train: bool) -> Vec<Vec<[f32; 2]>> {
        let _s = span(if train {
            "nn.forward_train"
        } else {
            "nn.forward_eval"
        });
        if train {
            count("nn.forward_train.samples", states.len() as f64);
        }
        self.inner.forward(states, train)
    }

    fn apply_gradient(&mut self, grad: &[Vec<[f32; 2]>]) {
        let _s = span("nn.apply_gradient");
        self.inner.apply_gradient(grad)
    }

    fn state(&mut self) -> Vec<Vec<f32>> {
        let _s = span("nn.sync");
        self.inner.state()
    }

    fn load_state(&mut self, state: &[Vec<f32>]) -> Result<(), String> {
        let _s = span("nn.sync");
        self.inner.load_state(state)
    }
}

/// An [`Evaluator`] recording a span named `name` around each call and
/// forwarding everything else (including the cache discriminant and the
/// task binding, which the cache and environment check).
pub struct TracedEval {
    inner: Arc<dyn Evaluator>,
    name: &'static str,
}

impl TracedEval {
    /// Wraps `inner`, naming its spans `name`.
    pub fn new(inner: Arc<dyn Evaluator>, name: &'static str) -> Self {
        TracedEval { inner, name }
    }
}

impl Evaluator for TracedEval {
    fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
        let _s = span(self.name);
        self.inner.evaluate(graph)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cache_discriminant(&self) -> u64 {
        self.inner.cache_discriminant()
    }

    fn bound_task_id(&self) -> Option<&str> {
        self.inner.bound_task_id()
    }
}

/// An empty cache store with the shard count `Experiment` uses by default.
pub fn fresh_store() -> Arc<EvalCache> {
    Arc::new(EvalCache::new(CacheConfig::with_shards(16)))
}

/// `task` scored by `backend` through a `CachedEvaluator` over `store`,
/// between two span wrappers: `cache.evaluate` outside, `synth.evaluate`
/// inside (misses only). Returns the outer wrapper, and the stack
/// `ExperimentBuilder::eval_stack` takes (an `EvalService` over the outer
/// wrapper).
pub fn traced_stack(
    task: Arc<dyn CircuitTask>,
    backend: Arc<dyn ObjectiveBackend>,
    store: Arc<EvalCache>,
) -> (Arc<dyn Evaluator>, EvalStack) {
    let inner: Box<dyn Evaluator> = Box::new(TracedEval::new(
        Arc::new(TaskEvaluator::new(task, backend)),
        "synth.evaluate",
    ));
    let cache = Arc::new(CachedEvaluator::with_store(inner, store));
    let outer: Arc<dyn Evaluator> = Arc::new(TracedEval::new(
        Arc::clone(&cache) as Arc<dyn Evaluator>,
        "cache.evaluate",
    ));
    let service = Arc::new(EvalService::new(Arc::clone(&outer), 2));
    (outer, (cache, service))
}
