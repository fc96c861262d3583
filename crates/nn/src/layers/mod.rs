//! Neural-network layers with explicit forward/backward passes.

mod activation;
mod batchnorm;
mod conv;
mod linear;

pub use activation::LeakyReLU;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::Linear;

use crate::compute::Scratch;
use crate::tensor::Tensor;

/// A trainable parameter: data plus accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// The parameter values.
    pub data: Vec<f32>,
    /// The gradient accumulated by the last backward pass.
    pub grad: Vec<f32>,
}

impl Param {
    /// Creates a parameter with zeroed gradient.
    pub fn new(data: Vec<f32>) -> Self {
        let grad = vec![0.0; data.len()];
        Param { data, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during a **training-mode** forward pass
/// and consume it in [`Layer::backward`]; a backward call must follow the
/// `train == true` forward call it differentiates. Evaluation-mode forwards
/// (`train == false`) and [`Layer::infer`] skip all caching — they cannot
/// be backpropagated through, and they keep inference-only holders (async
/// actors, frozen snapshots) from accumulating resident cache memory.
///
/// The `*_with` entry points thread a [`Scratch`] arena through the pass so
/// transient buffers (im2col panels, column gradients, outputs) are reused
/// call over call; the plain [`Layer::forward`]/[`Layer::backward`]
/// wrappers allocate a throwaway arena per call for convenience. Parameters
/// are exposed through a visitor so optimizers, serialization and
/// target-network sync can walk any composite network in a deterministic
/// order.
pub trait Layer {
    /// Computes the layer output. `train` selects training behaviour
    /// (e.g. batch statistics in [`BatchNorm2d`]) and backward caching.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_with(x, train, &mut Scratch::new())
    }

    /// [`Layer::forward`] drawing transient buffers from `scratch`.
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor;

    /// Backpropagates `grad_out` (∂L/∂output), accumulating parameter
    /// gradients and returning ∂L/∂input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_with(grad_out, &mut Scratch::new())
    }

    /// [`Layer::backward`] drawing transient buffers from `scratch`.
    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor;

    /// Evaluation-mode forward through `&self`: no cache writes, no
    /// running-statistic updates, shareable across threads. This is the
    /// path frozen policy snapshots serve actors through.
    fn infer(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor;

    /// Visits every parameter in a deterministic order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }

    /// Visits every non-parameter state buffer (e.g. batch-norm running
    /// statistics) in a deterministic order. Buffers are carried by
    /// serialization and target-network synchronization but are not touched
    /// by optimizers.
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        let _ = f;
    }

    /// Clears all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Samples a He-normal weight via Box-Muller from a seeded RNG.
pub(crate) fn he_normal(rng: &mut rand::rngs::StdRng, fan_in: usize) -> f32 {
    use rand::Rng;
    let std = (2.0 / fan_in as f32).sqrt();
    let u1: f32 = rng.random::<f32>().max(1e-9);
    let u2: f32 = rng.random::<f32>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    z * std
}
