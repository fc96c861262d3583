//! A minimal pure-Rust deep-learning library for the PrefixRL Q-network.
//!
//! The paper's RL/DL stack ran on GPUs with a mainstream framework; the Rust
//! ecosystem substitution (see DESIGN.md) is this crate: NCHW tensors,
//! `Conv2d` (same padding), `BatchNorm2d`, `LeakyReLU` and `Linear` layers,
//! with full backpropagation, the Adam optimizer, Huber/MSE losses,
//! parameter (de)serialization and finite-difference gradient checking.
//! Networks compose these as typed [`Layer`] trees (the PrefixRL Q-network
//! lives in `prefixrl_core::qnet`).
//!
//! The design favours determinism *and* throughput: every matrix product
//! routes through the register-tiled, cache-blocked kernels in [`compute`]
//! (explicit AVX lanes via [`simd`] under the default-on `simd` feature,
//! parallelized over disjoint row/sample panels on scoped threads, with a
//! fixed per-element reduction order so results are bit-identical with
//! vectors on or off and at every thread count — see
//! [`compute::set_threads`] and [`simd::set_enabled`]); transient buffers come
//! from a reusable [`Scratch`] arena threaded through
//! [`Layer::forward_with`]/[`Layer::backward_with`] so steady-state
//! training allocates nothing; and inference has a dedicated fast path —
//! immutable [`Layer::infer`] plus [`Conv2d::fused`] batch-norm folding —
//! that skips backward caching entirely. Layers own their parameters and
//! cached activations, a network is a [`Layer`] tree, and optimizers walk
//! parameters through a visitor, so target-network synchronization and
//! checkpointing are just state copies. (DESIGN.md §11.)
//!
//! # Example
//!
//! ```
//! use nn::{Adam, BatchNorm2d, Conv2d, Layer, LeakyReLU, Tensor};
//!
//! // conv3×3 → batch-norm → LeakyReLU, chained by hand; a composite
//! // network is a struct implementing `Layer` over typed fields like these.
//! let mut conv = Conv2d::new(3, 8, 3, 42);
//! let mut bn = BatchNorm2d::new(8);
//! let mut act = LeakyReLU::default();
//! let x = Tensor::ones([2, 3, 8, 8]);
//! let y = act.forward(&bn.forward(&conv.forward(&x, true), true), true);
//! assert_eq!(y.shape(), [2, 8, 8, 8]);
//! let grad = act.backward(&Tensor::ones([2, 8, 8, 8]));
//! conv.backward(&bn.backward(&grad));
//! let mut adam = Adam::new(1e-3);
//! adam.step(&mut conv);
//! ```

#![warn(missing_docs)]

pub mod compute;
pub mod gradcheck;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod serialize;
pub mod simd;
pub mod tensor;

pub use compute::{Scratch, ThreadPool};
pub use layers::{BatchNorm2d, Conv2d, Layer, LeakyReLU, Linear, Param};
pub use loss::{huber_loss_grad, mse_loss_grad};
pub use optim::{Adam, AdamState};
pub use tensor::Tensor;
