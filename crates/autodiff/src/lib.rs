//! # enhancenet-autodiff
//!
//! Reverse-mode, define-by-run automatic differentiation over
//! [`enhancenet_tensor::Tensor`].
//!
//! The design mirrors the tape used by mainstream deep-learning frameworks:
//!
//! * A [`Graph`] is an arena of nodes. Every operation appends a node holding
//!   its forward value, the operation tag, and the indices of its inputs.
//! * [`Op`] is the op table: each operation's forward kernel is defined once
//!   there, and both the tape and the compiled-plan executor
//!   ([`Plan`], [`PlanExecutor`]) compute through that one definition, so a
//!   plan's output equals the tape's bit for bit. Backward rules are keyed
//!   by the same [`Op`].
//! * [`Var`] is a copyable handle (an index) into the graph.
//! * Trainable parameters live outside the graph in a [`ParamStore`]; each
//!   training step builds a fresh graph, binds parameter values as leaves
//!   with [`Graph::param`], runs [`Graph::backward`] from a scalar loss, and
//!   flushes leaf gradients back with [`Graph::write_grads`].
//!
//! Gradient correctness is enforced by the finite-difference checker in
//! [`check`] and by property tests over every operation.
//!
//! ```
//! use enhancenet_autodiff::{Graph, ParamStore};
//! use enhancenet_tensor::Tensor;
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::from_vec(vec![2.0], &[1]));
//!
//! let mut g = Graph::new();
//! let wv = g.param(&store, w);
//! let x = g.constant(Tensor::from_vec(vec![3.0], &[1]));
//! let y = g.mul(wv, x);
//! let loss = g.sum_all(y); // d(loss)/dw = x = 3
//! g.backward(loss);
//! g.write_grads(&mut store);
//! assert_eq!(store.grad(w).data(), &[3.0]);
//! ```

mod backward;
pub mod check;
mod exec;
mod gradbuf;
mod graph;
mod op;
mod ops;
mod params;
mod plan;
mod serialize;

pub use exec::PlanExecutor;
pub use gradbuf::GradBuffer;
pub use graph::{Graph, Var};
pub use op::Op;
pub use params::{ParamId, ParamStore};
pub use plan::{Plan, PlanCache, PlanError};
pub use serialize::CheckpointError;
