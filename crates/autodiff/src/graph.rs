//! The tape: node arena, op recording, and the backward driver.

use crate::op::Op;
use crate::params::{ParamId, ParamStore};
use enhancenet_tensor::Tensor;

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) u32);

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
    pub inputs: Vec<Var>,
    /// Populated for leaves bound to a parameter; `write_grads` targets it.
    pub param: Option<ParamId>,
}

/// A define-by-run tape. See the [crate docs](crate) for the lifecycle.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) grads: Vec<Option<Tensor>>,
    pub(crate) inputs: Vec<Var>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new(), grads: Vec::new(), inputs: Vec::new() }
    }

    /// A tape with preallocated node capacity (RNN unrolls know their size).
    pub fn with_capacity(n: usize) -> Self {
        Self { nodes: Vec::with_capacity(n), grads: Vec::new(), inputs: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op, inputs: Vec<Var>) -> Var {
        let id = self.nodes.len() as u32;
        assert!(id < u32::MAX, "graph node limit exceeded");
        self.nodes.push(Node { value, op, inputs, param: None });
        Var(id)
    }

    /// Records `op` over `inputs`: computes the node's value with the op's
    /// one forward definition ([`Op::forward_into`]) into a fresh tensor
    /// and appends the node. Every eager op method ends here.
    pub(crate) fn apply(&mut self, op: Op, inputs: &[Var]) -> Var {
        let mut value = Tensor::default();
        let nodes = &self.nodes;
        op.forward_into(|i| &nodes[inputs[i].0 as usize].value, &mut value);
        self.push(value, op, inputs.to_vec())
    }

    /// Binds an external (non-trainable) tensor as a leaf.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, vec![])
    }

    /// Binds a **request input** as a leaf: like [`Graph::constant`], but
    /// the node is additionally marked as per-request data. The tape treats
    /// it identically; plan compilation ([`crate::Plan::compile`]) uses the
    /// mark to distinguish data that varies between executions (rebound on
    /// every run) from trace-time constants baked into the plan.
    pub fn input(&mut self, value: Tensor) -> Var {
        let v = self.constant(value);
        self.inputs.push(v);
        v
    }

    /// Binds a parameter's current value as a leaf; its gradient is routed
    /// back to the store by [`Graph::write_grads`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push(store.value(id).clone(), Op::Leaf, vec![]);
        self.nodes[v.0 as usize].param = Some(id);
        v
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0 as usize].value
    }

    /// The accumulated gradient of a node, if `backward` reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0 as usize).and_then(Option::as_ref)
    }

    /// Runs the reverse sweep from a **scalar** `loss` node, accumulating
    /// gradients for every node that (transitively) feeds it.
    ///
    /// # Panics
    ///
    /// Panics when `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).numel(),
            1,
            "backward() requires a scalar loss, got shape {:?}",
            self.value(loss).shape()
        );
        self.backward_seeded(loss, Tensor::ones(self.value(loss).shape()));
    }

    /// Reverse sweep with an explicit output gradient (vector–Jacobian
    /// product). `seed` must match the shape of `output`.
    pub fn backward_seeded(&mut self, output: Var, seed: Tensor) {
        assert_eq!(
            seed.shape(),
            self.value(output).shape(),
            "seed shape {:?} must match output shape {:?}",
            seed.shape(),
            self.value(output).shape()
        );
        let _timer = enhancenet_telemetry::span("autodiff.backward");
        if enhancenet_telemetry::enabled() {
            enhancenet_telemetry::count("autodiff.backward.sweeps", 1);
            enhancenet_telemetry::count("autodiff.tape.nodes", self.nodes.len() as u64);
        }
        self.grads = (0..self.nodes.len()).map(|_| None).collect();
        self.grads[output.0 as usize] = Some(seed);
        let mut visited = 0u64;
        for i in (0..=output.0 as usize).rev() {
            let Some(gy) = self.grads[i].take() else { continue };
            self.propagate(i, &gy);
            self.grads[i] = Some(gy);
            visited += 1;
        }
        if enhancenet_telemetry::enabled() {
            enhancenet_telemetry::count("autodiff.backward.nodes_visited", visited);
        }
    }

    /// Accumulates leaf gradients into their bound parameters. Call after
    /// [`Graph::backward`]. Leaves without gradients (not on the loss path)
    /// are skipped.
    pub fn write_grads(&self, store: &mut ParamStore) {
        for (i, node) in self.nodes.iter().enumerate() {
            if let (Some(pid), Some(g)) = (node.param, self.grads.get(i).and_then(Option::as_ref)) {
                store.accumulate_grad(pid, g);
            }
        }
    }

    /// Accumulates leaf gradients into a detached [`GradBuffer`](crate::GradBuffer) instead of
    /// the store. This is the worker-side half of sharded training: threads
    /// holding only `&ParamStore` export their gradients here, and the
    /// reducing thread folds buffers into the store in a fixed order
    /// ([`GradBuffer::reduce_into`](crate::GradBuffer::reduce_into)).
    pub fn export_grads(&self, buf: &mut crate::gradbuf::GradBuffer) {
        for (i, node) in self.nodes.iter().enumerate() {
            if let (Some(pid), Some(g)) = (node.param, self.grads.get(i).and_then(Option::as_ref)) {
                buf.accumulate(pid, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_roundtrip() {
        let mut g = Graph::new();
        let v = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(g.value(v).data(), &[1.0, 2.0]);
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
    }

    #[test]
    fn grad_is_none_before_backward() {
        let mut g = Graph::new();
        let v = g.constant(Tensor::ones(&[2]));
        assert!(g.grad(v).is_none());
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let v = g.constant(Tensor::ones(&[2]));
        g.backward(v);
    }

    #[test]
    fn backward_on_leaf_scalar() {
        let mut g = Graph::new();
        let v = g.constant(Tensor::scalar(5.0));
        g.backward(v);
        assert_eq!(g.grad(v).unwrap().item(), 1.0);
    }

    #[test]
    fn param_binding_reads_store_value() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![4.0], &[1]));
        let mut g = Graph::new();
        let v = g.param(&store, id);
        assert_eq!(g.value(v).data(), &[4.0]);
    }

    #[test]
    fn write_grads_accumulates_into_store() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![4.0, 5.0], &[2]));
        let mut g = Graph::new();
        let w = g.param(&store, id);
        let s = g.sum_all(w);
        g.backward(s);
        g.write_grads(&mut store);
        assert_eq!(store.grad(id).data(), &[1.0, 1.0]);
        // A second write accumulates.
        g.write_grads(&mut store);
        assert_eq!(store.grad(id).data(), &[2.0, 2.0]);
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // y = x*x + x  => dy/dx = 2x + 1 (paths through mul twice + add)
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![3.0], &[1]));
        let sq = g.mul(x, x);
        let y = g.add(sq, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[7.0]);
    }

    #[test]
    fn backward_seeded_scales_gradient() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = g.mul_scalar(x, 3.0);
        g.backward_seeded(y, Tensor::from_vec(vec![10.0, 100.0], &[2]));
        assert_eq!(g.grad(x).unwrap().data(), &[30.0, 300.0]);
    }
}
