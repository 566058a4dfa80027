//! The eager op methods: the tape's public vocabulary.
//!
//! Each method only normalizes its arguments (negative axes, concat sizes)
//! and records one node through `Graph::apply`, which computes the value
//! with the op's single forward definition in [`Op`](crate::Op) — the same
//! one the plan executor runs. No method here calls a tensor kernel.

use crate::graph::{Graph, Var};
use crate::op::Op;
use enhancenet_tensor::{normalize_axis, CsrMatrix, Tensor, TopkPattern};
use std::sync::Arc;

impl Graph {
    // ------------------------------------------------------------- binary

    /// Broadcast addition.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Add, &[a, b])
    }

    /// Broadcast subtraction.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Sub, &[a, b])
    }

    /// Broadcast elementwise multiplication (⊙ in the paper).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Mul, &[a, b])
    }

    /// Broadcast elementwise division.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Div, &[a, b])
    }

    // -------------------------------------------------------------- unary

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.apply(Op::Neg, &[a])
    }

    /// Adds a constant scalar.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.apply(Op::AddScalar(c), &[a])
    }

    /// Multiplies by a constant scalar.
    pub fn mul_scalar(&mut self, a: Var, c: f32) -> Var {
        self.apply(Op::MulScalar(c), &[a])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.apply(Op::Sigmoid, &[a])
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.apply(Op::Tanh, &[a])
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.apply(Op::Relu, &[a])
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        self.apply(Op::Exp, &[a])
    }

    /// Elementwise natural log. The input must be strictly positive.
    pub fn ln(&mut self, a: Var) -> Var {
        self.apply(Op::Ln, &[a])
    }

    /// Elementwise square root. The input must be non-negative.
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.apply(Op::Sqrt, &[a])
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&mut self, a: Var) -> Var {
        self.apply(Op::Abs, &[a])
    }

    /// Elementwise square (cheaper than `mul(a, a)` — one node).
    pub fn square(&mut self, a: Var) -> Var {
        self.apply(Op::Square, &[a])
    }

    // ------------------------------------------------------------- matmul

    /// 2-D matrix multiply.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::MatMul, &[a, b])
    }

    /// Transpose-fused 2-D multiply `a · bᵀ` for `b` stored `[n,k]`.
    ///
    /// Replaces the `transpose` + `matmul` node pair wherever a product
    /// against a transposed operand is needed (attention-style scores,
    /// similarity matrices): one node, no materialized transpose, and the
    /// backward rule is likewise transpose-free.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::MatMulNT, &[a, b])
    }

    /// Batched 3-D matrix multiply `[b,m,k] x [b,k,n]`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Bmm, &[a, b])
    }

    /// Batched transpose-fused multiply `aᵦ · bᵦᵀ` for `b` stored `[b,n,k]`.
    ///
    /// The batched analogue of [`Graph::matmul_nt`] — replaces
    /// `transpose_batched` + `bmm` (the dynamic-attention score pattern)
    /// with a single fused node.
    pub fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::BmmNT, &[a, b])
    }

    /// `[m,k] x [b,k,n] -> [b,m,n]` (shared adjacency × batched signal).
    pub fn matmul_broadcast_left(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::MatMulBroadcastLeft, &[a, b])
    }

    /// `[..., k] x [k,n] -> [..., n]` (signal of any rank × shared filter).
    ///
    /// Leading axes fold into one GEMM inside the kernel; no reshape nodes
    /// or data copies are needed on either the forward or backward pass.
    pub fn matmul_broadcast_right(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::MatMulBroadcastRight, &[a, b])
    }

    // ------------------------------------------------------------ softmax

    /// Softmax along `axis`.
    pub fn softmax(&mut self, a: Var, axis: isize) -> Var {
        self.apply(Op::Softmax { axis }, &[a])
    }

    /// Masked, renormalized softmax over the last axis: entries with
    /// `mask > 0` get softmax weights renormalized over the surviving set;
    /// masked entries are exactly 0; fully masked slices collapse to zeros
    /// (callers add an explicit fallback such as a self-loop). The mask
    /// receives no gradient.
    pub fn masked_softmax(&mut self, logits: Var, mask: Var) -> Var {
        self.apply(Op::MaskedSoftmax, &[logits, mask])
    }

    // ------------------------------------------------------------- sparse

    /// Pattern-restricted attention scores
    /// `out[.., i, j] = ⟨a[.., i, :], b[.., cols(i,j), :]⟩` for a top-k
    /// column pattern. `a` is `[rows, e]` / `[batch, rows, e]`, `b` is
    /// `[cols, e]` / `[batch, cols, e]`; the output is `[.., rows, k]`.
    /// Only the retained dot products are computed — the dense `rows × cols`
    /// score matrix never materializes.
    pub fn gather_dot_nt(&mut self, a: Var, b: Var, pattern: Arc<TopkPattern>) -> Var {
        self.apply(Op::GatherDotNT { pattern }, &[a, b])
    }

    /// Dense-out product of a **constant** CSR matrix with a (possibly
    /// batched) signal: `[.., cols, c] → [.., rows, c]`. `csr_t` must be
    /// the transpose of `csr` (build it once with
    /// [`CsrMatrix::transpose`]); the backward pass multiplies by it, and
    /// the matrix itself receives no gradient.
    pub fn spmm_csr(&mut self, csr: Arc<CsrMatrix>, csr_t: Arc<CsrMatrix>, x: Var) -> Var {
        debug_assert_eq!(
            (csr.rows(), csr.cols(), csr.nnz()),
            (csr_t.cols(), csr_t.rows(), csr_t.nnz()),
            "spmm_csr: csr_t is not the transpose of csr"
        );
        self.apply(Op::SpmmCsr { csr, csr_t }, &[x])
    }

    /// Dense-out product of top-k pattern values with a signal:
    /// `out[.., i, :] = Σⱼ vals[.., i, j] · x[.., cols(i,j), :]`. `vals` is
    /// `[rows, k]` (broadcast over a batched signal) or `[batch, rows, k]`.
    /// Gradients scatter **only** into the retained entries.
    pub fn spmm_topk(&mut self, vals: Var, x: Var, pattern: Arc<TopkPattern>) -> Var {
        self.apply(Op::SpmmTopk { pattern }, &[vals, x])
    }

    // --------------------------------------------------------- reductions

    /// Sum of all elements to a rank-0 scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.apply(Op::SumAll, &[a])
    }

    /// Mean of all elements to a rank-0 scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.apply(Op::MeanAll, &[a])
    }

    /// Sum along one axis (negative axes allowed), removing it.
    pub fn sum_axis(&mut self, a: Var, axis: isize) -> Var {
        let axis = normalize_axis(axis, self.value(a).rank());
        self.apply(Op::SumAxis { axis }, &[a])
    }

    /// Mean along one axis, removing it.
    pub fn mean_axis(&mut self, a: Var, axis: isize) -> Var {
        let axis = normalize_axis(axis, self.value(a).rank());
        self.apply(Op::MeanAxis { axis }, &[a])
    }

    // -------------------------------------------------------------- shape

    /// Reshape (element count preserved; `usize::MAX` infers one axis).
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        self.apply(Op::Reshape { shape: shape.to_vec() }, &[a])
    }

    /// Axis permutation.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        self.apply(Op::Permute { perm: perm.to_vec() }, &[a])
    }

    /// 2-D transpose (sugar over permute).
    pub fn transpose(&mut self, a: Var) -> Var {
        self.permute(a, &[1, 0])
    }

    /// Batched transpose of the last two axes of a rank-3 value.
    pub fn transpose_batched(&mut self, a: Var) -> Var {
        self.permute(a, &[0, 2, 1])
    }

    /// Concatenates along `axis` (negative allowed).
    pub fn concat(&mut self, parts: &[Var], axis: isize) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let axis = normalize_axis(axis, self.value(parts[0]).rank());
        let sizes = parts.iter().map(|&p| self.value(p).shape()[axis]).collect();
        self.apply(Op::Concat { axis, sizes }, parts)
    }

    /// Stacks same-shaped values along a new leading axis.
    pub fn stack(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "stack of zero vars");
        let unsqueezed: Vec<Var> = parts
            .iter()
            .map(|&p| {
                let mut shape = vec![1];
                shape.extend_from_slice(self.value(p).shape());
                self.reshape(p, &shape)
            })
            .collect();
        self.concat(&unsqueezed, 0)
    }

    /// Contiguous slice `[start, stop)` along `axis` (negative allowed).
    pub fn slice_axis(&mut self, a: Var, axis: isize, start: usize, stop: usize) -> Var {
        let axis = normalize_axis(axis, self.value(a).rank());
        self.apply(Op::Slice { axis, start, stop }, &[a])
    }

    /// Selects one index along `axis`, removing the axis.
    pub fn index_axis(&mut self, a: Var, axis: isize, index: usize) -> Var {
        let sliced = self.slice_axis(a, axis, index, index + 1);
        let mut shape = self.value(sliced).shape().to_vec();
        shape.remove(normalize_axis(axis, shape.len()));
        self.reshape(sliced, &shape)
    }

    /// Front zero-padding along `axis` (causal padding).
    pub fn pad_front(&mut self, a: Var, axis: isize, count: usize) -> Var {
        let axis = normalize_axis(axis, self.value(a).rank());
        self.apply(Op::PadFront { axis, count }, &[a])
    }

    /// Broadcasts `a` up to `shape` (which must be broadcast-compatible).
    pub fn broadcast_to(&mut self, a: Var, shape: &[usize]) -> Var {
        self.apply(Op::BroadcastTo { shape: shape.to_vec() }, &[a])
    }

    // ----------------------------------------------------------- composed

    /// `a + b * c` (fused convenience used by gates).
    pub fn add_mul(&mut self, a: Var, b: Var, c: Var) -> Var {
        let bc = self.mul(b, c);
        self.add(a, bc)
    }

    /// Mean absolute error between `pred` and constant `target`, masked.
    ///
    /// `mask` must broadcast against `pred`; the loss is
    /// `Σ|pred-target|·mask / Σmask`. With an all-ones mask this is plain
    /// MAE. This is the training loss used throughout the paper's
    /// experimental setting (masked MAE, as in DCRNN / Graph WaveNet).
    pub fn masked_mae(&mut self, pred: Var, target: &Tensor, mask: &Tensor) -> Var {
        let mask_sum = mask.sum_all().max(1e-6);
        self.masked_mae_with_denom(pred, target, mask, mask_sum)
    }

    /// [`Graph::masked_mae`] with an explicit denominator:
    /// `Σ|pred-target|·mask / denom`.
    ///
    /// The sharded trainer scores each window on its own tape but normalizes
    /// by the *whole batch's* mask sum, so per-window losses sum to one
    /// batch loss whose value and gradients are independent of how windows
    /// are grouped into shards.
    pub fn masked_mae_with_denom(
        &mut self,
        pred: Var,
        target: &Tensor,
        mask: &Tensor,
        denom: f32,
    ) -> Var {
        let t = self.constant(target.clone());
        let m = self.constant(mask.clone());
        let diff = self.sub(pred, t);
        let a = self.abs(diff);
        let masked = self.mul(a, m);
        let s = self.sum_all(masked);
        self.mul_scalar(s, 1.0 / denom)
    }

    /// Masked mean squared error (same masking semantics as
    /// [`Graph::masked_mae`]).
    pub fn masked_mse(&mut self, pred: Var, target: &Tensor, mask: &Tensor) -> Var {
        let mask_sum = mask.sum_all().max(1e-6);
        let t = self.constant(target.clone());
        let m = self.constant(mask.clone());
        let diff = self.sub(pred, t);
        let sq = self.square(diff);
        let masked = self.mul(sq, m);
        let s = self.sum_all(masked);
        self.mul_scalar(s, 1.0 / mask_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(g: &mut Graph, data: &[f32], shape: &[usize]) -> Var {
        g.constant(Tensor::from_vec(data.to_vec(), shape))
    }

    #[test]
    fn forward_values_match_tensor_ops() {
        let mut g = Graph::new();
        let a = c(&mut g, &[1.0, 2.0], &[2]);
        let b = c(&mut g, &[3.0, 4.0], &[2]);
        let sum = g.add(a, b);
        let diff = g.sub(a, b);
        let prod = g.mul(a, b);
        let quot = g.div(b, a);
        assert_eq!(g.value(sum).data(), &[4.0, 6.0]);
        assert_eq!(g.value(diff).data(), &[-2.0, -2.0]);
        assert_eq!(g.value(prod).data(), &[3.0, 8.0]);
        assert_eq!(g.value(quot).data(), &[3.0, 2.0]);
    }

    #[test]
    fn stack_builds_leading_axis() {
        let mut g = Graph::new();
        let a = c(&mut g, &[1.0, 2.0], &[2]);
        let b = c(&mut g, &[3.0, 4.0], &[2]);
        let s = g.stack(&[a, b]);
        assert_eq!(g.value(s).shape(), &[2, 2]);
        assert_eq!(g.value(s).data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn index_axis_removes_axis() {
        let mut g = Graph::new();
        let a = c(&mut g, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = g.index_axis(a, 0, 1);
        assert_eq!(g.value(row).shape(), &[3]);
        assert_eq!(g.value(row).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn broadcast_to_expands() {
        let mut g = Graph::new();
        let a = c(&mut g, &[1.0, 2.0], &[2]);
        let b = g.broadcast_to(a, &[3, 2]);
        assert_eq!(g.value(b).shape(), &[3, 2]);
        assert_eq!(g.value(b).data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn masked_mae_value() {
        let mut g = Graph::new();
        let pred = c(&mut g, &[1.0, 2.0, 3.0, 4.0], &[4]);
        let target = Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0], &[4]);
        let mask = Tensor::from_vec(vec![1.0, 1.0, 0.0, 1.0], &[4]);
        let loss = g.masked_mae(pred, &target, &mask);
        // (1 + 2 + 4) / 3
        assert!((g.value(loss).item() - 7.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn masked_mse_value() {
        let mut g = Graph::new();
        let pred = c(&mut g, &[1.0, 3.0], &[2]);
        let target = Tensor::zeros(&[2]);
        let mask = Tensor::ones(&[2]);
        let loss = g.masked_mse(pred, &target, &mask);
        assert!((g.value(loss).item() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn transpose_sugar() {
        let mut g = Graph::new();
        let a = c(&mut g, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = g.transpose(a);
        assert_eq!(g.value(t).shape(), &[3, 2]);
    }
}
