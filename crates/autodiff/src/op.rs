//! The op table: every differentiable operation's tag, its one forward
//! definition, and its span label.
//!
//! [`Op::forward_into`] is the only place a forward kernel is dispatched.
//! The tape ([`Graph::apply`](crate::Graph)) runs it into a fresh tensor and
//! records the node; the [`PlanExecutor`](crate::PlanExecutor) runs it into
//! a reused arena slot. Both runtimes therefore execute the same kernel with
//! the same attributes for every op, and a compiled plan's output equals the
//! tape's bit for bit by construction. The backward rules live in
//! `backward.rs`, keyed by the same [`Op`].

use enhancenet_tensor::{sparse, CsrMatrix, Tensor, TopkPattern};
use std::sync::Arc;

/// Operation tag recorded on each node. Inputs are stored separately on the
/// node; the tag carries the attributes the forward kernel and the backward
/// rule need.
#[derive(Debug, Clone)]
pub enum Op {
    /// Leaf: external input or bound parameter.
    Leaf,
    /// Elementwise broadcast addition.
    Add,
    /// Elementwise broadcast subtraction.
    Sub,
    /// Elementwise broadcast multiplication.
    Mul,
    /// Elementwise broadcast division.
    Div,
    /// Elementwise negation.
    Neg,
    /// `x + c` for a constant scalar.
    AddScalar(f32),
    /// `x * c` for a constant scalar.
    MulScalar(f32),
    /// 2-D matrix multiply.
    MatMul,
    /// 2-D transpose-fused multiply `a · bᵀ` (`[m,k] x [n,k]`).
    MatMulNT,
    /// Batched 3-D matrix multiply.
    Bmm,
    /// Batched transpose-fused multiply `aᵦ · bᵦᵀ` (`[b,m,k] x [b,n,k]`).
    BmmNT,
    /// `[m,k] x [b,k,n]` with a shared left operand.
    MatMulBroadcastLeft,
    /// `[b,m,k] x [k,n]` with a shared right operand.
    MatMulBroadcastRight,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Elementwise exponential.
    Exp,
    /// Elementwise natural log (input must be positive).
    Ln,
    /// Elementwise square root.
    Sqrt,
    /// Elementwise absolute value (subgradient 0 at 0).
    Abs,
    /// Elementwise square.
    Square,
    /// Softmax along an axis.
    Softmax { axis: isize },
    /// Sum of all elements to a scalar.
    SumAll,
    /// Mean of all elements to a scalar.
    MeanAll,
    /// Sum along one axis (axis removed).
    SumAxis { axis: usize },
    /// Mean along one axis (axis removed).
    MeanAxis { axis: usize },
    /// Shape reinterpretation to `shape`; one axis may be `usize::MAX`,
    /// inferred from the element count.
    Reshape { shape: Vec<usize> },
    /// Axis permutation.
    Permute { perm: Vec<usize> },
    /// Concatenation along an axis; `sizes` are the per-input axis lengths.
    Concat { axis: usize, sizes: Vec<usize> },
    /// Contiguous slice `[start, stop)` along an axis.
    Slice { axis: usize, start: usize, stop: usize },
    /// Causal (front) zero padding along an axis.
    PadFront { axis: usize, count: usize },
    /// Broadcasts a tensor to the larger `shape` (used by repeat/expand).
    BroadcastTo { shape: Vec<usize> },
    /// Pattern-restricted attention scores `⟨a[.., i, :], b[.., cols(i,j), :]⟩`
    /// (rank-2 or batched rank-3 operands). The column pattern is
    /// non-differentiable structure; only the retained dot products are
    /// computed, so the score matrix never materializes densely.
    GatherDotNT { pattern: Arc<TopkPattern> },
    /// Renormalized softmax over the last axis restricted to entries whose
    /// mask is > 0; masked entries are exactly 0 and fully masked slices
    /// collapse to zeros (no dense uniform fallback). Inputs are
    /// `(logits, mask)`; the mask receives no gradient.
    MaskedSoftmax,
    /// Dense-out product of a **constant** CSR matrix with a (possibly
    /// batched) signal. `csr_t` is the precomputed transpose the backward
    /// pass multiplies by; the matrix itself receives no gradient.
    SpmmCsr { csr: Arc<CsrMatrix>, csr_t: Arc<CsrMatrix> },
    /// Dense-out product of pattern values (`[rows,k]` or `[b,rows,k]`)
    /// with a batched signal. Gradients scatter **only** into the retained
    /// entries — dropped entries stay exactly zero through training.
    SpmmTopk { pattern: Arc<TopkPattern> },
}

impl Op {
    /// Computes this op's value into `dst`, where `src(i)` is its `i`-th
    /// operand. Every arm is a tensor `_into` kernel that rewrites `dst`
    /// whole — shape and data — whatever `dst` held before, so a stale
    /// arena slot and a fresh tensor produce the same bits. Operand access
    /// through `src` lets the plan executor resolve its sources without
    /// collecting them.
    ///
    /// # Panics
    ///
    /// Panics on [`Op::Leaf`] (a leaf's value is bound, not computed) and
    /// wherever the kernel rejects its operands' shapes.
    pub(crate) fn forward_into<'a, F>(&self, src: F, dst: &mut Tensor)
    where
        F: Fn(usize) -> &'a Tensor + Copy,
    {
        match self {
            Op::Leaf => unreachable!("a leaf's value is bound, not computed"),
            Op::Add => src(0).add_t_into(src(1), dst),
            Op::Sub => src(0).sub_t_into(src(1), dst),
            Op::Mul => src(0).mul_t_into(src(1), dst),
            Op::Div => src(0).div_t_into(src(1), dst),
            Op::Neg => src(0).map_into(|v| -v, dst),
            Op::AddScalar(c) => src(0).add_scalar_into(*c, dst),
            Op::MulScalar(c) => src(0).mul_scalar_into(*c, dst),
            Op::MatMul => src(0).matmul_into(src(1), dst),
            Op::MatMulNT => src(0).matmul_nt_into(src(1), dst),
            Op::Bmm => src(0).bmm_into(src(1), dst),
            Op::BmmNT => src(0).bmm_nt_into(src(1), dst),
            Op::MatMulBroadcastLeft => src(0).matmul_broadcast_left_into(src(1), dst),
            Op::MatMulBroadcastRight => src(0).matmul_broadcast_right_into(src(1), dst),
            Op::Sigmoid => src(0).sigmoid_into(dst),
            Op::Tanh => src(0).tanh_t_into(dst),
            Op::Relu => src(0).relu_into(dst),
            Op::Exp => src(0).exp_t_into(dst),
            Op::Ln => src(0).ln_t_into(dst),
            Op::Sqrt => src(0).sqrt_t_into(dst),
            Op::Abs => src(0).abs_t_into(dst),
            Op::Square => src(0).map_into(|x| x * x, dst),
            Op::Softmax { axis } => src(0).softmax_into(*axis, dst),
            Op::SumAll => dst.set_scalar(src(0).sum_all()),
            Op::MeanAll => dst.set_scalar(src(0).mean_all()),
            Op::SumAxis { axis } => src(0).sum_axis_into(*axis as isize, dst),
            Op::MeanAxis { axis } => src(0).mean_axis_into(*axis as isize, dst),
            Op::Reshape { shape } => src(0).reshape_into(shape, dst),
            Op::Permute { perm } => src(0).permute_into(perm, dst),
            Op::Concat { axis, sizes } => {
                Tensor::concat_into((0..sizes.len()).map(src), *axis as isize, dst)
            }
            Op::Slice { axis, start, stop } => {
                src(0).slice_axis_into(*axis as isize, *start, *stop, dst)
            }
            Op::PadFront { axis, count } => {
                src(0).pad_axis_front_into(*axis as isize, *count, 0.0, dst)
            }
            Op::BroadcastTo { shape } => src(0).broadcast_to_into(shape, dst),
            Op::GatherDotNT { pattern } => {
                sparse::topk_gather_dot_into(src(0), src(1), pattern, dst)
            }
            Op::MaskedSoftmax => sparse::masked_softmax_into(src(0), src(1), dst),
            Op::SpmmCsr { csr, .. } => csr.spmm_into(src(0), dst),
            Op::SpmmTopk { pattern } => sparse::topk_spmm_into(src(0), src(1), pattern, dst),
        }
    }

    /// Static span label for this op, recorded per instruction on a plan
    /// executor's first (profiling) run and listed by
    /// [`Plan::op_shapes`](crate::Plan::op_shapes).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Op::Leaf => "plan.op.leaf",
            Op::Add => "plan.op.add",
            Op::Sub => "plan.op.sub",
            Op::Mul => "plan.op.mul",
            Op::Div => "plan.op.div",
            Op::Neg => "plan.op.neg",
            Op::AddScalar(_) => "plan.op.add_scalar",
            Op::MulScalar(_) => "plan.op.mul_scalar",
            Op::MatMul => "plan.op.matmul",
            Op::MatMulNT => "plan.op.matmul_nt",
            Op::Bmm => "plan.op.bmm",
            Op::BmmNT => "plan.op.bmm_nt",
            Op::MatMulBroadcastLeft => "plan.op.mm_bcast_left",
            Op::MatMulBroadcastRight => "plan.op.mm_bcast_right",
            Op::Sigmoid => "plan.op.sigmoid",
            Op::Tanh => "plan.op.tanh",
            Op::Relu => "plan.op.relu",
            Op::Exp => "plan.op.exp",
            Op::Ln => "plan.op.ln",
            Op::Sqrt => "plan.op.sqrt",
            Op::Abs => "plan.op.abs",
            Op::Square => "plan.op.square",
            Op::Softmax { .. } => "plan.op.softmax",
            Op::SumAll => "plan.op.sum_all",
            Op::MeanAll => "plan.op.mean_all",
            Op::SumAxis { .. } => "plan.op.sum_axis",
            Op::MeanAxis { .. } => "plan.op.mean_axis",
            Op::Reshape { .. } => "plan.op.reshape",
            Op::Permute { .. } => "plan.op.permute",
            Op::Concat { .. } => "plan.op.concat",
            Op::Slice { .. } => "plan.op.slice",
            Op::PadFront { .. } => "plan.op.pad_front",
            Op::BroadcastTo { .. } => "plan.op.broadcast_to",
            Op::GatherDotNT { .. } => "plan.op.gather_dot_nt",
            Op::MaskedSoftmax => "plan.op.masked_softmax",
            Op::SpmmCsr { .. } => "plan.op.spmm_csr",
            Op::SpmmTopk { .. } => "plan.op.spmm_topk",
        }
    }
}
