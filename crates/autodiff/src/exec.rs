//! Arena execution of compiled [`Plan`](crate::Plan)s.
//!
//! A [`PlanExecutor`] owns a plan plus the preallocated buffers it runs
//! against: one arena [`Tensor`] per plan slot (sized to the slot's peak
//! element count) and a staging tensor for rank-promoting single-window
//! requests. Warm executions write every intermediate through the tensor
//! crate's `_into` kernels into these buffers — the whole forward performs
//! **zero heap allocations** (pinned by `crates/core/tests/plan_allocations.rs`).
//!
//! An executor reads nothing but its plan and the request: the weights it
//! computes with are the plan's folded constants, taken from the store the
//! plan was traced from. Several executors may share one plan (`Arc<Plan>`),
//! each with its own arena.

use crate::graph::Op;
use crate::plan::{Instr, Plan, Src};
use enhancenet_tensor::{sparse, Tensor};
use std::mem;
use std::sync::Arc;

/// Static span label for one op tag (recorded on the first, profiling run).
pub(crate) fn op_label(op: &Op) -> &'static str {
    match op {
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

/// Resolves an operand source to a tensor reference. A free function (not a
/// method) so the execute loop can borrow the arena immutably while the
/// destination tensor is temporarily moved out.
fn resolve<'a>(
    arena: &'a [Tensor],
    consts: &'a [Tensor],
    input: &'a Tensor,
    src: &Src,
) -> &'a Tensor {
    match src {
        Src::Slot(s) => &arena[*s],
        Src::Const(c) => &consts[*c],
        Src::Input => input,
    }
}

/// Executes one instruction's kernel into `dst`. Every arm calls the same
/// `_into` kernel the tape's allocating op delegates to, so the plan output
/// is bitwise identical to the tape's.
fn exec_instr(
    instr: &Instr,
    dst: &mut Tensor,
    arena: &[Tensor],
    consts: &[Tensor],
    input: &Tensor,
) {
    let src = |i: usize| -> &Tensor { resolve(arena, consts, input, &instr.srcs[i]) };
    match &instr.op {
        Op::Leaf => unreachable!("leaves are classified at compile time"),
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
        Op::Reshape { .. } => src(0).reshape_into(&instr.out_shape, dst),
        Op::Permute { perm } => src(0).permute_into(perm, dst),
        Op::Concat { axis, .. } => {
            Tensor::concat_into(
                instr.srcs.iter().map(|s| resolve(arena, consts, input, s)),
                *axis as isize,
                dst,
            );
        }
        Op::Slice { axis, start, .. } => {
            let stop = start + instr.out_shape[*axis];
            src(0).slice_axis_into(*axis as isize, *start, stop, dst);
        }
        Op::PadFront { axis, count } => {
            src(0).pad_axis_front_into(*axis as isize, *count, 0.0, dst)
        }
        Op::BroadcastTo { .. } => src(0).broadcast_to_into(&instr.out_shape, dst),
        Op::GatherDotNT { pattern } => sparse::topk_gather_dot_into(src(0), src(1), pattern, dst),
        Op::MaskedSoftmax => sparse::masked_softmax_into(src(0), src(1), dst),
        Op::SpmmCsr { csr, .. } => csr.spmm_into(src(0), dst),
        Op::SpmmTopk { pattern } => sparse::topk_spmm_into(src(0), src(1), pattern, dst),
    }
}

/// A compiled plan plus its preallocated execution buffers. One executor
/// serves one `(input shape, store version)` key; the serving path takes it
/// from the model's [`PlanCache`](crate::PlanCache) behind a mutex, so a
/// single allocation-free instance is reused across requests.
pub struct PlanExecutor {
    plan: Arc<Plan>,
    arena: Vec<Tensor>,
    /// Staging buffer for rank-promoting single-window requests into the
    /// traced batch shape without an `unsqueeze` clone.
    staged: Tensor,
    /// Whether the per-op profiling run has happened.
    profiled: bool,
}

impl PlanExecutor {
    /// Preallocates the arena for `plan`: one tensor per slot with capacity
    /// for the slot's peak element count. Pass an `Arc<Plan>` to share one
    /// plan's constants between executors.
    pub fn new(plan: impl Into<Arc<Plan>>) -> Self {
        let plan = plan.into();
        let arena = plan.slot_numel.iter().map(|&n| Tensor::with_capacity(n)).collect();
        let staged = Tensor::with_capacity(plan.input_shape.iter().product());
        Self { plan, arena, staged, profiled: false }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Executes the plan against `input`, writing the forecast into `out`.
    ///
    /// `input` must either match the traced input shape exactly, or be the
    /// traced shape minus its leading batch axis of 1 (a single-window
    /// request against a batch-1 trace) — in that case the input is staged
    /// into the traced shape and the output is likewise returned without
    /// the leading axis. Warm calls are allocation-free.
    ///
    /// The first call additionally records per-op `plan.op.*` spans; every
    /// call runs under a `plan.execute` span.
    ///
    /// A run that panics leaves the executor usable: each instruction
    /// rewrites its whole destination slot before any later instruction
    /// reads it, and the `_into` kernels resize a slot the panic left
    /// empty.
    pub fn run(&mut self, input: &Tensor, out: &mut Tensor) {
        let _timer = enhancenet_telemetry::span("plan.execute");
        let Self { plan, arena, staged, profiled } = self;
        let squeeze_out = input.shape() != plan.input_shape;
        let x: &Tensor = if squeeze_out {
            debug_assert_eq!(
                plan.input_shape.first(),
                Some(&1),
                "rank-promoting execute requires a batch-1 trace"
            );
            debug_assert_eq!(input.shape(), &plan.input_shape[1..]);
            staged.copy_from_with_shape(&plan.input_shape, input.data());
            staged
        } else {
            input
        };
        for instr in plan.instrs.iter() {
            let _op_timer = (!*profiled).then(|| enhancenet_telemetry::span(op_label(&instr.op)));
            let mut dst = mem::take(&mut arena[instr.dst]);
            exec_instr(instr, &mut dst, arena, &plan.consts, x);
            arena[instr.dst] = dst;
        }
        *profiled = true;
        let y = resolve(arena, &plan.consts, x, &plan.out);
        if squeeze_out {
            out.copy_from_with_shape(&plan.output_shape[1..], y.data());
        } else {
            out.copy_from_with_shape(&plan.output_shape, y.data());
        }
    }
}
