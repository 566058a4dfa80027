//! Arena execution of compiled [`Plan`](crate::Plan)s.
//!
//! A [`PlanExecutor`] owns a plan plus the preallocated buffers it runs
//! against: one arena [`Tensor`] per plan slot (sized to the slot's peak
//! element count) and a staging tensor for rank-promoting single-window
//! requests. Each instruction runs its op's one forward definition,
//! [`Op::forward_into`](crate::Op) — the same call the tape makes when it
//! records the node — into its arena slot, so a plan's output equals the
//! tape's bit for bit by construction. Operands are resolved by index, not
//! collected, and the warm forward performs **zero heap allocations**
//! (pinned by `crates/core/tests/plan_allocations.rs`).
//!
//! An executor reads nothing but its plan and the request: the weights it
//! computes with are the plan's folded constants, taken from the store the
//! plan was traced from. Several executors may share one plan (`Arc<Plan>`),
//! each with its own arena.

use crate::plan::{Plan, Src};
use enhancenet_tensor::Tensor;
use std::mem;
use std::sync::Arc;

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
            let _op_timer = (!*profiled).then(|| enhancenet_telemetry::span(instr.op.label()));
            let mut dst = mem::take(&mut arena[instr.dst]);
            let slots: &[Tensor] = arena;
            instr.op.forward_into(|i| resolve(slots, &plan.consts, x, &instr.srcs[i]), &mut dst);
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

#[cfg(test)]
mod tests;
