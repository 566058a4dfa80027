//! Per-op parity: one tiny tape per [`Op`] variant, recorded over a single
//! request input, must compile to a plan whose output equals the tape's
//! value bit for bit — on a cold executor, and again on a warm one whose
//! arena slots hold stale, larger buffers of the wrong shape.
//!
//! [`record`] matches exhaustively over `Op`, so a new variant does not
//! compile until it has a case here.

use super::PlanExecutor;
use crate::{Graph, Op, ParamStore, Plan, Var};
use enhancenet_tensor::{CsrMatrix, Tensor, TopkPattern};
use std::mem::discriminant;
use std::sync::Arc;

/// Distinct, mixed-sign values with no zeros, varied by `seed`.
fn t(shape: &[usize], seed: usize) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|i| (((i * 7 + seed * 13) % 17) as f32 - 8.5) * 0.25).collect();
    Tensor::from_vec(data, shape)
}

/// Strictly positive values (logs, roots, denominators).
fn pos(shape: &[usize], seed: usize) -> Tensor {
    t(shape, seed).map(|v| v.abs() + 0.5)
}

/// One sample of every variant, with the attributes its case records.
fn samples() -> Vec<Op> {
    let pattern = Arc::new(TopkPattern::from_dense_topk(&t(&[4, 4], 3), 2));
    let dense = t(&[3, 4], 5).map(|v| if v > 0.0 { v } else { 0.0 });
    let csr = Arc::new(CsrMatrix::from_dense(&dense));
    let csr_t = Arc::new(csr.transpose());
    vec![
        Op::Leaf,
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Neg,
        Op::AddScalar(0.75),
        Op::MulScalar(-1.5),
        Op::MatMul,
        Op::MatMulNT,
        Op::Bmm,
        Op::BmmNT,
        Op::MatMulBroadcastLeft,
        Op::MatMulBroadcastRight,
        Op::Sigmoid,
        Op::Tanh,
        Op::Relu,
        Op::Exp,
        Op::Ln,
        Op::Sqrt,
        Op::Abs,
        Op::Square,
        Op::Softmax { axis: -1 },
        Op::SumAll,
        Op::MeanAll,
        Op::SumAxis { axis: 1 },
        Op::MeanAxis { axis: 0 },
        Op::Reshape { shape: vec![usize::MAX, 2] },
        Op::Permute { perm: vec![2, 0, 1] },
        Op::Concat { axis: 1, sizes: vec![3, 2] },
        Op::Slice { axis: 1, start: 1, stop: 3 },
        Op::PadFront { axis: 0, count: 2 },
        Op::BroadcastTo { shape: vec![2, 4, 3] },
        Op::GatherDotNT { pattern: Arc::clone(&pattern) },
        Op::MaskedSoftmax,
        Op::SpmmCsr { csr, csr_t },
        Op::SpmmTopk { pattern },
    ]
}

/// Records `op` through its eager method on a tape whose one input feeds
/// it, and returns the op's node. Second operands are trace constants,
/// which the plan folds, so the input sits in either operand position.
fn record(g: &mut Graph, op: &Op) -> Var {
    let mut input = |shape: &[usize]| g.input(t(shape, 0));
    match op {
        Op::Leaf => input(&[2, 3]),
        Op::Add => {
            let x = input(&[2, 3]);
            let c = g.constant(t(&[3], 1));
            g.add(x, c)
        }
        Op::Sub => {
            let x = input(&[2, 3]);
            let c = g.constant(t(&[2, 1], 1));
            g.sub(c, x)
        }
        Op::Mul => {
            let x = input(&[2, 3]);
            let c = g.constant(t(&[2, 3], 1));
            g.mul(x, c)
        }
        Op::Div => {
            let x = g.input(pos(&[2, 3], 0));
            let c = g.constant(t(&[1, 3], 1));
            g.div(c, x)
        }
        Op::Neg => {
            let x = input(&[2, 3]);
            g.neg(x)
        }
        Op::AddScalar(c) => {
            let x = input(&[2, 3]);
            g.add_scalar(x, *c)
        }
        Op::MulScalar(c) => {
            let x = input(&[2, 3]);
            g.mul_scalar(x, *c)
        }
        Op::MatMul => {
            let x = input(&[2, 3]);
            let c = g.constant(t(&[3, 4], 1));
            g.matmul(x, c)
        }
        Op::MatMulNT => {
            let x = input(&[2, 3]);
            let c = g.constant(t(&[4, 3], 1));
            g.matmul_nt(c, x)
        }
        Op::Bmm => {
            let x = input(&[2, 2, 3]);
            let c = g.constant(t(&[2, 3, 4], 1));
            g.bmm(x, c)
        }
        Op::BmmNT => {
            let x = input(&[2, 2, 3]);
            let c = g.constant(t(&[2, 4, 3], 1));
            g.bmm_nt(x, c)
        }
        Op::MatMulBroadcastLeft => {
            let x = input(&[2, 3, 4]);
            let c = g.constant(t(&[3, 3], 1));
            g.matmul_broadcast_left(c, x)
        }
        Op::MatMulBroadcastRight => {
            let x = input(&[2, 2, 3]);
            let c = g.constant(t(&[3, 4], 1));
            g.matmul_broadcast_right(x, c)
        }
        Op::Sigmoid => {
            let x = input(&[2, 3]);
            g.sigmoid(x)
        }
        Op::Tanh => {
            let x = input(&[2, 3]);
            g.tanh(x)
        }
        Op::Relu => {
            let x = input(&[2, 3]);
            g.relu(x)
        }
        Op::Exp => {
            let x = input(&[2, 3]);
            g.exp(x)
        }
        Op::Ln => {
            let x = g.input(pos(&[2, 3], 0));
            g.ln(x)
        }
        Op::Sqrt => {
            let x = g.input(pos(&[2, 3], 0));
            g.sqrt(x)
        }
        Op::Abs => {
            let x = input(&[2, 3]);
            g.abs(x)
        }
        Op::Square => {
            let x = input(&[2, 3]);
            g.square(x)
        }
        Op::Softmax { axis } => {
            let x = input(&[2, 3, 4]);
            g.softmax(x, *axis)
        }
        Op::SumAll => {
            let x = input(&[2, 3]);
            g.sum_all(x)
        }
        Op::MeanAll => {
            let x = input(&[2, 3]);
            g.mean_all(x)
        }
        Op::SumAxis { axis } => {
            let x = input(&[2, 3, 4]);
            g.sum_axis(x, *axis as isize)
        }
        Op::MeanAxis { axis } => {
            let x = input(&[2, 3, 4]);
            g.mean_axis(x, *axis as isize)
        }
        Op::Reshape { shape } => {
            let x = input(&[2, 3, 2]);
            g.reshape(x, shape)
        }
        Op::Permute { perm } => {
            let x = input(&[2, 3, 4]);
            g.permute(x, perm)
        }
        Op::Concat { axis, sizes } => {
            let part = |size: usize| {
                let mut shape = vec![2, 2];
                shape[*axis] = size;
                shape
            };
            let mut parts = vec![input(&part(sizes[0]))];
            for (seed, &size) in sizes.iter().enumerate().skip(1) {
                parts.push(g.constant(t(&part(size), seed)));
            }
            g.concat(&parts, *axis as isize)
        }
        Op::Slice { axis, start, stop } => {
            let x = input(&[2, 4, 3]);
            g.slice_axis(x, *axis as isize, *start, *stop)
        }
        Op::PadFront { axis, count } => {
            let x = input(&[3, 2]);
            g.pad_front(x, *axis as isize, *count)
        }
        Op::BroadcastTo { shape } => {
            let x = input(&[4, 1]);
            g.broadcast_to(x, shape)
        }
        Op::GatherDotNT { pattern } => {
            let x = input(&[2, 4, 3]);
            let c = g.constant(t(&[2, 4, 3], 1));
            g.gather_dot_nt(x, c, Arc::clone(pattern))
        }
        Op::MaskedSoftmax => {
            let x = input(&[2, 4, 4]);
            // Every third entry masked; the first row fully masked.
            let mut mask =
                Tensor::from_vec((0..32).map(|i| (i % 3 != 0) as u8 as f32).collect(), &[2, 4, 4]);
            mask.data_mut()[..4].fill(0.0);
            let m = g.constant(mask);
            g.masked_softmax(x, m)
        }
        Op::SpmmCsr { csr, csr_t } => {
            let x = input(&[2, 4, 2]);
            g.spmm_csr(Arc::clone(csr), Arc::clone(csr_t), x)
        }
        Op::SpmmTopk { pattern } => {
            let vals = input(&[4, 2]);
            let c = g.constant(t(&[2, 4, 3], 1));
            g.spmm_topk(vals, c, Arc::clone(pattern))
        }
    }
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: values");
}

#[test]
fn every_op_runs_the_same_bits_on_the_plan_as_on_the_tape() {
    let store = ParamStore::new();
    let ops = samples();
    for (i, op) in ops.iter().enumerate() {
        assert!(
            ops[..i].iter().all(|seen| discriminant(seen) != discriminant(op)),
            "{op:?} is sampled twice"
        );
        let mut g = Graph::new();
        let out = record(&mut g, op);
        let recorded = &g.nodes[out.0 as usize].op;
        assert_eq!(discriminant(recorded), discriminant(op), "{op:?} case recorded {recorded:?}");
        let input = g.value(g.inputs[0]).clone();
        let plan = Plan::compile(&g, out, &store).unwrap_or_else(|e| panic!("{op:?}: {e}"));
        if !matches!(op, Op::Leaf) {
            assert_eq!(plan.op_shapes().last().map(|s| s.0), Some(op.label()), "{op:?}: folded");
        }

        let mut exec = PlanExecutor::new(plan);
        let mut got = Tensor::default();
        exec.run(&input, &mut got);
        assert_same_bits(&got, g.value(out), &format!("{op:?} cold"));

        for slot in exec.arena.iter_mut() {
            *slot = Tensor::full(&[3, slot.data().len() + 5], f32::from_bits(0x7fc0_dead));
        }
        exec.run(&input, &mut got);
        assert_same_bits(&got, g.value(out), &format!("{op:?} warm over stale slots"));
    }
}
