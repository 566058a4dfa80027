//! The backward (vector–Jacobian) rules for every [`Op`].

use crate::graph::{Graph, Var};
use crate::op::Op;
use enhancenet_tensor::{sparse, Tensor};

/// Adds `g` into the gradient slot of `v`.
fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
    let slot = &mut grads[v.0 as usize];
    match slot {
        Some(existing) => existing.add_assign_t(&g),
        None => *slot = Some(g),
    }
}

impl Graph {
    /// Propagates the output gradient `gy` of node `i` to its inputs.
    pub(crate) fn propagate(&mut self, i: usize, gy: &Tensor) {
        // The node (op attributes, output value) and its inputs' values are
        // read in place while the gradient slots, a disjoint field, are
        // written — nothing is cloned per node.
        let Graph { nodes, grads, .. } = self;
        let node = &nodes[i];
        let input = |k: usize| &nodes[node.inputs[k].0 as usize].value;
        let mut acc = |k: usize, g: Tensor| accumulate(grads, node.inputs[k], g);
        match &node.op {
            Op::Leaf => {}

            Op::Add => {
                acc(0, gy.reduce_to_shape(input(0).shape()));
                acc(1, gy.reduce_to_shape(input(1).shape()));
            }
            Op::Sub => {
                acc(0, gy.reduce_to_shape(input(0).shape()));
                acc(1, (-gy).reduce_to_shape(input(1).shape()));
            }
            Op::Mul => {
                acc(0, gy.mul_t(input(1)).reduce_to_shape(input(0).shape()));
                acc(1, gy.mul_t(input(0)).reduce_to_shape(input(1).shape()));
            }
            Op::Div => {
                let (va, vb) = (input(0), input(1));
                acc(0, gy.div_t(vb).reduce_to_shape(va.shape()));
                // d/db (a/b) = -a / b^2
                acc(1, (-&gy.mul_t(va).div_t(&vb.mul_t(vb))).reduce_to_shape(vb.shape()));
            }
            Op::Neg => acc(0, -gy),
            Op::AddScalar(_) => acc(0, gy.clone()),
            Op::MulScalar(c) => acc(0, gy.mul_scalar(*c)),

            // Every matmul-family rule below uses the transpose-fused GEMM
            // entry points (`_tn` reads the left operand transposed, `_nt`
            // the right), so no gradient ever materializes a transpose.
            Op::MatMul => {
                // y[m,n] = a[m,k] @ b[k,n] ⇒ ga = gy·bᵀ, gb = aᵀ·gy
                acc(0, gy.matmul_nt(input(1)));
                acc(1, input(0).matmul_tn(gy));
            }
            Op::MatMulNT => {
                // y[m,n] = a[m,k] @ b[n,k]ᵀ ⇒ ga = gy·b, gb = gyᵀ·a
                acc(0, gy.matmul(input(1)));
                acc(1, gy.matmul_tn(input(0)));
            }
            Op::Bmm => {
                // yᵦ = aᵦ @ bᵦ ⇒ gaᵦ = gyᵦ·bᵦᵀ, gbᵦ = aᵦᵀ·gyᵦ
                acc(0, gy.bmm_nt(input(1)));
                acc(1, input(0).bmm_tn(gy));
            }
            Op::BmmNT => {
                // yᵦ = aᵦ @ bᵦᵀ ⇒ gaᵦ = gyᵦ·bᵦ, gbᵦ = gyᵦᵀ·aᵦ
                acc(0, gy.bmm(input(1)));
                acc(1, gy.bmm_tn(input(0)));
            }
            Op::MatMulBroadcastLeft => {
                // y[b,m,n] = a[m,k] @ x[b,k,n] ⇒ ga = Σᵦ gyᵦ·xᵦᵀ (one
                // batch-summed fused GEMM, no [b,m,k] intermediate),
                // gxᵦ = aᵀ·gyᵦ
                acc(0, gy.bmm_nt_reduce(input(1)));
                acc(1, input(0).matmul_broadcast_left_tn(gy));
            }
            Op::MatMulBroadcastRight => {
                // y[..,n] = x[..,k] @ w[k,n] ⇒ gx = gy·wᵀ,
                // gw = xᵀ_flat·gy_flat (leading axes fold in the kernel —
                // no reshape copies)
                acc(0, gy.matmul_broadcast_right_nt(input(1)));
                acc(1, input(0).matmul_tn_flat(gy));
            }

            Op::Sigmoid => acc(0, gy.zip_with(&node.value, |g, y| g * y * (1.0 - y))),
            Op::Tanh => acc(0, gy.zip_with(&node.value, |g, y| g * (1.0 - y * y))),
            Op::Relu => acc(0, gy.zip_with(input(0), |g, x| if x > 0.0 { g } else { 0.0 })),
            Op::Exp => acc(0, gy.mul_t(&node.value)),
            Op::Ln => acc(0, gy.div_t(input(0))),
            Op::Sqrt => acc(0, gy.zip_with(&node.value, |g, y| 0.5 * g / y.max(1e-12))),
            Op::Abs => {
                acc(0, gy.zip_with(input(0), |g, x| g * x.signum() * (x != 0.0) as i32 as f32))
            }
            Op::Square => acc(0, gy.zip_with(input(0), |g, x| 2.0 * g * x)),

            Op::Softmax { axis } => {
                // dx = y ⊙ (gy − Σ_axis gy⊙y)
                let y = &node.value;
                let rank = y.rank() as isize;
                let ax = if *axis < 0 { axis + rank } else { *axis };
                let s = gy.mul_t(y).sum_axis_keepdim(ax);
                acc(0, y.mul_t(&gy.sub_t(&s)));
            }

            Op::SumAll => acc(0, Tensor::full(input(0).shape(), gy.item())),
            Op::MeanAll => {
                let x = input(0);
                acc(0, Tensor::full(x.shape(), gy.item() / x.numel() as f32));
            }
            Op::SumAxis { axis } => {
                let zeros = Tensor::zeros(input(0).shape());
                acc(0, gy.unsqueeze(*axis as isize).add_t(&zeros));
            }
            Op::MeanAxis { axis } => {
                let shape = input(0).shape();
                let len = shape[*axis] as f32;
                let zeros = Tensor::zeros(shape);
                acc(0, gy.unsqueeze(*axis as isize).mul_scalar(1.0 / len).add_t(&zeros));
            }

            Op::Reshape { .. } => acc(0, gy.reshape(input(0).shape())),
            Op::Permute { perm } => {
                let mut inv = vec![0usize; perm.len()];
                for (j, &p) in perm.iter().enumerate() {
                    inv[p] = j;
                }
                acc(0, gy.permute(&inv));
            }
            Op::Concat { axis, sizes } => {
                let mut start = 0;
                for (k, &len) in sizes.iter().enumerate() {
                    acc(k, gy.slice_axis(*axis as isize, start, start + len));
                    start += len;
                }
            }
            Op::Slice { axis, start, .. } => {
                acc(0, scatter_slice(gy, *axis, *start, input(0).shape()[*axis]));
            }
            Op::PadFront { axis, count } => {
                let padded_len = node.value.shape()[*axis];
                acc(0, gy.slice_axis(*axis as isize, *count, padded_len));
            }
            Op::BroadcastTo { .. } => acc(0, gy.reduce_to_shape(input(0).shape())),

            Op::GatherDotNT { pattern } => {
                // y[..,i,j] = ⟨a[..,i,:], b[..,cols(i,j),:]⟩
                // ⇒ ga[..,i,:] = Σⱼ gy[..,i,j]·b[..,cols(i,j),:]  (spmm)
                //   gb[..,cols(i,j),:] += gy[..,i,j]·a[..,i,:]    (scatter)
                let mut ga = Tensor::default();
                sparse::topk_spmm_into(gy, input(1), pattern, &mut ga);
                let mut gb = Tensor::default();
                sparse::topk_scatter_into(gy, input(0), pattern, &mut gb);
                acc(0, ga);
                acc(1, gb);
            }
            Op::MaskedSoftmax => {
                // Same rule as Softmax over the last axis: the output is
                // zero at masked entries, so y ⊙ (gy − Σ gy⊙y) already
                // routes nothing through them. The mask gets no gradient.
                let y = &node.value;
                let s = gy.mul_t(y).sum_axis_keepdim(y.rank() as isize - 1);
                acc(0, y.mul_t(&gy.sub_t(&s)));
            }
            Op::SpmmCsr { csr_t, .. } => {
                // y = A·x for constant A ⇒ gx = Aᵀ·gy, via the precomputed
                // transpose. A itself is non-differentiable structure.
                acc(0, csr_t.spmm(gy));
            }
            Op::SpmmTopk { pattern } => {
                // y[..,i,:] = Σⱼ vals[..,i,j]·x[..,cols(i,j),:]
                // ⇒ gvals[..,i,j] = ⟨gy[..,i,:], x[..,cols(i,j),:]⟩
                //   (batch-summed when vals were broadcast rank-2),
                //   gx[..,cols(i,j),:] += vals[..,i,j]·gy[..,i,:].
                // Dropped entries receive no gradient at all.
                let (vals, x) = (input(0), input(1));
                let mut gvals = Tensor::default();
                if vals.rank() == 2 && gy.rank() == 3 {
                    sparse::topk_gather_dot_reduce_into(gy, x, pattern, &mut gvals);
                } else {
                    sparse::topk_gather_dot_into(gy, x, pattern, &mut gvals);
                }
                let mut gx = Tensor::default();
                sparse::topk_scatter_into(vals, gy, pattern, &mut gx);
                acc(0, gvals);
                acc(1, gx);
            }
        }
    }
}

/// Embeds `gy` (a gradient of a slice) back into a zero tensor whose `axis`
/// has length `input_len`, at offset `start` — the adjoint of slicing.
fn scatter_slice(gy: &Tensor, axis: usize, start: usize, input_len: usize) -> Tensor {
    let mut out_shape = gy.shape().to_vec();
    let slice_len = out_shape[axis];
    out_shape[axis] = input_len;
    let outer: usize = out_shape[..axis].iter().product();
    let inner: usize = out_shape[axis + 1..].iter().product();
    let mut out = Tensor::zeros(&out_shape);
    let dst = out.data_mut();
    let src = gy.data();
    for o in 0..outer {
        let src_base = o * slice_len * inner;
        let dst_base = (o * input_len + start) * inner;
        dst[dst_base..dst_base + slice_len * inner]
            .copy_from_slice(&src[src_base..src_base + slice_len * inner]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_of<F>(build: F, input: Tensor) -> (Tensor, Tensor)
    where
        F: Fn(&mut Graph, Var) -> Var,
    {
        let mut g = Graph::new();
        let x = g.constant(input);
        let y = build(&mut g, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        (g.value(y).clone(), g.grad(x).unwrap().clone())
    }

    #[test]
    fn add_backward_broadcast_row() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::ones(&[2, 3]));
        let b = g.constant(Tensor::ones(&[3]));
        let y = g.add(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().shape(), &[2, 3]);
        // b was broadcast over 2 rows, so its grad sums them.
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_backward_is_other_operand() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let b = g.constant(Tensor::from_vec(vec![5.0, 7.0], &[2]));
        let y = g.mul(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn div_backward() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec(vec![6.0], &[1]));
        let b = g.constant(Tensor::from_vec(vec![3.0], &[1]));
        let y = g.div(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!((g.grad(a).unwrap().data()[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((g.grad(b).unwrap().data()[0] + 6.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_backward_shapes_and_values() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = g.constant(Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]));
        let y = g.matmul(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        // d/dA sum(A@I) = ones @ I^T = ones
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0, 1.0, 1.0]);
        // d/dB sum(A@B) = A^T @ ones: column sums of A replicated
        assert_eq!(g.grad(b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn sigmoid_backward_peak_at_zero() {
        let (_, grad) = grad_of(|g, x| g.sigmoid(x), Tensor::from_vec(vec![0.0], &[1]));
        assert!((grad.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_backward_at_zero_is_one() {
        let (_, grad) = grad_of(|g, x| g.tanh(x), Tensor::from_vec(vec![0.0], &[1]));
        assert!((grad.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relu_backward_gates() {
        let (_, grad) = grad_of(|g, x| g.relu(x), Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        assert_eq!(grad.data(), &[0.0, 1.0]);
    }

    #[test]
    fn abs_backward_sign() {
        let (_, grad) = grad_of(|g, x| g.abs(x), Tensor::from_vec(vec![-2.0, 3.0, 0.0], &[3]));
        assert_eq!(grad.data(), &[-1.0, 1.0, 0.0]);
    }

    #[test]
    fn exp_ln_chain_rule() {
        // d/dx ln(exp(x)) = 1
        let (_, grad) = grad_of(
            |g, x| {
                let e = g.exp(x);
                g.ln(e)
            },
            Tensor::from_vec(vec![0.7], &[1]),
        );
        assert!((grad.data()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_backward_sums_to_zero() {
        // Softmax grad rows are orthogonal to the ones vector when the
        // upstream grad is uniform — here sum over a row must vanish.
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let s = g.softmax(x, -1);
        let pick = g.slice_axis(s, 1, 0, 1); // d(first prob)/dx
        let loss = g.sum_all(pick);
        g.backward(loss);
        let gx = g.grad(x).unwrap();
        assert!(gx.sum_all().abs() < 1e-6);
    }

    #[test]
    fn mean_axis_backward_divides() {
        let (_, grad) = grad_of(|g, x| g.mean_axis(x, 1), Tensor::ones(&[2, 4]));
        assert!(grad.allclose(&Tensor::full(&[2, 4], 0.25), 1e-6));
    }

    #[test]
    fn slice_backward_scatters() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]));
        let s = g.slice_axis(x, 0, 1, 3);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_backward_splits() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::ones(&[2]));
        let b = g.constant(Tensor::ones(&[3]));
        let cat = g.concat(&[a, b], 0);
        let doubled = g.mul_scalar(cat, 2.0);
        let loss = g.sum_all(doubled);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn pad_front_backward_drops_padding() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let p = g.pad_front(x, 0, 3);
        let loss = g.sum_all(p);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn permute_backward_inverts() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]));
        let p = g.permute(x, &[1, 0]);
        let w = g.constant(Tensor::from_vec((0..6).map(|v| (v * v) as f32).collect(), &[3, 2]));
        let y = g.mul(p, w);
        let loss = g.sum_all(y);
        g.backward(loss);
        // grad of x must be w transposed back
        let gx = g.grad(x).unwrap();
        assert_eq!(gx.shape(), &[2, 3]);
        assert_eq!(gx.at(&[0, 1]), 4.0); // w[1,0] = (1*2)^2 = 4
    }

    #[test]
    fn matmul_nt_backward_matches_transpose_then_matmul() {
        // Same product built two ways — fused `a·bᵀ` node vs. explicit
        // permute + matmul — must produce identical values and gradients.
        let av = Tensor::from_vec((0..6).map(|v| v as f32 - 2.0).collect(), &[2, 3]);
        let bv = Tensor::from_vec((0..12).map(|v| (v % 5) as f32 - 1.0).collect(), &[4, 3]);

        let mut g = Graph::new();
        let a = g.constant(av.clone());
        let b = g.constant(bv.clone());
        let y = g.matmul_nt(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);

        let mut g2 = Graph::new();
        let a2 = g2.constant(av);
        let b2 = g2.constant(bv);
        let bt = g2.permute(b2, &[1, 0]);
        let y2 = g2.matmul(a2, bt);
        let loss2 = g2.sum_all(y2);
        g2.backward(loss2);

        assert!(g.value(y).allclose(g2.value(y2), 1e-6));
        assert!(g.grad(a).unwrap().allclose(g2.grad(a2).unwrap(), 1e-6));
        assert!(g.grad(b).unwrap().allclose(g2.grad(b2).unwrap(), 1e-6));
    }

    #[test]
    fn bmm_nt_backward_matches_transpose_then_bmm() {
        let av = Tensor::from_vec((0..24).map(|v| (v % 7) as f32 - 3.0).collect(), &[2, 3, 4]);
        let bv = Tensor::from_vec((0..40).map(|v| (v % 5) as f32 - 2.0).collect(), &[2, 5, 4]);

        let mut g = Graph::new();
        let a = g.constant(av.clone());
        let b = g.constant(bv.clone());
        let y = g.bmm_nt(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);

        let mut g2 = Graph::new();
        let a2 = g2.constant(av);
        let b2 = g2.constant(bv);
        let bt = g2.permute(b2, &[0, 2, 1]);
        let y2 = g2.bmm(a2, bt);
        let loss2 = g2.sum_all(y2);
        g2.backward(loss2);

        assert!(g.value(y).allclose(g2.value(y2), 1e-6));
        assert!(g.grad(a).unwrap().allclose(g2.grad(a2).unwrap(), 1e-6));
        assert!(g.grad(b).unwrap().allclose(g2.grad(b2).unwrap(), 1e-6));
    }

    #[test]
    fn fused_matmul_grads_match_materialized_transpose_reference() {
        // The fused rules must agree with the seed formulation that
        // materialized transposes: ga = gy·Bᵀ and gb = Aᵀ·gy computed
        // tensor-side with explicit transposes.
        let av = Tensor::from_vec((0..15).map(|v| (v % 4) as f32 - 1.5).collect(), &[3, 5]);
        let bv = Tensor::from_vec((0..20).map(|v| (v % 6) as f32 - 2.0).collect(), &[5, 4]);
        let mut g = Graph::new();
        let a = g.constant(av.clone());
        let b = g.constant(bv.clone());
        let y = g.matmul(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        let gy = Tensor::ones(&[3, 4]);
        let ga_ref = gy.matmul(&bv.transpose());
        let gb_ref = av.transpose().matmul(&gy);
        assert!(g.grad(a).unwrap().allclose(&ga_ref, 1e-6));
        assert!(g.grad(b).unwrap().allclose(&gb_ref, 1e-6));
    }

    #[test]
    fn broadcast_right_backward_handles_rank_4() {
        // The generalized shared-filter op folds arbitrary leading axes;
        // its gradient must land back in the rank-4 input shape.
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[2, 3, 4, 5]));
        let w = g.constant(Tensor::ones(&[5, 6]));
        let y = g.matmul_broadcast_right(x, w);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.value(y).shape(), &[2, 3, 4, 6]);
        assert_eq!(g.grad(x).unwrap().shape(), &[2, 3, 4, 5]);
        // gw sums over 2*3*4 = 24 folded rows.
        assert!(g.grad(w).unwrap().allclose(&Tensor::full(&[5, 6], 24.0), 1e-5));
    }

    #[test]
    fn bmm_backward_shapes() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::ones(&[2, 3, 4]));
        let b = g.constant(Tensor::ones(&[2, 4, 5]));
        let y = g.bmm(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().shape(), &[2, 3, 4]);
        assert_eq!(g.grad(b).unwrap().shape(), &[2, 4, 5]);
        // Every grad element of a is n=5 (sum over the 5 output cols).
        assert!(g.grad(a).unwrap().allclose(&Tensor::full(&[2, 3, 4], 5.0), 1e-5));
    }

    #[test]
    fn broadcast_matmul_backward_shapes() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::ones(&[3, 3]));
        let x = g.constant(Tensor::ones(&[2, 3, 4]));
        let y = g.matmul_broadcast_left(a, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().shape(), &[3, 3]);
        assert_eq!(g.grad(x).unwrap().shape(), &[2, 3, 4]);

        let mut g2 = Graph::new();
        let x2 = g2.constant(Tensor::ones(&[2, 3, 4]));
        let w = g2.constant(Tensor::ones(&[4, 5]));
        let y2 = g2.matmul_broadcast_right(x2, w);
        let loss2 = g2.sum_all(y2);
        g2.backward(loss2);
        assert_eq!(g2.grad(x2).unwrap().shape(), &[2, 3, 4]);
        assert_eq!(g2.grad(w).unwrap().shape(), &[4, 5]);
        // grad of w sums over batch*rows = 6
        assert!(g2.grad(w).unwrap().allclose(&Tensor::full(&[4, 5], 6.0), 1e-5));
    }
}
