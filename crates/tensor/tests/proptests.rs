//! Property-based tests for the tensor substrate: algebraic identities that
//! must hold for arbitrary shapes and contents.

use enhancenet_tensor::kernel::available_kernels;
use enhancenet_tensor::matmul::matmul_with_kernel;
use enhancenet_tensor::{broadcast_shapes, Tensor};
use proptest::prelude::*;

/// Strategy: a tensor with 1–3 axes of size 1–6 and values in ±10.
fn small_tensor() -> impl Strategy<Value = Tensor> {
    prop::collection::vec(1usize..6, 1..4).prop_flat_map(|shape| {
        let n: usize = shape.iter().product();
        prop::collection::vec(-10.0f32..10.0, n)
            .prop_map(move |data| Tensor::from_vec(data, &shape))
    })
}

/// Strategy: a square matrix of side 1–8.
fn square_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..8).prop_flat_map(|n| {
        prop::collection::vec(-5.0f32..5.0, n * n)
            .prop_map(move |data| Tensor::from_vec(data, &[n, n]))
    })
}

/// Strategy: one GEMM dimension, biased toward the odd/prime sizes that
/// stress the engine's ragged micro-tile edges and block boundaries
/// (MR = 4, NR = 8, MC = 64, KC = 256).
fn gemm_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(3),
        Just(5),
        Just(7),
        Just(13),
        Just(17),
        Just(31),
        Just(65),
        Just(67),
    ]
}

/// Strategy: a small-integer-valued tensor. Products and sums of these stay
/// exactly representable in f32, so kernel comparisons can demand bitwise
/// equality regardless of accumulation order.
fn int_valued(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    prop::collection::vec(-3i32..4, n)
        .prop_map(move |data| Tensor::from_vec(data.iter().map(|&v| v as f32).collect(), &shape))
}

/// Naive triple-loop reference GEMM: the semantics every engine path
/// (direct, blocked/packed, parallel, transpose-fused) must reproduce.
fn reference_mm(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            for j in 0..n {
                out[i * n + j] += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

proptest! {
    #[test]
    fn add_is_commutative(t in small_tensor()) {
        let u = t.map(|v| v * 0.5 + 1.0);
        prop_assert!(t.add_t(&u).allclose(&u.add_t(&t), 1e-5));
    }

    #[test]
    fn add_zero_is_identity(t in small_tensor()) {
        let z = Tensor::zeros(t.shape());
        prop_assert!(t.add_t(&z).allclose(&t, 0.0));
    }

    #[test]
    fn mul_by_one_is_identity(t in small_tensor()) {
        prop_assert!(t.mul_t(&Tensor::ones(t.shape())).allclose(&t, 0.0));
    }

    #[test]
    fn sub_self_is_zero(t in small_tensor()) {
        prop_assert!(t.sub_t(&t).allclose(&Tensor::zeros(t.shape()), 0.0));
    }

    #[test]
    fn broadcast_shape_is_symmetric(
        a in prop::collection::vec(1usize..5, 0..4),
        b in prop::collection::vec(1usize..5, 0..4),
    ) {
        // Make shapes compatible by replacing mismatches with 1 on one side.
        let rank = a.len().max(b.len());
        let mut a2 = vec![1; rank - a.len()]; a2.extend(&a);
        let mut b2 = vec![1; rank - b.len()]; b2.extend(&b);
        for i in 0..rank {
            if a2[i] != b2[i] && a2[i] != 1 && b2[i] != 1 { b2[i] = 1; }
        }
        prop_assert_eq!(broadcast_shapes(&a2, &b2), broadcast_shapes(&b2, &a2));
    }

    #[test]
    fn matmul_identity_right(m in square_matrix()) {
        let i = Tensor::eye(m.shape()[0]);
        prop_assert!(m.matmul(&i).allclose(&m, 1e-4));
    }

    #[test]
    fn matmul_distributes_over_add(a in square_matrix()) {
        let b = a.map(|v| v - 1.0);
        let c = a.map(|v| 0.5 * v + 2.0);
        let lhs = a.matmul(&b.add_t(&c));
        let rhs = a.matmul(&b).add_t(&a.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-2));
    }

    #[test]
    fn transpose_of_matmul(a in square_matrix()) {
        let b = a.map(|v| v * 0.25 - 1.0);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn softmax_rows_are_distributions(t in small_tensor()) {
        let s = t.softmax(-1);
        let sums = s.sum_axis(-1);
        prop_assert!(sums.data().iter().all(|&v| (v - 1.0).abs() < 1e-4));
        prop_assert!(s.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn sum_axis_total_matches_sum_all(t in small_tensor()) {
        let total: f32 = t.sum_all();
        let via_axis: f32 = t.sum_axis(0).sum_all();
        prop_assert!((total - via_axis).abs() < 1e-3 * (1.0 + total.abs()));
    }

    #[test]
    fn reduce_to_shape_preserves_total(t in small_tensor()) {
        // Reducing a broadcast gradient must conserve the total mass.
        let target: Vec<usize> = t.shape().iter().map(|_| 1).collect();
        let r = t.reduce_to_shape(&target);
        prop_assert!((r.sum_all() - t.sum_all()).abs() < 1e-3 * (1.0 + t.sum_all().abs()));
    }

    #[test]
    fn concat_then_slice_roundtrips(t in small_tensor()) {
        let c = Tensor::concat(&[&t, &t], 0);
        let first = c.slice_axis(0, 0, t.shape()[0]);
        prop_assert!(first.allclose(&t, 0.0));
    }

    #[test]
    fn permute_is_invertible(t in small_tensor()) {
        let rank = t.rank();
        let perm: Vec<usize> = (0..rank).rev().collect();
        let mut inv = vec![0; rank];
        for (i, &p) in perm.iter().enumerate() { inv[p] = i; }
        prop_assert!(t.permute(&perm).permute(&inv).allclose(&t, 0.0));
    }

    #[test]
    fn sigmoid_bounded_and_monotone(t in small_tensor()) {
        let s = t.sigmoid();
        prop_assert!(s.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // σ(x) + σ(-x) = 1
        let s_neg = (-&t).sigmoid();
        prop_assert!(s.add_t(&s_neg).allclose(&Tensor::ones(t.shape()), 1e-5));
    }

    #[test]
    fn pad_then_slice_recovers(t in small_tensor()) {
        let mut padded = Tensor::default();
        t.pad_axis_front_into(0, 2, 7.5, &mut padded);
        let tail = padded.slice_axis(0, 2, padded.shape()[0]);
        prop_assert!(tail.allclose(&t, 0.0));
    }
}

proptest! {
    // GEMM-engine properties run fewer, larger cases: each case multiplies
    // matrices up to 67³ against the naive reference.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_naive_reference(
        (a, b) in (gemm_dim(), gemm_dim(), gemm_dim()).prop_flat_map(|(m, k, n)| {
            (int_valued(vec![m, k]), int_valued(vec![k, n]))
        })
    ) {
        let got = a.matmul(&b);
        let want = reference_mm(&a, &b);
        prop_assert_eq!(got.data(), want.data());
    }

    #[test]
    fn matmul_tn_matches_materialized_transpose(
        (a, b) in (gemm_dim(), gemm_dim(), gemm_dim()).prop_flat_map(|(m, k, n)| {
            (int_valued(vec![m, k]), int_valued(vec![k, n]))
        })
    ) {
        // Store aᵀ as [k,m]; the fused kernel must recover a·b exactly.
        let want = reference_mm(&a, &b);
        prop_assert_eq!(a.transpose().matmul_tn(&b).data(), want.data());
    }

    #[test]
    fn matmul_nt_matches_materialized_transpose(
        (a, b) in (gemm_dim(), gemm_dim(), gemm_dim()).prop_flat_map(|(m, k, n)| {
            (int_valued(vec![m, k]), int_valued(vec![k, n]))
        })
    ) {
        // Store bᵀ as [n,k]; the fused kernel must recover a·b exactly.
        let want = reference_mm(&a, &b);
        prop_assert_eq!(a.matmul_nt(&b.transpose()).data(), want.data());
    }

    #[test]
    fn bmm_tn_nt_match_per_batch_reference(
        (a, b) in (1usize..4, gemm_dim(), gemm_dim(), gemm_dim()).prop_flat_map(|(bs, m, k, n)| {
            (int_valued(vec![bs, m, k]), int_valued(vec![bs, k, n]))
        })
    ) {
        let (bs, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
        let n = b.shape()[2];
        let want = a.bmm(&b);
        for bi in 0..bs {
            let ai = Tensor::from_vec(a.data()[bi * m * k..(bi + 1) * m * k].to_vec(), &[m, k]);
            let bi_t = Tensor::from_vec(b.data()[bi * k * n..(bi + 1) * k * n].to_vec(), &[k, n]);
            let per = reference_mm(&ai, &bi_t);
            prop_assert_eq!(&want.data()[bi * m * n..(bi + 1) * m * n], per.data());
        }
        prop_assert_eq!(a.transpose_batched().bmm_tn(&b).data(), want.data());
        prop_assert_eq!(a.bmm_nt(&b.transpose_batched()).data(), want.data());
    }

    #[test]
    fn broadcast_left_kernels_match_unfused_formulations(
        (a, x) in (1usize..4, gemm_dim(), gemm_dim(), gemm_dim()).prop_flat_map(|(bs, m, k, n)| {
            (int_valued(vec![m, k]), int_valued(vec![bs, k, n]))
        })
    ) {
        let y = a.matmul_broadcast_left(&x); // [bs, m, n]
        // The _tn gradient twin vs. an explicit materialized transpose.
        prop_assert_eq!(
            a.matmul_broadcast_left_tn(&y).data(),
            a.transpose().matmul_broadcast_left(&y).data()
        );
        // Batch-summed nt-reduce (the adjacency gradient) vs. bmm_nt + sum.
        prop_assert_eq!(
            y.bmm_nt_reduce(&x).data(),
            y.bmm_nt(&x).sum_axis(0).data()
        );
    }

    #[test]
    fn every_dispatch_kernel_matches_naive_reference(
        (a, b) in (gemm_dim(), gemm_dim(), gemm_dim()).prop_flat_map(|(m, k, n)| {
            (int_valued(vec![m, k]), int_valued(vec![k, n]))
        })
    ) {
        // Every micro-kernel the host can run (scalar fallback + detected
        // SIMD variants), serial and intra-GEMM-parallel, forced through
        // the blocked engine even below its work threshold. gemm_dim()
        // includes the degenerate sizes — m or n below any kernel's MR/NR,
        // and k = 1 — that stress ragged tiles and zero padding. Integer
        // values keep products exact under FMA, so the comparison is
        // bitwise for the SIMD kernels too.
        let want = reference_mm(&a, &b);
        for kernel in available_kernels() {
            for parallel in [false, true] {
                let got = matmul_with_kernel(&a, &b, kernel, parallel);
                prop_assert_eq!(
                    got.data(),
                    want.data(),
                    "kernel {} parallel={} on {:?}x{:?}",
                    kernel.name(),
                    parallel,
                    a.shape(),
                    b.shape()
                );
            }
        }
    }

    #[test]
    fn broadcast_right_kernels_match_unfused_formulations(
        (x, w) in (1usize..4, gemm_dim(), gemm_dim(), gemm_dim()).prop_flat_map(|(bs, m, k, p)| {
            (int_valued(vec![bs, m, k]), int_valued(vec![k, p]))
        })
    ) {
        let (bs, m, k) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let p = w.shape()[1];
        let z = x.matmul_broadcast_right(&w); // [bs, m, p]
        // Shared-right fold vs. explicit flatten + matmul.
        prop_assert_eq!(z.data(), x.reshape(&[bs * m, k]).matmul(&w).reshape(&[bs, m, p]).data());
        // The _nt gradient twin vs. a materialized transpose.
        prop_assert_eq!(z.data(), x.matmul_broadcast_right_nt(&w.transpose()).data());
        // Weight-grad fold: xᵀ_flat · z_flat in one fused call.
        prop_assert_eq!(
            x.matmul_tn_flat(&z).data(),
            x.reshape(&[bs * m, k]).transpose().matmul(&z.reshape(&[bs * m, p])).data()
        );
    }
}

/// Compares two results entry-wise under IEEE special-value semantics:
/// NaN positions must match, and every non-NaN entry (finite or ±∞) must
/// be identical.
fn assert_special_parity(got: &Tensor, want: &Tensor, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape mismatch");
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "{label}: entry {i} should be NaN, got {g}");
        } else {
            assert_eq!(g, w, "{label}: entry {i} differs ({g} vs {w})");
        }
    }
}

#[test]
fn nan_and_inf_propagate_identically_across_kernels() {
    // Both kernels consume the same packed panels in the same depth
    // order, so a NaN or ±∞ operand must poison exactly the same output
    // entries: NaN rows/columns stay NaN, ∞ rows produce ±∞ (or NaN where
    // an ∞·0 product arises), and untouched entries stay bit-equal. The
    // blocked engine has no zero-skip (unlike the small-product direct
    // path), so scalar multiply-add and SIMD FMA agree on every special
    // case; integer-valued finite entries keep the rest exact.
    let (m, k, n) = (9, 17, 21);
    let mut a: Vec<f32> = (0..m * k).map(|v| ((v * 7 + 1) % 5) as f32 - 2.0).collect();
    let mut b: Vec<f32> = (0..k * n).map(|v| ((v * 11 + 2) % 5) as f32 - 2.0).collect();
    a[3] = f32::NAN; // row 0 of a -> output row 0 all NaN
    a[k + 2] = f32::INFINITY; // row 1 -> ±∞ or NaN depending on b's column
    a[2 * k + 5] = f32::NEG_INFINITY;
    b[4 * n + 7] = f32::INFINITY; // column 7 of b
    b[5 * n] = 0.0; // guarantees an ∞·0 -> NaN pairing with row 2's -∞? no:
                    // row 1 col 0 sees a[1][5]·b[5][0]; make that pair ∞·0.
    let a = Tensor::from_vec(a, &[m, k]);
    let b = Tensor::from_vec(b, &[k, n]);
    let kernels = available_kernels();
    let (scalar, rest) = kernels.split_first().expect("scalar fallback always available");
    assert_eq!(scalar.name(), "scalar");
    for parallel in [false, true] {
        let want = matmul_with_kernel(&a, &b, *scalar, parallel);
        // The poisoned lanes really are special, so parity is non-vacuous.
        assert!(want.data().iter().any(|v| v.is_nan()));
        assert!(want.data().iter().any(|v| v.is_infinite()));
        for kernel in rest {
            let got = matmul_with_kernel(&a, &b, *kernel, parallel);
            assert_special_parity(&got, &want, kernel.name());
        }
    }
}

#[test]
fn degenerate_shapes_hit_every_kernel_exactly() {
    // m or n smaller than any kernel's tile, and k = 1: the pure
    // ragged-edge regime where only zero padding keeps tiles full.
    for &(m, k, n) in &[(1, 1, 1), (2, 1, 3), (3, 1, 15), (1, 64, 1), (5, 257, 2)] {
        let a = Tensor::from_vec((0..m * k).map(|v| (v % 5) as f32 - 2.0).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * n).map(|v| (v % 7) as f32 - 3.0).collect(), &[k, n]);
        let want = reference_mm(&a, &b);
        for kernel in available_kernels() {
            let got = matmul_with_kernel(&a, &b, kernel, false);
            assert_eq!(got.data(), want.data(), "kernel {} at ({m},{k},{n})", kernel.name());
        }
    }
}
