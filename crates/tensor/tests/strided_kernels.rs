//! Bitwise oracle for the strided kernels: broadcasting binary ops,
//! `permute` and `broadcast_to` must produce exactly the bits of the
//! per-element odometer loops they replaced, which are kept below as the
//! references.
//!
//! Inputs cover rank 0 up to the crate's stack-index bound, size-1 axes
//! anywhere, either operand broadcast on any subset of axes (scalars
//! included), every permutation of rank ≤ 4, and values that include `-0.0`,
//! `±∞` and NaNs with distinct payloads. Copies must keep every bit; binary
//! ops must too, except for the payload of NaN ⊕ NaN, which Rust leaves
//! unspecified (see [`assert_binary_bits`]). Each kernel is called in its
//! `_into` form writing into a reused, oversized buffer (the compiled-plan
//! arena case, which must not reallocate) and, where it has one, through
//! its allocating wrapper.

use enhancenet_tensor::{broadcast_shapes, Shape, Tensor};
use proptest::prelude::*;

/// Highest rank the tensor crate's allocation-free index math accepts.
const MAX_RANK: usize = 8;

// ------------------------------------------------------------ references

/// Strides of `src` viewed as the broadcast shape `dst` (0 on broadcast axes).
fn broadcast_strides(src: &[usize], dst: &[usize]) -> Vec<usize> {
    let src_strides = Shape::strides(src);
    let pad = dst.len() - src.len();
    (0..dst.len())
        .map(|i| if i < pad || src[i - pad] == 1 { 0 } else { src_strides[i - pad] })
        .collect()
}

/// The per-element odometer `broadcast_with_into` used before the strided
/// walker. It yields the operand pair each output element combines, so a
/// check can apply the op itself and see which inputs were NaN.
fn ref_broadcast_operands(a: &Tensor, b: &Tensor) -> (Vec<usize>, Vec<(f32, f32)>) {
    let out_shape = broadcast_shapes(a.shape(), b.shape());
    let rank = out_shape.len();
    let numel = Shape::numel(&out_shape);
    let sa = broadcast_strides(a.shape(), &out_shape);
    let sb = broadcast_strides(b.shape(), &out_shape);
    let mut pairs = Vec::new();
    let mut idx = vec![0usize; rank];
    let mut off_a = 0usize;
    let mut off_b = 0usize;
    for _ in 0..numel {
        pairs.push((a.data()[off_a], b.data()[off_b]));
        for ax in (0..rank).rev() {
            idx[ax] += 1;
            off_a += sa[ax];
            off_b += sb[ax];
            if idx[ax] < out_shape[ax] {
                break;
            }
            off_a -= sa[ax] * idx[ax];
            off_b -= sb[ax] * idx[ax];
            idx[ax] = 0;
        }
    }
    (out_shape, pairs)
}

/// The per-element odometer `permute_into` used before the strided walker.
fn ref_permute(t: &Tensor, perm: &[usize]) -> Tensor {
    let rank = perm.len();
    let in_strides = Shape::strides(t.shape());
    let out_shape: Vec<usize> = perm.iter().map(|&p| t.shape()[p]).collect();
    let perm_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let mut data = Vec::new();
    let mut idx = vec![0usize; rank];
    let mut off = 0usize;
    for _ in 0..t.numel() {
        data.push(t.data()[off]);
        for ax in (0..rank).rev() {
            idx[ax] += 1;
            off += perm_strides[ax];
            if idx[ax] < out_shape[ax] {
                break;
            }
            off -= perm_strides[ax] * idx[ax];
            idx[ax] = 0;
        }
    }
    Tensor::from_vec(data, &out_shape)
}

/// The per-element odometer `broadcast_to_into` used before the strided
/// walker.
fn ref_broadcast_to(t: &Tensor, shape: &[usize]) -> Tensor {
    let rank = shape.len();
    let strides = broadcast_strides(t.shape(), shape);
    let numel = Shape::numel(shape);
    let mut data = Vec::new();
    let mut idx = vec![0usize; rank];
    let mut off = 0usize;
    for _ in 0..numel {
        data.push(t.data()[off]);
        for ax in (0..rank).rev() {
            idx[ax] += 1;
            off += strides[ax];
            if idx[ax] < shape[ax] {
                break;
            }
            off -= strides[ax] * idx[ax];
            idx[ax] = 0;
        }
    }
    Tensor::from_vec(data, shape)
}

// ------------------------------------------------------------ strategies

/// Any f32 bit pattern, weighted toward the ones whose bits are easy to
/// disturb: signed zeros, infinities and NaNs with distinct payloads.
fn value() -> impl Strategy<Value = f32> {
    prop_oneof![
        -100.0f32..100.0,
        prop_oneof![Just(0.0f32), Just(-0.0), Just(f32::INFINITY), Just(f32::NEG_INFINITY)],
        // Positive quiet NaNs and negative NaNs (quiet or signalling).
        (0u32..0x0040_0000).prop_map(|p| f32::from_bits(0x7fc0_0000 | p)),
        (1u32..0x0080_0000).prop_map(|p| f32::from_bits(0xff80_0000 | p)),
        (0u32..=u32::MAX).prop_map(f32::from_bits),
    ]
}

fn tensor_of(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(value(), Shape::numel(&shape))
        .prop_map(move |data| Tensor::from_vec(data, &shape))
}

/// An output shape of rank 0..=MAX_RANK with size-1 axes anywhere; high
/// ranks get short axes so every case stays a few thousand elements.
fn out_shape() -> impl Strategy<Value = Vec<usize>> {
    (0usize..=MAX_RANK)
        .prop_flat_map(|rank| prop::collection::vec(1usize..=if rank <= 3 { 7 } else { 3 }, rank))
}

/// A shape that broadcasts to `out`: a trailing suffix of it (the empty
/// suffix is a scalar) with a random subset of axes set to 1.
fn operand_shape(out: Vec<usize>) -> impl Strategy<Value = Vec<usize>> {
    let rank = out.len();
    (0..=rank, prop::collection::vec(0u8..3, rank)).prop_map(move |(keep, mask)| {
        let lead = rank - keep;
        out[lead..].iter().zip(&mask[lead..]).map(|(&d, &m)| if m == 0 { 1 } else { d }).collect()
    })
}

fn broadcast_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    out_shape()
        .prop_flat_map(|out| (operand_shape(out.clone()), operand_shape(out)))
        .prop_flat_map(|(sa, sb)| (tensor_of(sa), tensor_of(sb)))
}

fn broadcast_source() -> impl Strategy<Value = (Tensor, Vec<usize>)> {
    out_shape()
        .prop_flat_map(|out| (operand_shape(out.clone()), Just(out)))
        .prop_flat_map(|(src, out)| (tensor_of(src), Just(out)))
}

fn any_tensor() -> impl Strategy<Value = Tensor> {
    out_shape().prop_flat_map(tensor_of)
}

// ------------------------------------------------------------ helpers

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(bits(got), bits(want), "{what}: bits differ for shape {:?}", want.shape());
}

/// What a binary op must produce from the odometer's operand pairs: the
/// bits of `f(x, y)`, except where both operands are NaN. Rust leaves the
/// payload of NaN ⊕ NaN unspecified (LLVM may commute the operands of a
/// commutative op), so there any quieted input payload is the right answer.
fn assert_binary_bits(
    got: &Tensor,
    (shape, pairs): &(Vec<usize>, Vec<(f32, f32)>),
    f: impl Fn(f32, f32) -> f32,
    what: &str,
) {
    assert_eq!(got.shape(), &shape[..], "{what}: shape");
    assert_eq!(got.numel(), pairs.len(), "{what}: numel");
    let quiet = |v: f32| v.to_bits() | 0x0040_0000;
    for (i, (&g, &(x, y))) in got.data().iter().zip(pairs).enumerate() {
        if x.is_nan() && y.is_nan() {
            assert!(
                [quiet(x), quiet(y)].contains(&g.to_bits()),
                "{what}: element {i} of NaN {:#x} and NaN {:#x} is {:#x}",
                x.to_bits(),
                y.to_bits(),
                g.to_bits()
            );
        } else {
            assert_eq!(
                g.to_bits(),
                f(x, y).to_bits(),
                "{what}: element {i} of {x:?} and {y:?} differs for shape {shape:?}"
            );
        }
    }
}

/// Runs `into` twice on one stale, oversized buffer (a warm arena slot),
/// asserts the buffer never moved (no reallocation) and returns it.
fn run_in_arena(numel: usize, what: &str, into: impl Fn(&mut Tensor)) -> Tensor {
    let mut arena = Tensor::full(&[numel * 2 + 7], f32::from_bits(0x7fc0_dead));
    let ptr = arena.data().as_ptr();
    for _ in 0..2 {
        into(&mut arena);
        assert_eq!(arena.data().as_ptr(), ptr, "{what}: _into reallocated a large-enough buffer");
    }
    arena
}

/// Every permutation of `0..rank`, in lexicographic order.
fn permutations(rank: usize) -> Vec<Vec<usize>> {
    if rank == 0 {
        return vec![vec![]];
    }
    let mut all = Vec::new();
    for rest in permutations(rank - 1) {
        for pos in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(pos, rank - 1);
            all.push(p);
        }
    }
    all.sort();
    all
}

/// The permutation that sorts `keys` (ties by position): a uniform random
/// permutation when `keys` are random.
fn argsort(keys: &[u32]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    perm.sort_by_key(|&i| (keys[i], i));
    perm
}

fn check_permute(t: &Tensor, perm: &[usize]) {
    let want = ref_permute(t, perm);
    let what = format!("permute {:?} by {perm:?}", t.shape());
    assert_same_bits(&t.permute(perm), &want, &what);
    let got = run_in_arena(want.numel(), &what, |out| t.permute_into(perm, out));
    assert_same_bits(&got, &want, &what);
}

// ------------------------------------------------------------ properties

/// A broadcasting op: its name, its scalar rule, and its allocating and
/// `_into` entry points.
type BinaryOp = (
    &'static str,
    fn(f32, f32) -> f32,
    fn(&Tensor, &Tensor) -> Tensor,
    fn(&Tensor, &Tensor, &mut Tensor),
);

proptest! {
    #[test]
    fn broadcast_binary_ops_match_the_odometer((a, b) in broadcast_pair()) {
        let ops: [BinaryOp; 4] = [
            ("add", |x, y| x + y, Tensor::add_t, Tensor::add_t_into),
            ("sub", |x, y| x - y, Tensor::sub_t, Tensor::sub_t_into),
            ("mul", |x, y| x * y, Tensor::mul_t, Tensor::mul_t_into),
            ("div", |x, y| x / y, Tensor::div_t, Tensor::div_t_into),
        ];
        for (x, y) in [(&a, &b), (&b, &a)] {
            let want = ref_broadcast_operands(x, y);
            let numel = want.1.len();
            for (name, f, alloc, into) in ops {
                let what = format!("{name} {:?} {:?}", x.shape(), y.shape());
                assert_binary_bits(&alloc(x, y), &want, f, &what);
                let got = run_in_arena(numel, &what, |out| into(x, y, out));
                assert_binary_bits(&got, &want, f, &what);
            }
            // An order-sensitive closure through the generic entry point.
            let f = |p: f32, q: f32| p * 3.0 - q;
            assert_binary_bits(&x.broadcast_with(y, f), &want, f, "broadcast_with");
            let got = run_in_arena(numel, "broadcast_with", |out| x.broadcast_with_into(y, f, out));
            assert_binary_bits(&got, &want, f, "broadcast_with");
        }
    }

    #[test]
    fn permute_matches_the_odometer(
        (t, keys) in any_tensor().prop_flat_map(|t| {
            let rank = t.rank();
            (Just(t), prop::collection::vec(0u32..1000, rank))
        })
    ) {
        if t.rank() <= 4 {
            for perm in permutations(t.rank()) {
                check_permute(&t, &perm);
            }
        } else {
            check_permute(&t, &argsort(&keys));
        }
    }

    #[test]
    fn broadcast_to_matches_the_odometer((t, shape) in broadcast_source()) {
        let want = ref_broadcast_to(&t, &shape);
        let what = format!("broadcast_to {:?} -> {shape:?}", t.shape());
        let got = run_in_arena(want.numel(), &what, |out| t.broadcast_to_into(&shape, out));
        assert_same_bits(&got, &want, &what);
    }
}

#[test]
fn permutations_are_all_distinct() {
    for rank in 0..=4 {
        let all = permutations(rank);
        let expected: usize = (1..=rank).product();
        assert_eq!(all.len(), expected);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn empty_axes_produce_empty_outputs() {
    let a = Tensor::zeros(&[3, 0, 2]);
    let b = Tensor::ones(&[2]);
    assert_binary_bits(&a.add_t(&b), &ref_broadcast_operands(&a, &b), |x, y| x + y, "add");
    assert_same_bits(&a.permute(&[2, 0, 1]), &ref_permute(&a, &[2, 0, 1]), "permute");
    let shape = [4, 3, 0, 2];
    let got = run_in_arena(0, "broadcast_to", |out| a.broadcast_to_into(&shape, out));
    assert_same_bits(&got, &ref_broadcast_to(&a, &shape), "broadcast_to");
}

#[test]
fn layouts_of_the_host_models_match_the_odometer() {
    // `[B, T, N, C]` activations against per-entity `[N, C]` filters and
    // `[B, 1, N, 1]` gates, and the entity-/time-major permutes between
    // layers; values are distinct so any misplaced element shows.
    let x =
        Tensor::from_vec((0..2 * 3 * 5 * 4).map(|v| v as f32 * 0.5 - 7.0).collect(), &[2, 3, 5, 4]);
    let w = Tensor::from_vec((0..5 * 4).map(|v| v as f32 + 0.25).collect(), &[5, 4]);
    let g = Tensor::from_vec((0..2 * 5).map(|v| -(v as f32)).collect(), &[2, 1, 5, 1]);
    for y in [&w, &g] {
        assert_binary_bits(&x.add_t(y), &ref_broadcast_operands(&x, y), |p, q| p + q, "add");
        assert_binary_bits(&y.mul_t(&x), &ref_broadcast_operands(y, &x), |p, q| p * q, "mul");
    }
    for perm in [[0, 2, 1, 3], [0, 1, 3, 2], [3, 2, 1, 0]] {
        assert_same_bits(&x.permute(&perm), &ref_permute(&x, &perm), "permute");
    }
    let shape = [2, 3, 5, 4];
    let got = run_in_arena(x.numel(), "broadcast_to", |out| w.broadcast_to_into(&shape, out));
    assert_same_bits(&got, &ref_broadcast_to(&w, &shape), "broadcast_to");
}
