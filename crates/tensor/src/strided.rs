//! The one strided walker behind every broadcast and permute kernel.
//!
//! A kernel describes each operand as a stride per output axis (stride 0
//! revisits an element along a broadcast axis) and writes its output in
//! row-major order. [`Runs`] coalesces that index space into contiguous
//! runs: it drops size-1 axes, merges each adjacent pair of axes that stays
//! contiguous for every operand, and walks the remaining outer axes with an
//! odometer, handing each run over the innermost merged axis to a run
//! kernel. The run kernels below specialise on the innermost strides, so
//! the per-element work is a slice zip, a splat or a `memcpy`.
//!
//! Each output element is exactly one `f(a, b)` (or one copy) of the same
//! operands in the same argument order, whichever way the runs are cut;
//! nothing is reduced, so the bits cannot depend on the coalescing.

use crate::shape::MAX_RANK;

/// The coalesced iteration space of `K` operands over one output shape.
struct Runs<const K: usize> {
    /// Merged outer axes (the innermost merged axis is `len`/`step`).
    outer: usize,
    dims: [usize; MAX_RANK],
    strides: [[usize; MAX_RANK]; K],
    /// Length of every run; 0 when the output is empty.
    len: usize,
    /// Per-operand stride within a run.
    step: [usize; K],
}

impl<const K: usize> Runs<K> {
    /// Coalesces `dims` with one stride slice per operand (each as long as
    /// `dims`, at most [`MAX_RANK`]).
    ///
    /// Axes `i < j` merge when, for every operand, `stride[i] == stride[j] *
    /// dims[j]`: stepping the outer axis then lands exactly where running
    /// off the end of the inner one would. Broadcast axes (stride 0) merge
    /// with each other under the same rule.
    fn new(dims: &[usize], strides: [&[usize]; K]) -> Self {
        let mut merged = Self {
            outer: 0,
            dims: [0; MAX_RANK],
            strides: [[0; MAX_RANK]; K],
            len: 1,
            step: [0; K],
        };
        let mut rank = 0usize;
        for (ax, &d) in dims.iter().enumerate() {
            if d == 0 {
                merged.len = 0;
                return merged;
            }
            if d == 1 {
                continue;
            }
            match rank.checked_sub(1) {
                Some(last) if (0..K).all(|k| merged.strides[k][last] == strides[k][ax] * d) => {
                    merged.dims[last] *= d;
                    for (m, s) in merged.strides.iter_mut().zip(strides) {
                        m[last] = s[ax];
                    }
                }
                _ => {
                    merged.dims[rank] = d;
                    for (m, s) in merged.strides.iter_mut().zip(strides) {
                        m[rank] = s[ax];
                    }
                    rank += 1;
                }
            }
        }
        if rank > 0 {
            merged.outer = rank - 1;
            merged.len = merged.dims[rank - 1];
            merged.step = std::array::from_fn(|k| merged.strides[k][rank - 1]);
        }
        merged
    }

    /// Calls `run(offsets)` with every operand's start offset for each run,
    /// in row-major output order.
    fn for_each(&self, mut run: impl FnMut([usize; K])) {
        if self.len == 0 {
            return;
        }
        let mut idx = [0usize; MAX_RANK];
        let mut off = [0usize; K];
        loop {
            run(off);
            let mut ax = self.outer;
            loop {
                if ax == 0 {
                    return;
                }
                ax -= 1;
                idx[ax] += 1;
                for (o, s) in off.iter_mut().zip(&self.strides) {
                    *o += s[ax];
                }
                if idx[ax] < self.dims[ax] {
                    break;
                }
                for (o, s) in off.iter_mut().zip(&self.strides) {
                    *o -= s[ax] * idx[ax];
                }
                idx[ax] = 0;
            }
        }
    }
}

/// Appends `src` gathered over `dims` with per-axis `strides` to `out`
/// (the body of permute and broadcast-to). The whole output is reserved up
/// front: a no-op for a warm arena slot, one allocation on the tape.
pub(crate) fn gather_into(src: &[f32], dims: &[usize], strides: &[usize], out: &mut Vec<f32>) {
    out.reserve(dims.iter().product());
    let runs = Runs::new(dims, [strides]);
    let len = runs.len;
    match runs.step {
        [1] => runs.for_each(|[o]| out.extend_from_slice(&src[o..o + len])),
        [0] => runs.for_each(|[o]| out.extend(std::iter::repeat_n(src[o], len))),
        [s] => runs.for_each(|[o]| out.extend((0..len).map(|i| src[o + i * s]))),
    }
}

/// Appends `f(a, b)` over `dims` with per-axis strides `sa`/`sb` to `out`
/// (the body of the broadcasting binary ops).
pub(crate) fn zip_into(
    a: &[f32],
    sa: &[usize],
    b: &[f32],
    sb: &[usize],
    dims: &[usize],
    f: impl Fn(f32, f32) -> f32,
    out: &mut Vec<f32>,
) {
    out.reserve(dims.iter().product());
    let runs = Runs::new(dims, [sa, sb]);
    let len = runs.len;
    match runs.step {
        [1, 1] => runs.for_each(|[oa, ob]| {
            out.extend(a[oa..oa + len].iter().zip(&b[ob..ob + len]).map(|(&x, &y)| f(x, y)))
        }),
        [1, 0] => runs.for_each(|[oa, ob]| {
            let y = b[ob];
            out.extend(a[oa..oa + len].iter().map(|&x| f(x, y)))
        }),
        [0, 1] => runs.for_each(|[oa, ob]| {
            let x = a[oa];
            out.extend(b[ob..ob + len].iter().map(|&y| f(x, y)))
        }),
        [ia, ib] => runs
            .for_each(|[oa, ob]| out.extend((0..len).map(|i| f(a[oa + i * ia], b[ob + i * ib])))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of<const K: usize>(dims: &[usize], strides: [&[usize]; K]) -> Vec<([usize; K], usize)> {
        let runs = Runs::new(dims, strides);
        let mut seen = Vec::new();
        runs.for_each(|off| seen.push((off, runs.len)));
        seen
    }

    #[test]
    fn contiguous_axes_merge_into_one_run() {
        assert_eq!(runs_of(&[2, 3, 4], [&[12, 4, 1]]), vec![([0], 24)]);
    }

    #[test]
    fn size_one_axes_are_dropped_and_scalars_are_one_run() {
        assert_eq!(runs_of(&[2, 1, 3], [&[3, 99, 1]]), vec![([0], 6)]);
        assert_eq!(runs_of(&[], [&[]]), vec![([0], 1)]);
        assert_eq!(runs_of(&[1, 1], [&[5, 7], &[0, 0]]), vec![([0, 0], 1)]);
    }

    #[test]
    fn broadcast_axes_merge_with_each_other_but_not_across_operands() {
        // `[2, 3, 4] + [4]`: the two leading axes merge (both strides
        // contiguous for `a`, both 0 for `b`), the inner one cannot.
        let seen = runs_of(&[2, 3, 4], [&[12, 4, 1], &[0, 0, 1]]);
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], ([0, 0], 4));
        assert_eq!(seen[5], ([20, 0], 4));
    }

    #[test]
    fn empty_output_has_no_runs() {
        assert!(runs_of(&[3, 0, 2], [&[0, 2, 1]]).is_empty());
    }

    #[test]
    fn permuted_strides_walk_in_output_order() {
        // Transpose of a [2, 3] matrix: out [3, 2], strides [1, 3].
        let mut out = Vec::new();
        gather_into(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[3, 2], &[1, 3], &mut out);
        assert_eq!(out, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }
}
