//! Shape manipulation: reshape, transpose, permute, concat, slice, stack,
//! padding, broadcasting, and axis selection. Every kernel the autodiff op
//! table runs has an `_into` form writing a reused buffer; an allocating
//! wrapper, where one remains, delegates to that form.

use crate::shape::{broadcast_strides_array, normalize_axis, Shape, MAX_RANK};
use crate::strided;
use crate::tensor::Tensor;

impl Tensor {
    /// Reinterprets the buffer with a new shape of equal element count.
    ///
    /// One axis may be `usize::MAX` to mean "infer this dimension".
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let mut out = Tensor::default();
        self.reshape_into(shape, &mut out);
        out
    }

    /// [`Tensor::reshape`] into `out` (buffers reused, allocation-free when
    /// warm). One axis may be `usize::MAX` to mean "infer this dimension".
    pub fn reshape_into(&self, shape: &[usize], out: &mut Tensor) {
        assert!(shape.len() <= MAX_RANK, "reshape rank {} exceeds {MAX_RANK}", shape.len());
        let mut dims = [0usize; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        let dims = &mut dims[..shape.len()];
        if let Some(pos) = dims.iter().position(|&d| d == usize::MAX) {
            let known: usize = dims.iter().filter(|&&d| d != usize::MAX).product();
            assert!(
                known > 0 && self.numel() % known == 0,
                "cannot infer axis: numel {} not divisible by {:?}",
                self.numel(),
                shape
            );
            dims[pos] = self.numel() / known;
        }
        assert_eq!(
            Shape::numel(dims),
            self.numel(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        out.copy_from_with_shape(dims, &self.data);
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose expects rank 2, got {:?}", self.shape);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// General axis permutation (`perm` is a permutation of `0..rank`).
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let mut out = Tensor::default();
        self.permute_into(perm, &mut out);
        out
    }

    /// [`Tensor::permute`] into `out`: a gather over contiguous runs of the
    /// permuted index space, with stack-only bookkeeping so warm executions
    /// stay allocation-free.
    pub fn permute_into(&self, perm: &[usize], out: &mut Tensor) {
        assert_eq!(perm.len(), self.rank(), "permute rank mismatch");
        let rank = perm.len();
        assert!(rank <= MAX_RANK, "permute rank {rank} exceeds {MAX_RANK}");
        let mut seen = [false; MAX_RANK];
        for &p in perm {
            assert!(p < rank && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let mut out_shape = [0usize; MAX_RANK];
        let mut in_strides = [1usize; MAX_RANK];
        for i in (0..rank.saturating_sub(1)).rev() {
            in_strides[i] = in_strides[i + 1] * self.shape[i + 1];
        }
        let mut perm_strides = [0usize; MAX_RANK];
        for (ax, &p) in perm.iter().enumerate() {
            out_shape[ax] = self.shape[p];
            perm_strides[ax] = in_strides[p];
        }
        out.reset_for(&out_shape[..rank]);
        strided::gather_into(&self.data, &out_shape[..rank], &perm_strides[..rank], &mut out.data);
    }

    /// Batched transpose of the last two axes of a rank-3 tensor.
    pub fn transpose_batched(&self) -> Tensor {
        assert_eq!(self.rank(), 3, "transpose_batched expects rank 3");
        self.permute(&[0, 2, 1])
    }

    /// Concatenates tensors along `axis`. All other axes must agree.
    pub fn concat(parts: &[&Tensor], axis: isize) -> Tensor {
        let mut out = Tensor::default();
        Tensor::concat_into(parts.iter().copied(), axis, &mut out);
        out
    }

    /// [`Tensor::concat`] into `out`, taking the parts as a re-iterable
    /// (`Clone`) iterator so hot callers need not materialize a `Vec<&Tensor>`.
    pub fn concat_into<'a, I>(parts: I, axis: isize, out: &mut Tensor)
    where
        I: Iterator<Item = &'a Tensor> + Clone,
    {
        let first = parts.clone().next().expect("concat of zero tensors");
        let rank = first.rank();
        assert!(rank <= MAX_RANK, "concat rank {rank} exceeds {MAX_RANK}");
        let ax = normalize_axis(axis, rank);
        let mut out_shape = [0usize; MAX_RANK];
        out_shape[..rank].copy_from_slice(&first.shape);
        let mut axis_total = 0usize;
        for p in parts.clone() {
            assert_eq!(p.rank(), rank, "concat rank mismatch");
            for d in 0..rank {
                if d != ax {
                    assert_eq!(
                        p.shape[d],
                        out_shape[d],
                        "concat shape mismatch on axis {d}: {:?} vs {:?}",
                        p.shape,
                        &out_shape[..rank]
                    );
                }
            }
            axis_total += p.shape[ax];
        }
        out_shape[ax] = axis_total;
        let out_shape = &out_shape[..rank];
        let outer: usize = out_shape[..ax].iter().product();
        let inner: usize = out_shape[ax + 1..].iter().product();
        out.reset_for(out_shape);
        for o in 0..outer {
            for p in parts.clone() {
                let len = p.shape[ax] * inner;
                out.data.extend_from_slice(&p.data[o * len..(o + 1) * len]);
            }
        }
    }

    /// Stacks same-shaped tensors along a new leading axis.
    pub fn stack(parts: &[&Tensor]) -> Tensor {
        let mut out = Tensor::default();
        Tensor::stack_into(parts.iter().copied(), &mut out);
        out
    }

    /// [`Tensor::stack`] into `out` from a re-iterable iterator of parts —
    /// the serving worker assembles request batches through this without
    /// allocating when warm.
    pub fn stack_into<'a, I>(parts: I, out: &mut Tensor)
    where
        I: Iterator<Item = &'a Tensor> + Clone,
    {
        let first = parts.clone().next().expect("stack of zero tensors");
        let rank = first.rank();
        assert!(rank < MAX_RANK, "stack rank {} exceeds {MAX_RANK}", rank + 1);
        let mut shape = [0usize; MAX_RANK];
        shape[1..=rank].copy_from_slice(&first.shape);
        let mut count = 0usize;
        for p in parts.clone() {
            assert_eq!(p.shape, first.shape, "stack requires identical shapes");
            count += 1;
        }
        shape[0] = count;
        out.reset_for(&shape[..=rank]);
        for p in parts {
            out.data.extend_from_slice(&p.data);
        }
    }

    /// Copies the half-open range `[start, stop)` along `axis`.
    pub fn slice_axis(&self, axis: isize, start: usize, stop: usize) -> Tensor {
        let mut out = Tensor::default();
        self.slice_axis_into(axis, start, stop, &mut out);
        out
    }

    /// [`Tensor::slice_axis`] into `out` (buffers reused).
    pub fn slice_axis_into(&self, axis: isize, start: usize, stop: usize, out: &mut Tensor) {
        let ax = normalize_axis(axis, self.rank());
        assert!(
            start <= stop && stop <= self.shape[ax],
            "slice [{start},{stop}) out of bounds for axis {ax} with size {}",
            self.shape[ax]
        );
        let rank = self.rank();
        assert!(rank <= MAX_RANK, "slice rank {rank} exceeds {MAX_RANK}");
        let outer: usize = self.shape[..ax].iter().product();
        let inner: usize = self.shape[ax + 1..].iter().product();
        let axis_len = self.shape[ax];
        let mut out_shape = [0usize; MAX_RANK];
        out_shape[..rank].copy_from_slice(&self.shape);
        out_shape[ax] = stop - start;
        out.reset_for(&out_shape[..rank]);
        for o in 0..outer {
            let base = (o * axis_len + start) * inner;
            out.data.extend_from_slice(&self.data[base..base + (stop - start) * inner]);
        }
    }

    /// Selects a single index along `axis`, removing that axis.
    pub fn index_axis(&self, axis: isize, index: usize) -> Tensor {
        let ax = normalize_axis(axis, self.rank());
        let mut t = self.slice_axis(axis, index, index + 1);
        t.shape.remove(ax);
        t
    }

    /// Adds a new axis of length 1 at `axis`.
    pub fn unsqueeze(&self, axis: isize) -> Tensor {
        let rank = self.rank();
        let ax = if axis < 0 { (axis + rank as isize + 1) as usize } else { axis as usize };
        assert!(ax <= rank, "unsqueeze axis {axis} out of range for rank {rank}");
        let mut shape = self.shape.clone();
        shape.insert(ax, 1);
        Tensor { shape, data: self.data.clone() }
    }

    /// Removes an axis of length 1 at `axis`.
    pub fn squeeze(&self, axis: isize) -> Tensor {
        let ax = normalize_axis(axis, self.rank());
        assert_eq!(self.shape[ax], 1, "squeeze axis {ax} has size {}", self.shape[ax]);
        let mut shape = self.shape.clone();
        shape.remove(ax);
        Tensor { shape, data: self.data.clone() }
    }

    /// Left-pads `axis` with `count` copies of `value` into `out` (causal
    /// padding for dilated convolutions; buffers reused).
    pub fn pad_axis_front_into(&self, axis: isize, count: usize, value: f32, out: &mut Tensor) {
        let ax = normalize_axis(axis, self.rank());
        let rank = self.rank();
        assert!(rank <= MAX_RANK, "pad rank {rank} exceeds {MAX_RANK}");
        let mut padded_shape = [0usize; MAX_RANK];
        padded_shape[..rank].copy_from_slice(&self.shape);
        padded_shape[ax] += count;
        let outer: usize = self.shape[..ax].iter().product();
        let inner: usize = self.shape[ax + 1..].iter().product();
        let axis_len = self.shape[ax];
        out.reset_for(&padded_shape[..rank]);
        for o in 0..outer {
            out.data.extend(std::iter::repeat_n(value, count * inner));
            let base = o * axis_len * inner;
            out.data.extend_from_slice(&self.data[base..base + axis_len * inner]);
        }
    }

    /// Materializes the NumPy-style broadcast of `self` to `shape` into
    /// `out` (buffers reused) — a pure gather (no arithmetic), so `-0.0`,
    /// NaN payloads, and infinities are preserved exactly. This is the
    /// forward kernel of the autodiff `BroadcastTo` op.
    ///
    /// # Panics
    ///
    /// Panics when `self.shape` does not broadcast to `shape`.
    pub fn broadcast_to_into(&self, shape: &[usize], out: &mut Tensor) {
        let rank = shape.len();
        assert!(rank <= MAX_RANK, "broadcast rank {rank} exceeds {MAX_RANK}");
        assert!(rank >= self.rank(), "cannot broadcast {:?} to lower-rank {:?}", self.shape, shape);
        let pad = rank - self.rank();
        for (i, &d) in self.shape.iter().enumerate() {
            assert!(
                d == shape[pad + i] || d == 1,
                "shapes {:?} and {shape:?} are not broadcast-compatible",
                self.shape
            );
        }
        let mut strides = [0usize; MAX_RANK];
        broadcast_strides_array(&self.shape, shape, &mut strides);
        out.reset_for(shape);
        strided::gather_into(&self.data, shape, &strides[..rank], &mut out.data);
    }

    /// Repeats the whole tensor `n` times along a new leading axis.
    pub fn repeat_leading(&self, n: usize) -> Tensor {
        let mut shape = vec![n];
        shape.extend_from_slice(&self.shape);
        let mut data = Vec::with_capacity(self.numel() * n);
        for _ in 0..n {
            data.extend_from_slice(&self.data);
        }
        Tensor::from_vec(data, &shape)
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        Tensor { shape: vec![self.numel()], data: self.data.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t234() -> Tensor {
        Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4])
    }

    #[test]
    fn reshape_preserves_data() {
        let t = t234().reshape(&[6, 4]);
        assert_eq!(t.shape(), &[6, 4]);
        assert_eq!(t.at(&[5, 3]), 23.0);
    }

    #[test]
    fn reshape_infers_axis() {
        let t = t234().reshape(&[2, usize::MAX]);
        assert_eq!(t.shape(), &[2, 12]);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        t234().reshape(&[5, 5]);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert!(t.transpose().transpose().allclose(&t, 0.0));
    }

    #[test]
    fn permute_matches_transpose() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert!(t.permute(&[1, 0]).allclose(&t.transpose(), 0.0));
    }

    #[test]
    fn permute_3d_moves_axes() {
        let t = t234();
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn transpose_batched_swaps_last_two() {
        let t = t234();
        let b = t.transpose_batched();
        assert_eq!(b.shape(), &[2, 4, 3]);
        assert_eq!(b.at(&[1, 3, 0]), t.at(&[1, 0, 3]));
    }

    #[test]
    fn concat_axis0() {
        let a = Tensor::ones(&[1, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let c = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Tensor::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_last_axis_of_3d() {
        let t = t234();
        let left = t.slice_axis(-1, 0, 2);
        let right = t.slice_axis(-1, 2, 4);
        assert!(Tensor::concat(&[&left, &right], -1).allclose(&t, 0.0));
    }

    #[test]
    fn stack_adds_leading_axis() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::zeros(&[2]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn slice_axis_middle() {
        let t = t234();
        let s = t.slice_axis(1, 1, 3);
        assert_eq!(s.shape(), &[2, 2, 4]);
        assert_eq!(s.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn index_axis_removes_axis() {
        let t = t234();
        let s = t.index_axis(0, 1);
        assert_eq!(s.shape(), &[3, 4]);
        assert_eq!(s.at(&[2, 3]), 23.0);
    }

    #[test]
    fn unsqueeze_squeeze_roundtrip() {
        let t = Tensor::ones(&[2, 3]);
        let u = t.unsqueeze(1);
        assert_eq!(u.shape(), &[2, 1, 3]);
        assert!(u.squeeze(1).allclose(&t, 0.0));
        assert_eq!(t.unsqueeze(-1).shape(), &[2, 3, 1]);
    }

    #[test]
    fn pad_axis_front_causal() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let mut p = Tensor::default();
        t.pad_axis_front_into(0, 2, 0.0, &mut p);
        assert_eq!(p.data(), &[0.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn pad_axis_front_inner_axis() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut p = Tensor::default();
        t.pad_axis_front_into(1, 1, 9.0, &mut p);
        assert_eq!(p.shape(), &[2, 3]);
        assert_eq!(p.data(), &[9.0, 1.0, 2.0, 9.0, 3.0, 4.0]);
    }

    #[test]
    fn repeat_leading_copies() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let r = t.repeat_leading(3);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn flatten_to_rank1() {
        assert_eq!(t234().flatten().shape(), &[24]);
    }
}
