//! Shape arithmetic: element counts, row-major strides, and NumPy-style
//! broadcasting.

/// Lightweight helper around a tensor shape (`&[usize]`).
///
/// Most code works with raw `&[usize]` slices; `Shape` collects the shared
/// arithmetic so it is implemented (and tested) exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Total number of elements described by the shape. The empty shape
    /// (rank 0, a scalar) has one element.
    pub fn numel(dims: &[usize]) -> usize {
        dims.iter().product()
    }

    /// Row-major (C-order) strides for `dims`.
    ///
    /// `strides[i]` is the linear-index distance between consecutive elements
    /// along axis `i`.
    pub fn strides(dims: &[usize]) -> Vec<usize> {
        let mut s = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * dims[i + 1];
        }
        s
    }

    /// Converts a multi-dimensional index to a linear offset.
    pub fn offset(dims: &[usize], idx: &[usize]) -> usize {
        debug_assert_eq!(dims.len(), idx.len());
        let strides = Self::strides(dims);
        idx.iter().zip(&strides).map(|(i, s)| i * s).sum()
    }
}

/// Computes the NumPy broadcast of two shapes.
///
/// Shapes are aligned at their trailing axes; each pair of axis lengths must
/// be equal or one of them must be `1`.
///
/// # Panics
///
/// Panics when the shapes are not broadcast-compatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Vec<usize> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = match (da, db) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            _ => panic!("shapes {a:?} and {b:?} are not broadcast-compatible"),
        };
    }
    out
}

/// Upper bound on tensor rank for the stack-allocated index math used by
/// the hot (allocation-free) execution paths.
pub(crate) const MAX_RANK: usize = 8;

/// Array-backed [`broadcast_shapes`]: writes the broadcast shape into a
/// stack buffer and returns its rank. Same semantics (and panic message),
/// but allocation-free so warm plan executions stay off the heap.
pub(crate) fn broadcast_shapes_array(
    a: &[usize],
    b: &[usize],
    out: &mut [usize; MAX_RANK],
) -> usize {
    let rank = a.len().max(b.len());
    assert!(rank <= MAX_RANK, "broadcast rank {rank} exceeds {MAX_RANK}");
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = match (da, db) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            _ => panic!("shapes {a:?} and {b:?} are not broadcast-compatible"),
        };
    }
    rank
}

/// Strides of `src` viewed as the broadcast shape `dst` — broadcast axes get
/// stride 0 so the same element is revisited. Stack-allocated so the hot
/// execution paths stay off the heap; `dst` axes beyond `MAX_RANK` are
/// rejected by the caller (via [`broadcast_shapes_array`]).
pub(crate) fn broadcast_strides_array(src: &[usize], dst: &[usize], out: &mut [usize; MAX_RANK]) {
    let mut src_strides = [1usize; MAX_RANK];
    for i in (0..src.len().saturating_sub(1)).rev() {
        src_strides[i] = src_strides[i + 1] * src[i + 1];
    }
    let pad = dst.len() - src.len();
    for i in 0..dst.len() {
        if i < pad {
            out[i] = 0;
        } else {
            let d = src[i - pad];
            out[i] = if d == 1 { 0 } else { src_strides[i - pad] };
        }
    }
}

/// Normalizes a possibly-negative axis (Python semantics) into `0..rank`.
///
/// # Panics
///
/// Panics when the axis is out of range for the rank.
pub fn normalize_axis(axis: isize, rank: usize) -> usize {
    let a = if axis < 0 { axis + rank as isize } else { axis };
    assert!((0..rank as isize).contains(&a), "axis {axis} out of range for rank {rank}");
    a as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::numel(&[]), 1);
    }

    #[test]
    fn numel_of_matrix() {
        assert_eq!(Shape::numel(&[3, 4]), 12);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(Shape::strides(&[5]), vec![1]);
        assert_eq!(Shape::strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn offset_matches_manual_math() {
        assert_eq!(Shape::offset(&[2, 3, 4], &[1, 2, 3]), 12 + 8 + 3);
    }

    #[test]
    fn broadcast_equal_shapes() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), vec![2, 3]);
    }

    #[test]
    fn broadcast_scalar_and_matrix() {
        assert_eq!(broadcast_shapes(&[], &[2, 3]), vec![2, 3]);
    }

    #[test]
    fn broadcast_row_and_column() {
        assert_eq!(broadcast_shapes(&[3, 1], &[1, 4]), vec![3, 4]);
    }

    #[test]
    fn broadcast_prepends_axes() {
        assert_eq!(broadcast_shapes(&[4], &[2, 3, 4]), vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn broadcast_incompatible_panics() {
        broadcast_shapes(&[2, 3], &[4, 3]);
    }

    #[test]
    fn broadcast_strides_zero_on_expanded_axes() {
        let mut out = [0usize; MAX_RANK];
        broadcast_strides_array(&[3, 1], &[3, 4], &mut out);
        assert_eq!(&out[..2], &[1, 0]);
        broadcast_strides_array(&[4], &[2, 3, 4], &mut out);
        assert_eq!(&out[..3], &[0, 0, 1]);
    }

    #[test]
    fn normalize_axis_handles_negative() {
        assert_eq!(normalize_axis(-1, 3), 2);
        assert_eq!(normalize_axis(0, 3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn normalize_axis_rejects_out_of_range() {
        normalize_axis(3, 3);
    }
}
