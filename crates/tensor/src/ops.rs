//! Elementwise arithmetic with NumPy-style broadcasting, plus the scalar
//! nonlinearities the models need (sigmoid, tanh, relu, exp, ln, …).

use crate::shape::{broadcast_shapes_array, broadcast_strides_array, MAX_RANK};
use crate::strided;
use crate::tensor::Tensor;
use std::ops::{Add, Div, Mul, Neg, Sub};

impl Tensor {
    /// Applies `f` pairwise over the broadcast of `self` and `other`.
    ///
    /// The fast path (identical shapes) is a straight zip; the general path
    /// coalesces the broadcast into contiguous runs (size-1 axes dropped,
    /// axes that stay contiguous for both inputs merged) and applies `f`
    /// run by run, so each element is still one `f(a, b)`.
    pub fn broadcast_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = Tensor::default();
        self.broadcast_with_into(other, f, &mut out);
        out
    }

    /// Broadcasting combine writing into `out` (buffers reused).
    /// [`Tensor::broadcast_with`] delegates here, so the allocating and the
    /// arena paths run the exact same loop and are bitwise identical.
    pub fn broadcast_with_into(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
        out: &mut Tensor,
    ) {
        if self.shape == other.shape {
            return self.zip_with_into(other, f, out);
        }
        // All index bookkeeping lives on the stack (rank is tiny) so warm
        // executions of a compiled plan stay allocation-free.
        let mut shape_buf = [0usize; MAX_RANK];
        let rank = broadcast_shapes_array(&self.shape, &other.shape, &mut shape_buf);
        let out_shape = &shape_buf[..rank];
        let mut sa = [0usize; MAX_RANK];
        let mut sb = [0usize; MAX_RANK];
        broadcast_strides_array(&self.shape, out_shape, &mut sa);
        broadcast_strides_array(&other.shape, out_shape, &mut sb);
        out.reset_for(out_shape);
        strided::zip_into(
            &self.data,
            &sa[..rank],
            &other.data,
            &sb[..rank],
            out_shape,
            f,
            &mut out.data,
        );
    }

    /// `self + other` with broadcasting.
    pub fn add_t(&self, other: &Tensor) -> Tensor {
        self.broadcast_with(other, |a, b| a + b)
    }

    /// `self + other` with broadcasting, into `out`.
    pub fn add_t_into(&self, other: &Tensor, out: &mut Tensor) {
        self.broadcast_with_into(other, |a, b| a + b, out)
    }

    /// `self - other` with broadcasting.
    pub fn sub_t(&self, other: &Tensor) -> Tensor {
        self.broadcast_with(other, |a, b| a - b)
    }

    /// `self - other` with broadcasting, into `out`.
    pub fn sub_t_into(&self, other: &Tensor, out: &mut Tensor) {
        self.broadcast_with_into(other, |a, b| a - b, out)
    }

    /// `self * other` (elementwise, ⊙ in the paper) with broadcasting.
    pub fn mul_t(&self, other: &Tensor) -> Tensor {
        self.broadcast_with(other, |a, b| a * b)
    }

    /// `self * other` with broadcasting, into `out`.
    pub fn mul_t_into(&self, other: &Tensor, out: &mut Tensor) {
        self.broadcast_with_into(other, |a, b| a * b, out)
    }

    /// `self / other` with broadcasting.
    pub fn div_t(&self, other: &Tensor) -> Tensor {
        self.broadcast_with(other, |a, b| a / b)
    }

    /// `self / other` with broadcasting, into `out`.
    pub fn div_t_into(&self, other: &Tensor, out: &mut Tensor) {
        self.broadcast_with_into(other, |a, b| a / b, out)
    }

    /// Adds `s` to every element, into `out`.
    pub fn add_scalar_into(&self, s: f32, out: &mut Tensor) {
        self.map_into(|v| v + s, out)
    }

    /// Multiplies every element by `s`.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Multiplies every element by `s`, into `out`.
    pub fn mul_scalar_into(&self, s: f32, out: &mut Tensor) {
        self.map_into(|v| v * s, out)
    }

    /// In-place `self += other` (identical shapes only; used for gradient
    /// accumulation where allocation must be avoided).
    pub fn add_assign_t(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign_t requires identical shapes: {:?} vs {:?}",
            self.shape, other.shape
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place fused `self += alpha * other` (identical shapes).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy requires identical shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    // ---------------------------------------------------------- nonlinearities

    /// Logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`, numerically stable for
    /// large |x|.
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid_scalar)
    }

    /// Sigmoid into `out` (same scalar kernel as [`Tensor::sigmoid`]).
    pub fn sigmoid_into(&self, out: &mut Tensor) {
        self.map_into(sigmoid_scalar, out)
    }

    /// Hyperbolic tangent into `out`.
    pub fn tanh_t_into(&self, out: &mut Tensor) {
        self.map_into(f32::tanh, out)
    }

    /// Rectified linear unit `max(x, 0)` into `out`.
    pub fn relu_into(&self, out: &mut Tensor) {
        self.map_into(|v| v.max(0.0), out)
    }

    /// Elementwise exponential into `out`.
    pub fn exp_t_into(&self, out: &mut Tensor) {
        self.map_into(f32::exp, out)
    }

    /// Elementwise natural log into `out`.
    pub fn ln_t_into(&self, out: &mut Tensor) {
        self.map_into(f32::ln, out)
    }

    /// Elementwise square root into `out`.
    pub fn sqrt_t_into(&self, out: &mut Tensor) {
        self.map_into(f32::sqrt, out)
    }

    /// Elementwise absolute value.
    pub fn abs_t(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Absolute value into `out`.
    pub fn abs_t_into(&self, out: &mut Tensor) {
        self.map_into(f32::abs, out)
    }

    /// Elementwise power with a constant exponent.
    pub fn powf_t(&self, e: f32) -> Tensor {
        self.map(|v| v.powf(e))
    }

    /// Elementwise maximum against a constant.
    pub fn clamp_min(&self, lo: f32) -> Tensor {
        self.map(|v| v.max(lo))
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }
}

/// Numerically-stable scalar sigmoid shared with the autodiff backward pass.
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $tmethod:ident) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.$tmethod(rhs)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.$tmethod(&Tensor::scalar(rhs))
            }
        }
    };
}

impl_binop!(Add, add, add_t);
impl_binop!(Sub, sub, sub_t);
impl_binop!(Mul, mul, mul_t);
impl_binop!(Div, div, div_t);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|v| -v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(a.add_t(&b).data(), &[11.0, 22.0]);
    }

    #[test]
    fn broadcast_row_to_matrix() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let r = m.add_t(&row);
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_to_matrix() {
        let m = Tensor::ones(&[2, 3]);
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let r = m.mul_t(&col);
        assert_eq!(r.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn broadcast_outer_product_shapes() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]);
        let b = Tensor::from_vec(vec![10.0, 100.0], &[1, 2]);
        let r = a.mul_t(&b);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), &[10.0, 100.0, 20.0, 200.0, 30.0, 300.0]);
    }

    #[test]
    fn scalar_broadcast_via_operator() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let r = &a * 3.0;
        assert_eq!(r.data(), &[3.0, 6.0]);
    }

    #[test]
    fn broadcast_3d_with_matrix() {
        // [2,2,2] + [2,2] broadcasts over the leading batch axis.
        let a = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 2, 2]);
        let b = Tensor::from_vec(vec![100.0, 200.0, 300.0, 400.0], &[2, 2]);
        let r = a.add_t(&b);
        assert_eq!(r.data(), &[100.0, 201.0, 302.0, 403.0, 104.0, 205.0, 306.0, 407.0]);
    }

    #[test]
    fn sigmoid_is_stable_and_correct() {
        let t = Tensor::from_vec(vec![0.0, 100.0, -100.0], &[3]);
        let s = t.sigmoid();
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
        assert!((s.data()[1] - 1.0).abs() < 1e-6);
        assert!(s.data()[2].abs() < 1e-6);
        assert!(!s.has_non_finite());
    }

    #[test]
    fn relu_zeroes_negatives() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let mut r = Tensor::default();
        t.relu_into(&mut r);
        assert_eq!(r.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Tensor::ones(&[2]);
        a.add_assign_t(&Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn axpy_fused_update() {
        let mut a = Tensor::ones(&[2]);
        a.axpy(0.5, &Tensor::from_vec(vec![2.0, 4.0], &[2]));
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn neg_operator() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        assert_eq!((-&a).data(), &[-1.0, 2.0]);
    }

    #[test]
    fn div_broadcast() {
        let a = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[2, 2]);
        let d = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        assert_eq!(a.div_t(&d).data(), &[1.0, 1.0, 3.0, 2.0]);
    }

    #[test]
    fn clamp_bounds() {
        let a = Tensor::from_vec(vec![-5.0, 0.5, 5.0], &[3]);
        assert_eq!(a.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
    }
}
