//! Micro-kernel dispatch: the register-tiled inner kernels of the blocked
//! GEMM engine, selected once per process by runtime CPU feature detection.
//!
//! The blocked engine in [`crate::matmul`] packs B (and, for outputs wider
//! than one tile, A) into panels and walks them with an `MR`×`NR` register
//! tile. This module owns that tile: a
//! portable scalar 4×8 kernel (the always-correct fallback, bit-identical
//! to the pre-SIMD engine), an AVX2+FMA 6×16 kernel on `x86_64`, and a
//! NEON 4×8 kernel on `aarch64`. [`selected_kernel`] picks one at first
//! use via `is_x86_feature_detected!` and caches the choice; setting the
//! `ENHANCENET_FORCE_SCALAR` environment variable (to anything but `0` or
//! the empty string) pins dispatch to the scalar kernel for
//! reproducibility and fallback testing.
//!
//! Kernels read A through a strided view ([`AView`]: element `(ii, kk)`
//! at `ptr[ii·rs + kk·cs]`) and B from a packed `nr`-column strip
//! (zero-padded to a full tile by the pack routine), and write an
//! `mr`×`nr` corner of the accumulated tile through a raw output pointer.
//! A packed `mr`-row A strip is just the view `rs = 1, cs = mr`; the
//! caller's unpacked row-major or transposed buffer is the view its
//! `MatRef` strides describe. The pointer interface — rather than
//! `&mut [f32]` — is what lets the engine fan row blocks *and* column
//! slabs of one output across rayon without ever materializing
//! overlapping mutable slices.
//!
//! Telemetry (recorded by the engine, not here):
//! `tensor.kernel.dispatch.{avx2,neon,scalar}` counts blocked dispatches
//! per kernel, `tensor.kernel.simd_available` counts blocked dispatches on
//! hosts whose CPU supports a vectorized kernel (whether or not one was
//! forced off), and `tensor.gemm.par_blocks` counts intra-GEMM parallel
//! fan-out ([`crate::matmul`]).

use std::sync::OnceLock;

/// A strided, read-only view of one A strip: row `ii`, depth `kk` lives at
/// `ptr.add(ii * rs + kk * cs)`. A packed strip is `rs = 1, cs = mr`; an
/// unpacked row-major block is `rs = row stride, cs = 1`; a transposed
/// view is `rs = 1, cs = storage row stride`.
#[derive(Clone, Copy, Debug)]
pub struct AView {
    /// Element `(0, 0)` of the strip.
    pub ptr: *const f32,
    /// Distance between consecutive rows, in floats.
    pub rs: usize,
    /// Distance between consecutive depth steps, in floats.
    pub cs: usize,
}

impl AView {
    /// Start of each of the `MR` tile rows: rows past the `mr` live ones
    /// repeat row `mr - 1`, so a ragged strip never reads past the last
    /// live row and needs no padding. Their products are discarded.
    ///
    /// # Safety
    ///
    /// `1 <= mr` and row `mr - 1` must lie inside the view's allocation.
    #[inline(always)]
    unsafe fn rows<const MR: usize>(self, mr: usize) -> [*const f32; MR] {
        let mut rows = [self.ptr; MR];
        for (ii, row) in rows.iter_mut().enumerate() {
            *row = self.ptr.add(ii.min(mr - 1) * self.rs);
        }
        rows
    }
}

/// One register-tiled inner kernel: the exchangeable heart of the blocked
/// GEMM engine.
///
/// Implementations are zero-sized and stateless; the engine holds one as a
/// `&'static dyn MicroKernel` chosen by [`selected_kernel`]. The virtual
/// call happens once per micro-tile (`mr × nr × kc` multiply-adds), so its
/// cost is noise.
pub trait MicroKernel: Sync {
    /// Tile height: packed A strips hold this many rows per `k` step.
    fn mr(&self) -> usize;
    /// Tile width: packed B strips hold this many columns per `k` step.
    fn nr(&self) -> usize;
    /// Short identity (`"scalar"`, `"avx2"`, `"neon"`) used in telemetry
    /// counter names and test labels.
    fn name(&self) -> &'static str;
    /// Full telemetry counter label for dispatches of this kernel.
    fn dispatch_counter(&self) -> &'static str;

    /// Computes `out[0..mr, 0..nr] += a · bstrip` over `kc` depth steps.
    ///
    /// `a` is a strided view of the strip's `mr` live rows (see [`AView`]);
    /// tile rows past `mr` re-read row `mr - 1` and their products are
    /// discarded. `bstrip` holds `kc * self.nr()` floats
    /// (`bstrip[kk*nr + jj]` = column `jj`, depth `kk`); columns past `nr`
    /// are zero padding and their products are discarded.
    ///
    /// Every output element gets the same operations in the same order
    /// whatever the view's strides: a zeroed accumulator, one
    /// multiply-add per `kk` in ascending order (fused on the FMA
    /// kernels), then one add into `out`.
    ///
    /// # Safety
    ///
    /// `1 <= mr <= self.mr()` and `nr <= self.nr()`. Every element
    /// `a.ptr.add(ii * a.rs + kk * a.cs)` for `ii < mr`, `kk < kc` must be
    /// in bounds of one live allocation and not written during the call
    /// (the kernel reads nothing else of A). `bstrip` must hold
    /// `kc * self.nr()` floats. `out` must point at the tile's top-left
    /// element of a row-major matrix with row stride `row_stride`; the `mr`
    /// rows × `nr` columns reachable from it must be in bounds and
    /// writable, and no other thread may access them for the duration of
    /// the call.
    #[allow(clippy::too_many_arguments)]
    unsafe fn run(
        &self,
        kc: usize,
        a: AView,
        bstrip: &[f32],
        out: *mut f32,
        row_stride: usize,
        mr: usize,
        nr: usize,
    );
}

/// Portable scalar 4×8 kernel: 32 accumulators the compiler keeps in
/// registers on any baseline. Bit-identical to the pre-dispatch engine —
/// same tile shape, same accumulation order — so forcing it reproduces
/// historical results exactly.
pub struct ScalarKernel;

/// The scalar tile shape (rows).
pub const SCALAR_MR: usize = 4;
/// The scalar tile shape (columns).
pub const SCALAR_NR: usize = 8;

impl MicroKernel for ScalarKernel {
    fn mr(&self) -> usize {
        SCALAR_MR
    }

    fn nr(&self) -> usize {
        SCALAR_NR
    }

    fn name(&self) -> &'static str {
        "scalar"
    }

    fn dispatch_counter(&self) -> &'static str {
        "tensor.kernel.dispatch.scalar"
    }

    unsafe fn run(
        &self,
        kc: usize,
        a: AView,
        bstrip: &[f32],
        out: *mut f32,
        row_stride: usize,
        mr: usize,
        nr: usize,
    ) {
        debug_assert!(bstrip.len() >= kc * SCALAR_NR);
        debug_assert!((1..=SCALAR_MR).contains(&mr) && nr <= SCALAR_NR);
        let rows = a.rows::<SCALAR_MR>(mr);
        let mut acc = [[0.0f32; SCALAR_NR]; SCALAR_MR];
        for kk in 0..kc {
            let koff = kk * a.cs;
            let brow = &bstrip[kk * SCALAR_NR..kk * SCALAR_NR + SCALAR_NR];
            for (accrow, row) in acc.iter_mut().zip(rows) {
                let av = *row.add(koff);
                for (c, &bv) in accrow.iter_mut().zip(brow) {
                    *c += av * bv;
                }
            }
        }
        for (ii, accrow) in acc.iter().enumerate().take(mr) {
            let row = out.add(ii * row_stride);
            for (jj, &c) in accrow.iter().enumerate().take(nr) {
                *row.add(jj) += c;
            }
        }
    }
}

/// AVX2+FMA 6×16 kernel: 12 `__m256` accumulators (6 rows × two 8-lane
/// vectors) plus two B vectors and one broadcast fit x86-64's 16 vector
/// registers without spills. Only constructed when `is_x86_feature_detected!`
/// confirms both `avx2` and `fma` at runtime.
#[cfg(target_arch = "x86_64")]
pub struct Avx2Kernel;

#[cfg(target_arch = "x86_64")]
impl MicroKernel for Avx2Kernel {
    fn mr(&self) -> usize {
        6
    }

    fn nr(&self) -> usize {
        16
    }

    fn name(&self) -> &'static str {
        "avx2"
    }

    fn dispatch_counter(&self) -> &'static str {
        "tensor.kernel.dispatch.avx2"
    }

    unsafe fn run(
        &self,
        kc: usize,
        a: AView,
        bstrip: &[f32],
        out: *mut f32,
        row_stride: usize,
        mr: usize,
        nr: usize,
    ) {
        avx2_tile_6x16(kc, a, bstrip, out, row_stride, mr, nr);
    }
}

/// The AVX2 tile body. `#[target_feature]` keeps the vector code out of
/// the portable build paths; the caller guarantees the features exist
/// (the kernel is only ever selected behind `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_tile_6x16(
    kc: usize,
    a: AView,
    bstrip: &[f32],
    out: *mut f32,
    row_stride: usize,
    mr: usize,
    nr: usize,
) {
    use core::arch::x86_64::*;
    const MR: usize = 6;
    const NR: usize = 16;
    debug_assert!(bstrip.len() >= kc * NR);
    debug_assert!((1..=MR).contains(&mr) && nr <= NR);
    let rows = a.rows::<MR>(mr);
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    let mut koff = 0;
    let mut bp = bstrip.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for (accrow, row) in acc.iter_mut().zip(rows) {
            let av = _mm256_broadcast_ss(&*row.add(koff));
            accrow[0] = _mm256_fmadd_ps(av, b0, accrow[0]);
            accrow[1] = _mm256_fmadd_ps(av, b1, accrow[1]);
        }
        koff += a.cs;
        bp = bp.add(NR);
    }
    if mr == MR && nr == NR {
        // Full tile: read-modify-write the output rows directly.
        for (ii, accrow) in acc.iter().enumerate() {
            let row = out.add(ii * row_stride);
            _mm256_storeu_ps(row, _mm256_add_ps(_mm256_loadu_ps(row), accrow[0]));
            let hi = row.add(8);
            _mm256_storeu_ps(hi, _mm256_add_ps(_mm256_loadu_ps(hi), accrow[1]));
        }
    } else {
        // Ragged edge: land the accumulators in a stack tile, then add
        // back only the live `mr`×`nr` corner.
        let mut tile = [0.0f32; MR * NR];
        for (ii, accrow) in acc.iter().enumerate() {
            _mm256_storeu_ps(tile.as_mut_ptr().add(ii * NR), accrow[0]);
            _mm256_storeu_ps(tile.as_mut_ptr().add(ii * NR + 8), accrow[1]);
        }
        for ii in 0..mr {
            let row = out.add(ii * row_stride);
            for jj in 0..nr {
                *row.add(jj) += tile[ii * NR + jj];
            }
        }
    }
}

/// NEON 4×8 kernel: 8 `float32x4_t` accumulators (4 rows × two 4-lane
/// vectors). NEON is baseline on `aarch64`, so no runtime detection is
/// needed — the kernel is always available there.
#[cfg(target_arch = "aarch64")]
pub struct NeonKernel;

#[cfg(target_arch = "aarch64")]
impl MicroKernel for NeonKernel {
    fn mr(&self) -> usize {
        4
    }

    fn nr(&self) -> usize {
        8
    }

    fn name(&self) -> &'static str {
        "neon"
    }

    fn dispatch_counter(&self) -> &'static str {
        "tensor.kernel.dispatch.neon"
    }

    unsafe fn run(
        &self,
        kc: usize,
        a: AView,
        bstrip: &[f32],
        out: *mut f32,
        row_stride: usize,
        mr: usize,
        nr: usize,
    ) {
        use core::arch::aarch64::*;
        const MR: usize = 4;
        const NR: usize = 8;
        debug_assert!(bstrip.len() >= kc * NR);
        debug_assert!((1..=MR).contains(&mr) && nr <= NR);
        let rows = a.rows::<MR>(mr);
        let mut acc = [[vdupq_n_f32(0.0); 2]; MR];
        let mut koff = 0;
        let mut bp = bstrip.as_ptr();
        for _ in 0..kc {
            let b0 = vld1q_f32(bp);
            let b1 = vld1q_f32(bp.add(4));
            for (accrow, row) in acc.iter_mut().zip(rows) {
                let av = vdupq_n_f32(*row.add(koff));
                accrow[0] = vfmaq_f32(accrow[0], av, b0);
                accrow[1] = vfmaq_f32(accrow[1], av, b1);
            }
            koff += a.cs;
            bp = bp.add(NR);
        }
        if mr == MR && nr == NR {
            for (ii, accrow) in acc.iter().enumerate() {
                let row = out.add(ii * row_stride);
                vst1q_f32(row, vaddq_f32(vld1q_f32(row), accrow[0]));
                let hi = row.add(4);
                vst1q_f32(hi, vaddq_f32(vld1q_f32(hi), accrow[1]));
            }
        } else {
            let mut tile = [0.0f32; MR * NR];
            for (ii, accrow) in acc.iter().enumerate() {
                vst1q_f32(tile.as_mut_ptr().add(ii * NR), accrow[0]);
                vst1q_f32(tile.as_mut_ptr().add(ii * NR + 4), accrow[1]);
            }
            for ii in 0..mr {
                let row = out.add(ii * row_stride);
                for jj in 0..nr {
                    *row.add(jj) += tile[ii * NR + jj];
                }
            }
        }
    }
}

/// True when `ENHANCENET_FORCE_SCALAR` is set to anything but `0` or the
/// empty string. Read per call so tests can assert on it; the *selection*
/// result is still cached by [`selected_kernel`].
pub fn force_scalar_requested() -> bool {
    match std::env::var("ENHANCENET_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// True when the host CPU offers a vectorized kernel, regardless of
/// whether dispatch was forced to scalar. Drives the
/// `tensor.kernel.simd_available` counter, which lets
/// `bench_summary --require-simd` distinguish "ran scalar because the
/// host has no SIMD" (fine) from "ran scalar on SIMD hardware" (a
/// dispatch regression).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        return std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
    }
    #[cfg(target_arch = "aarch64")]
    {
        return true;
    }
    #[allow(unreachable_code)]
    false
}

/// The micro-kernel every blocked GEMM in this process uses, chosen once:
/// `ENHANCENET_FORCE_SCALAR` wins, then AVX2+FMA where detected, then NEON
/// on `aarch64`, then the scalar fallback.
pub fn selected_kernel() -> &'static dyn MicroKernel {
    static SELECTED: OnceLock<&'static dyn MicroKernel> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        if force_scalar_requested() {
            return &ScalarKernel;
        }
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            return &Avx2Kernel;
        }
        #[cfg(target_arch = "aarch64")]
        return &NeonKernel;
        #[allow(unreachable_code)]
        &ScalarKernel
    })
}

/// Every kernel the host can execute — the scalar fallback plus whichever
/// vectorized kernels runtime detection admits. Tests iterate this to pin
/// each dispatch variant against the reference in-process, without
/// spawning one subprocess per `ENHANCENET_FORCE_SCALAR` state.
pub fn available_kernels() -> Vec<&'static dyn MicroKernel> {
    let mut kernels: Vec<&'static dyn MicroKernel> = vec![&ScalarKernel];
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        kernels.push(&Avx2Kernel);
    }
    #[cfg(target_arch = "aarch64")]
    kernels.push(&NeonKernel);
    kernels
}

/// Test helpers shared by the kernel and engine tests: float payloads and
/// the per-element arithmetic each kernel performs.
#[cfg(test)]
pub(crate) mod testing {
    use super::MicroKernel;

    /// Deterministic floats in `[-1, 1)` with full mantissas, so products
    /// round and a reordered or re-fused sum changes the bits.
    pub(crate) fn float_payload(len: usize, seed: usize) -> Vec<f32> {
        let mut state = (seed as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
            })
            .collect()
    }

    /// One depth slice of one output element as `kernel` computes it: a
    /// zeroed accumulator, then one multiply-add per `kk` in order — fused
    /// on the SIMD kernels, multiply then add on the scalar one.
    pub(crate) fn tile_dot(
        kernel: &dyn MicroKernel,
        kc: usize,
        a: impl Fn(usize) -> f32,
        b: impl Fn(usize) -> f32,
    ) -> f32 {
        let fused = kernel.name() != "scalar";
        (0..kc).fold(
            0.0f32,
            |acc, kk| if fused { a(kk).mul_add(b(kk), acc) } else { acc + a(kk) * b(kk) },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{float_payload, tile_dot};
    use super::*;

    /// Reference for one packed micro-tile: the triple loop over strips.
    fn reference_tile(kc: usize, astrip: &[f32], bstrip: &[f32], mr: usize, nr: usize) -> Vec<f32> {
        let (kmr, knr) = (astrip.len() / kc, bstrip.len() / kc);
        let mut out = vec![0.0f32; mr * nr];
        for kk in 0..kc {
            for ii in 0..mr {
                for jj in 0..nr {
                    out[ii * nr + jj] += astrip[kk * kmr + ii] * bstrip[kk * knr + jj];
                }
            }
        }
        out
    }

    /// A packed `mr`-row strip as the kernel reads it.
    fn packed(kernel: &dyn MicroKernel, astrip: &[f32]) -> AView {
        AView { ptr: astrip.as_ptr(), rs: 1, cs: kernel.mr() }
    }

    /// Deterministic small-integer strips: products stay exactly
    /// representable, so scalar and FMA kernels must agree bitwise.
    fn int_strip(len: usize, seed: usize) -> Vec<f32> {
        (0..len).map(|v| ((v * 13 + seed * 7) % 7) as f32 - 3.0).collect()
    }

    /// Runs `kernel` on an `mr`×`nr` corner embedded in a wider output
    /// matrix and returns that corner.
    fn run_kernel_tile(
        kernel: &dyn MicroKernel,
        kc: usize,
        astrip: &[f32],
        bstrip: &[f32],
        mr: usize,
        nr: usize,
    ) -> Vec<f32> {
        // Give the tile a wider row stride than nr so stride handling and
        // out-of-tile preservation are both exercised.
        let stride = kernel.nr() + 3;
        let mut out = vec![0.0f32; (kernel.mr() + 1) * stride];
        unsafe {
            kernel.run(kc, packed(kernel, astrip), bstrip, out.as_mut_ptr(), stride, mr, nr);
        }
        let mut corner = Vec::with_capacity(mr * nr);
        for ii in 0..mr {
            corner.extend_from_slice(&out[ii * stride..ii * stride + nr]);
        }
        // Everything outside the corner must be untouched.
        for (idx, &v) in out.iter().enumerate() {
            let (r, c) = (idx / stride, idx % stride);
            if r >= mr || c >= nr {
                assert_eq!(v, 0.0, "kernel {} wrote outside its {mr}x{nr} tile", kernel.name());
            }
        }
        corner
    }

    #[test]
    fn every_kernel_matches_reference_on_full_and_ragged_tiles() {
        for kernel in available_kernels() {
            let (kmr, knr) = (kernel.mr(), kernel.nr());
            for &kc in &[1usize, 2, 7, 33] {
                let astrip = int_strip(kc * kmr, 1);
                let bstrip = int_strip(kc * knr, 2);
                // Every ragged corner, including the full tile.
                for mr in 1..=kmr {
                    for nr in 1..=knr {
                        let got = run_kernel_tile(kernel, kc, &astrip, &bstrip, mr, nr);
                        let want = reference_tile(kc, &astrip, &bstrip, mr, nr);
                        assert_eq!(
                            got,
                            want,
                            "kernel {} mismatch at kc={kc} mr={mr} nr={nr}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_accumulates_into_existing_output() {
        for kernel in available_kernels() {
            let (kmr, knr) = (kernel.mr(), kernel.nr());
            let kc = 3;
            let astrip = int_strip(kc * kmr, 3);
            let bstrip = int_strip(kc * knr, 4);
            let stride = knr;
            let mut out = vec![1.0f32; kmr * stride];
            unsafe {
                kernel.run(
                    kc,
                    packed(kernel, &astrip),
                    &bstrip,
                    out.as_mut_ptr(),
                    stride,
                    kmr,
                    knr,
                );
            }
            let want = reference_tile(kc, &astrip, &bstrip, kmr, knr);
            for (o, w) in out.iter().zip(&want) {
                assert_eq!(*o, w + 1.0, "kernel {} must += into out", kernel.name());
            }
        }
    }

    /// Runs `kernel` on an `mr`×`nr` tile whose A rows are read from
    /// `a` through `(rs, cs)`, into an output pre-filled with `init`.
    /// Returns the whole output buffer (row stride `nr + 1`).
    #[allow(clippy::too_many_arguments)]
    fn run_view_tile(
        kernel: &dyn MicroKernel,
        kc: usize,
        a: &[f32],
        rs: usize,
        cs: usize,
        bstrip: &[f32],
        mr: usize,
        nr: usize,
        init: f32,
    ) -> Vec<f32> {
        let stride = nr + 1;
        let mut out = vec![init; mr * stride];
        unsafe {
            let view = AView { ptr: a.as_ptr(), rs, cs };
            kernel.run(kc, view, bstrip, out.as_mut_ptr(), stride, mr, nr);
        }
        out
    }

    #[test]
    fn every_kernel_reads_strided_a_views_bitwise() {
        // Float payloads (inexact products), A given unpacked — row-major
        // (`cs = 1`) and transposed (`rs = 1`) — in a buffer that ends at
        // the last live row, so a read past row `mr - 1` would leave the
        // allocation (miri flags it). Each output element must match the
        // kernel's own per-element arithmetic bit for bit.
        for kernel in available_kernels() {
            let (kmr, knr) = (kernel.mr(), kernel.nr());
            for &kc in &[1usize, 5, 33] {
                let bstrip = float_payload(kc * knr, 7);
                for mr in 1..=kmr {
                    for nr in [1, knr - 1, knr] {
                        for transposed in [false, true] {
                            // Row-major: rows `kc + 2` apart; transposed:
                            // depths `mr + 3` apart.
                            let (rs, cs) = if transposed { (1, mr + 3) } else { (kc + 2, 1) };
                            let len = (mr - 1) * rs + (kc - 1) * cs + 1;
                            let a = float_payload(len, mr + kc);
                            let got = run_view_tile(kernel, kc, &a, rs, cs, &bstrip, mr, nr, 0.5);
                            for ii in 0..mr {
                                for jj in 0..=nr {
                                    let want = if jj == nr {
                                        0.5
                                    } else {
                                        0.5 + tile_dot(
                                            kernel,
                                            kc,
                                            |kk| a[ii * rs + kk * cs],
                                            |kk| bstrip[kk * knr + jj],
                                        )
                                    };
                                    assert_eq!(
                                        got[ii * (nr + 1) + jj].to_bits(),
                                        want.to_bits(),
                                        "kernel {} kc={kc} mr={mr} nr={nr} transposed={transposed} \
                                         at ({ii},{jj})",
                                        kernel.name()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_clamped_rows_keep_non_finite_values_out_of_live_rows() {
        // The last live row carries NaN, ±inf and -0.0; the tile rows past
        // `mr` re-read it. Their products are discarded, so every other
        // row stays finite and the last row is exactly its own arithmetic.
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for kernel in available_kernels() {
            let (kmr, knr) = (kernel.mr(), kernel.nr());
            let kc = 4;
            let bstrip = float_payload(kc * knr, 3);
            for mr in 1..kmr {
                let mut a = float_payload(mr * kc, 11);
                a[(mr - 1) * kc..].copy_from_slice(&special);
                let got = run_view_tile(kernel, kc, &a, kc, 1, &bstrip, mr, knr, 0.0);
                for ii in 0..mr {
                    for jj in 0..knr {
                        let g = got[ii * (knr + 1) + jj];
                        let want =
                            tile_dot(kernel, kc, |kk| a[ii * kc + kk], |kk| bstrip[kk * knr + jj]);
                        if want.is_nan() {
                            assert!(g.is_nan(), "kernel {} mr={mr} ({ii},{jj})", kernel.name());
                        } else {
                            assert_eq!(
                                g.to_bits(),
                                want.to_bits(),
                                "kernel {} mr={mr}",
                                kernel.name()
                            );
                        }
                        if ii + 1 < mr {
                            assert!(g.is_finite(), "kernel {} leaked into row {ii}", kernel.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_selection_is_consistent_and_named() {
        let selected = selected_kernel();
        let names: Vec<&str> = available_kernels().iter().map(|k| k.name()).collect();
        assert!(names.contains(&selected.name()), "selected {:?} not available", selected.name());
        assert!(names.contains(&"scalar"), "scalar fallback must always be available");
        for kernel in available_kernels() {
            assert!(["scalar", "avx2", "neon"].contains(&kernel.name()));
            assert!(kernel.dispatch_counter().starts_with("tensor.kernel.dispatch."));
            assert!(kernel.dispatch_counter().ends_with(kernel.name()));
            assert!(kernel.mr() >= 1 && kernel.nr() >= 1);
        }
        // Selection is cached: repeated calls return the same kernel.
        assert_eq!(selected.name(), selected_kernel().name());
    }

    #[test]
    fn scalar_kernel_shape_matches_pre_dispatch_engine() {
        // The historical engine used a 4x8 tile; the scalar fallback must
        // keep it so forced-scalar runs reproduce old results bit-for-bit.
        assert_eq!(ScalarKernel.mr(), 4);
        assert_eq!(ScalarKernel.nr(), 8);
    }
}
