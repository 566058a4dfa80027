//! Matrix products: a blocked, packed GEMM engine serving 2-D `matmul`,
//! batched `bmm`, the broadcast variants the graph convolution and shared
//! filters use, and transpose-fused `_tn`/`_nt` forms for the backward pass.
//!
//! # Engine layout
//!
//! One engine computes `C += A·B` for any combination of normal/transposed
//! operands: `MatRef` reads either layout through row/column strides, so a
//! transposed operand is never materialized. Dispatch is by arithmetic work
//! (`m·n·k` multiply-adds):
//!
//! * below `PACK_MIN_WORK` — direct strided loops (`gemm_direct`); the
//!   pack cost would exceed the whole product,
//! * otherwise — BLIS-style blocking (`gemm_blocked`): the `n` dimension in
//!   `NC` slabs, the `k` dimension in `KC` slices, the `m` dimension in
//!   `MC` row blocks. B slabs pack into `nr`-column strips; the
//!   register-tiled micro-kernel chosen by
//!   [`crate::kernel::selected_kernel`] (AVX2+FMA 6×16, NEON 4×8, or the
//!   scalar 4×8 fallback — `ENHANCENET_FORCE_SCALAR=1` pins the latter) does
//!   the arithmetic, so panel shapes follow the selected kernel's `mr`/`nr`.
//!   The kernel reads A through a strided [`AView`]. When the output spans
//!   more than one `nr`-column strip, A blocks pack per-thread into `mr`-row
//!   strips (the view `rs = 1, cs = mr`) that every column strip then
//!   reuses; when `n ≤ nr`, each A element would feed a single micro-tile,
//!   so the kernel reads the caller's buffer in place through the
//!   `MatRef`'s own strides instead. Either way each output element gets
//!   the same operations in the same order — per `KC` slice a zeroed
//!   accumulator, one multiply-add per depth step, one add into `C` — so
//!   the choice never changes a bit.
//!   When total work reaches `PAR_MIN_WORK` one GEMM fans out internally:
//!   across `MC` row blocks for tall outputs, across `NC` column slabs
//!   for wide ones (each slab task packing its own panels from its worker
//!   thread's scratch pool),
//! * batched entry points additionally parallelize across the batch when the
//!   summed work clears the same threshold.
//!
//! Pack buffers come from the thread-local [`crate::scratch`] pool, so
//! steady-state training steps re-run the engine without allocating
//! temporaries. Counters: `tensor.pack.bytes` (bytes packed),
//! `tensor.scratch.hit`/`.miss` (pool behavior), the per-entry-point
//! `tensor.<kernel>.{calls,elements,par,serial}` dispatch counters, plus —
//! per blocked dispatch — `tensor.kernel.dispatch.{avx2,neon,scalar}`,
//! `tensor.kernel.simd_available` (host capability, regardless of forcing),
//! and `tensor.gemm.par_blocks` (intra-GEMM fan-out width).

use crate::kernel::{self, AView, MicroKernel};
use crate::scratch::with_scratch;
use crate::shape::MAX_RANK;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Row-block height: the A panel (`MC`×`KC` floats ≈ 64 KiB) stays L2-hot.
/// Not required to divide any kernel's `mr`; packing pads the last strip.
const MC: usize = 64;
/// Depth of one packed slice along the shared `k` dimension.
const KC: usize = 256;
/// Width of one packed B slab (`KC`×`NC` floats = 512 KiB, streamed by
/// strip). A multiple of every kernel's `nr`, so slabs tile evenly.
const NC: usize = 512;

/// Below this many multiply-adds the packed path costs more than it saves.
const PACK_MIN_WORK: usize = 8 * 1024;
/// At or above this many multiply-adds a dispatch forks to rayon.
const PAR_MIN_WORK: usize = 1 << 20;

/// Telemetry for one kernel dispatch: calls, output elements produced, and
/// which path (rayon vs. serial) the size heuristic picked. Recorded once
/// per public entry point, outside the parallel region, so the hot loops
/// stay untouched; a single atomic load when telemetry is disabled.
#[inline]
fn record_dispatch(calls: &'static str, elems: &'static str, path: &'static str, n: usize) {
    if enhancenet_telemetry::enabled() {
        enhancenet_telemetry::count(calls, 1);
        enhancenet_telemetry::count(elems, n as u64);
        enhancenet_telemetry::count(path, 1);
    }
}

/// Bytes written into pack buffers, recorded outside the hot loops.
#[inline]
fn record_pack_bytes(elems: usize) {
    if enhancenet_telemetry::enabled() {
        enhancenet_telemetry::count("tensor.pack.bytes", (elems * size_of::<f32>()) as u64);
    }
}

/// Telemetry for one blocked dispatch: which micro-kernel ran, whether the
/// host CPU *could* have run a vectorized one (so `bench_summary
/// --require-simd` can tell "no SIMD hardware" apart from "SIMD silently
/// disabled"), and the intra-GEMM parallel fan-out width (0 = serial).
#[inline]
fn record_blocked_dispatch(kern: &dyn MicroKernel, par_fanout: usize) {
    if !enhancenet_telemetry::enabled() {
        return;
    }
    enhancenet_telemetry::count(kern.dispatch_counter(), 1);
    if kernel::simd_available() {
        enhancenet_telemetry::count("tensor.kernel.simd_available", 1);
    }
    if par_fanout > 0 {
        enhancenet_telemetry::count("tensor.gemm.par_blocks", par_fanout as u64);
    }
}

/// A read-only matrix view over a contiguous buffer: element `(r, c)` lives
/// at `data[r·rs + c·cs]`. `rs = cols, cs = 1` reads row-major storage as-is;
/// `rs = 1, cs = rows` reads it as its own transpose — that one constructor
/// is the whole transpose-fusion contract.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// Views `data` as a row-major `[rows, cols]` matrix.
    fn normal(data: &'a [f32], cols: usize) -> Self {
        Self { data, rs: cols, cs: 1 }
    }

    /// Views a row-major `[cols, rows]` buffer as the logical `[rows, cols]`
    /// transpose, without moving any data.
    fn transposed(data: &'a [f32], rows: usize) -> Self {
        Self { data, rs: 1, cs: rows }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// `out[m,n] += a[m,k] · b[k,n]` with automatic path selection. `out` must
/// arrive zeroed (the public entry points allocate it that way).
#[inline]
fn gemm(out: &mut [f32], a: MatRef, b: MatRef, m: usize, k: usize, n: usize, allow_par: bool) {
    debug_assert_eq!(out.len(), m * n);
    let work = m * n * k;
    if work < PACK_MIN_WORK {
        gemm_direct(out, a, b, m, k, n);
    } else {
        gemm_blocked(out, a, b, m, k, n, allow_par && work >= PAR_MIN_WORK);
    }
}

/// Small-product path: plain strided loops, no packing. Keeps the zero-skip
/// from the seed kernel — sparse adjacency rows cost nothing. Inlined so
/// batch loops specialize it for their (compile-time-known) stride patterns.
#[inline]
fn gemm_direct(out: &mut [f32], a: MatRef, b: MatRef, m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    if b.cs == 1 && a.cs == 1 {
        // Both operands row-major: the seed's ikj loop over contiguous row
        // slices — no strided index arithmetic in the inner loops. This is
        // the hot path for small batched products (per-entity filters).
        for (i, orow) in out.chunks_mut(n).enumerate() {
            let arow = &a.data[i * a.rs..i * a.rs + k];
            for (kk, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[kk * b.rs..kk * b.rs + n];
                for (o, bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    } else if b.cs == 1 {
        // B rows are contiguous: stream them into the output row (ikj).
        for (i, orow) in out.chunks_mut(n).enumerate() {
            for kk in 0..k {
                let av = a.at(i, kk);
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[kk * b.rs..kk * b.rs + n];
                for (o, bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    } else {
        // B columns are contiguous (transposed view): dot products (ijk).
        for (i, orow) in out.chunks_mut(n).enumerate() {
            for (j, o) in orow.iter_mut().enumerate() {
                let bcol = &b.data[j * b.cs..j * b.cs + k];
                let mut acc = 0.0f32;
                for (kk, bv) in bcol.iter().enumerate() {
                    acc += a.at(i, kk) * bv;
                }
                *o += acc;
            }
        }
    }
}

/// Blocked path with the process-selected micro-kernel.
fn gemm_blocked(
    out: &mut [f32],
    a: MatRef,
    b: MatRef,
    m: usize,
    k: usize,
    n: usize,
    parallel: bool,
) {
    gemm_blocked_with(kernel::selected_kernel(), out, a, b, m, k, n, parallel);
}

/// Shares one output buffer across slab tasks that write provably disjoint
/// column ranges. Only ever dereferenced through [`MicroKernel::run`],
/// whose safety contract restates the disjointness requirement.
struct OutPtr(*mut f32);
unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

/// Blocked path: pack B once per `(jc, pc)` slab, pack A per row block, run
/// the register-tiled micro-kernel over the packed strips.
///
/// Intra-GEMM parallelism picks the wider fan-out: tall outputs split into
/// `MC`-row blocks (contiguous `MC·n` chunks of `out`, no overlap); wide
/// outputs split into `NC`-column slabs, each task owning columns
/// `[jc, jc+nc)` of every row and packing its own B panel. Serial calls
/// keep the row-block structure so a B panel packs once per `(jc, pc)`.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_with(
    kern: &dyn MicroKernel,
    out: &mut [f32],
    a: MatRef,
    b: MatRef,
    m: usize,
    k: usize,
    n: usize,
    parallel: bool,
) {
    debug_assert_eq!(out.len(), m * n);
    let row_blocks = m.div_ceil(MC);
    let col_slabs = n.div_ceil(NC);
    let slab_parallel = parallel && col_slabs > 1 && col_slabs >= row_blocks;
    let row_parallel = parallel && !slab_parallel && row_blocks > 1;
    record_blocked_dispatch(
        kern,
        if slab_parallel {
            col_slabs
        } else if row_parallel {
            row_blocks
        } else {
            0
        },
    );
    if slab_parallel {
        let base = OutPtr(out.as_mut_ptr());
        let base = &base;
        (0..col_slabs).into_par_iter().for_each(|slab| {
            let jc = slab * NC;
            gemm_slab(kern, base.0, a, b, m, k, n, jc, NC.min(n - jc));
        });
        return;
    }
    let knr = kern.nr();
    // One column strip: each A element feeds exactly one micro-tile, so
    // packing A would copy it once to read it once.
    let pack = n > knr;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_pad = nc.next_multiple_of(knr);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            with_scratch(kc * nc_pad, |bpack| {
                pack_b(bpack, b, pc, jc, kc, nc, knr);
                record_pack_bytes(kc * nc_pad);
                let bpack = &*bpack;
                let row_block = |(blk, orows): (usize, &mut [f32])| {
                    let ic = blk * MC;
                    let mc = MC.min(m - ic);
                    with_a_block(kern, a, ic, pc, mc, kc, pack, |ablock, strip_step| {
                        let out = orows.as_mut_ptr();
                        micro_loop(kern, kc, ablock, strip_step, bpack, out, n, jc, mc, nc);
                    });
                };
                if row_parallel {
                    out.par_chunks_mut(MC * n).enumerate().for_each(row_block);
                } else {
                    out.chunks_mut(MC * n).enumerate().for_each(row_block);
                }
            });
        }
    }
}

/// One `NC`-column slab of the output, all rows, all `k` slices — the unit
/// of work of the wide-output parallel path. `base` points at element
/// `(0, 0)` of the full `m`×`n` output; this task only writes columns
/// `[jc, jc+nc)`, which no other slab touches.
#[allow(clippy::too_many_arguments)]
fn gemm_slab(
    kern: &dyn MicroKernel,
    base: *mut f32,
    a: MatRef,
    b: MatRef,
    m: usize,
    k: usize,
    n: usize,
    jc: usize,
    nc: usize,
) {
    let knr = kern.nr();
    let nc_pad = nc.next_multiple_of(knr);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        with_scratch(kc * nc_pad, |bpack| {
            pack_b(bpack, b, pc, jc, kc, nc, knr);
            record_pack_bytes(kc * nc_pad);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                // A slab is at least two column strips wide: pack A.
                with_a_block(kern, a, ic, pc, mc, kc, true, |ablock, strip_step| {
                    // In bounds: rows ic..ic+mc and columns jc..jc+nc of
                    // the m×n output this slab exclusively owns.
                    let block = unsafe { base.add(ic * n) };
                    micro_loop(kern, kc, ablock, strip_step, bpack, block, n, jc, mc, nc);
                });
            }
        });
    }
}

/// Hands `f` the block `a[ic..ic+mc, pc..pc+kc]` as the micro-kernel reads
/// it: a view of the block's first strip plus the pointer step from one
/// `mr`-row strip to the next, per row. With `pack`, the block is copied
/// into `mr`-row strips from the scratch pool (view `rs = 1, cs = mr`,
/// step `kc`); without, the view is the caller's buffer through `a`'s own
/// strides (step `a.rs`). The kernel's arithmetic is the same either way.
#[allow(clippy::too_many_arguments)]
fn with_a_block(
    kern: &dyn MicroKernel,
    a: MatRef,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    pack: bool,
    f: impl FnOnce(AView, usize),
) {
    if !pack {
        // Every element (ic+i, pc+kk) of the block sits at or after
        // (ic, pc) in `a.data`, so the tail slice covers all kernel reads.
        let ptr = a.data[ic * a.rs + pc * a.cs..].as_ptr();
        f(AView { ptr, rs: a.rs, cs: a.cs }, a.rs);
        return;
    }
    let kmr = kern.mr();
    let mc_pad = mc.next_multiple_of(kmr);
    with_scratch(kc * mc_pad, |apack| {
        pack_a(apack, a, ic, pc, mc, kc, kmr);
        record_pack_bytes(kc * mc_pad);
        f(AView { ptr: apack.as_ptr(), rs: 1, cs: kmr }, kc);
    });
}

/// Walks one A block against one packed B slab, dispatching the
/// micro-kernel per register tile. `ablock` views the block's first strip
/// and strip `i0` starts `i0 · strip_step` floats later (see
/// [`with_a_block`]). `out` points at row 0 of the block (column 0 of the
/// full matrix, row stride `row_stride`); `col0` is the slab's first
/// absolute column.
#[allow(clippy::too_many_arguments)]
fn micro_loop(
    kern: &dyn MicroKernel,
    kc: usize,
    ablock: AView,
    strip_step: usize,
    bpack: &[f32],
    out: *mut f32,
    row_stride: usize,
    col0: usize,
    mc: usize,
    nc: usize,
) {
    let (kmr, knr) = (kern.mr(), kern.nr());
    for j0 in (0..nc).step_by(knr) {
        let nr = knr.min(nc - j0);
        let bstrip = &bpack[j0 * kc..j0 * kc + kc * knr];
        for i0 in (0..mc).step_by(kmr) {
            let mr = kmr.min(mc - i0);
            // Safety: the strip's rows [i0, i0+mr) × depths [0, kc) are
            // block elements (see `with_a_block`); the tile at rows
            // [i0, i0+mr) × columns [col0+j0, col0+j0+nr) lies inside the
            // caller's exclusive region; the B strip carries kc·nr floats.
            unsafe {
                let astrip = AView { ptr: ablock.ptr.add(i0 * strip_step), ..ablock };
                let tile = out.add(i0 * row_stride + col0 + j0);
                kern.run(kc, astrip, bstrip, tile, row_stride, mr, nr);
            }
        }
    }
}

/// Packs `a[ic..ic+mc, pc..pc+kc]` into `mr`-row strips: strip `i0` holds
/// `buf[i0·kc + kk·mr + ii] = a(ic+i0+ii, pc+kk)`. A ragged last strip
/// leaves its slots past `mc` unwritten: the kernel re-reads the last live
/// row in their place (see [`AView`]), so nothing ever reads them.
fn pack_a(buf: &mut [f32], a: MatRef, ic: usize, pc: usize, mc: usize, kc: usize, mr: usize) {
    for i0 in (0..mc).step_by(mr) {
        let live = mr.min(mc - i0);
        let strip = &mut buf[i0 * kc..i0 * kc + kc * mr];
        for kk in 0..kc {
            let dst = &mut strip[kk * mr..kk * mr + live];
            for (ii, d) in dst.iter_mut().enumerate() {
                *d = a.at(ic + i0 + ii, pc + kk);
            }
        }
    }
}

/// Packs `b[pc..pc+kc, jc..jc+nc]` into `nr`-column strips: strip `j0` holds
/// `buf[j0·kc + kk·nr + jj] = b(pc+kk, jc+j0+jj)`, zero-padded past `nc`.
fn pack_b(buf: &mut [f32], b: MatRef, pc: usize, jc: usize, kc: usize, nc: usize, nr: usize) {
    for j0 in (0..nc).step_by(nr) {
        let strip = &mut buf[j0 * kc..j0 * kc + kc * nr];
        for kk in 0..kc {
            let dst = &mut strip[kk * nr..kk * nr + nr];
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = if j0 + jj < nc { b.at(pc + kk, jc + j0 + jj) } else { 0.0 };
            }
        }
    }
}

/// Test hook: the full blocked engine — packing, blocking, micro-loop,
/// optional intra-GEMM parallelism — with an explicit micro-kernel,
/// bypassing both the work heuristic and the process-wide selection.
/// Lets one test process pin every dispatch variant from
/// [`kernel::available_kernels`] against a reference, instead of spawning
/// a subprocess per `ENHANCENET_FORCE_SCALAR` state.
#[doc(hidden)]
pub fn matmul_with_kernel(
    a: &Tensor,
    b: &Tensor,
    kern: &dyn MicroKernel,
    parallel: bool,
) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_with_kernel lhs must be rank 2, got {:?}", a.shape());
    assert_eq!(b.rank(), 2, "matmul_with_kernel rhs must be rank 2, got {:?}", b.shape());
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_with_kernel inner dims differ: {:?} x {:?}", a.shape(), b.shape());
    let mut out = vec![0.0f32; m * n];
    gemm_blocked_with(
        kern,
        &mut out,
        MatRef::normal(a.data(), k),
        MatRef::normal(b.data(), n),
        m,
        k,
        n,
        parallel,
    );
    Tensor::from_vec(out, &[m, n])
}

/// Batched driver: one GEMM per batch over closure-provided operand views.
/// Forks across batches when the summed work is large; otherwise runs
/// batches serially, letting a single huge batch parallelize internally.
fn gemm_batched<'a>(
    out: &mut [f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    a_of: impl Fn(usize) -> MatRef<'a> + Sync,
    b_of: impl Fn(usize) -> MatRef<'a> + Sync,
) {
    let per = m * n;
    if batch_parallel(batch, m, k, n) {
        out.par_chunks_mut(per).enumerate().for_each(|(bi, chunk)| {
            gemm(chunk, a_of(bi), b_of(bi), m, k, n, false);
        });
    } else {
        for (bi, chunk) in out.chunks_mut(per).enumerate() {
            gemm(chunk, a_of(bi), b_of(bi), m, k, n, true);
        }
    }
}

/// Work-based batch heuristic: fork across batches when the *summed*
/// multiply-adds clear `PAR_MIN_WORK` — many small batches are as
/// parallel-worthy as one large one.
fn batch_parallel(batch: usize, m: usize, k: usize, n: usize) -> bool {
    batch > 1 && batch * m * n * k >= PAR_MIN_WORK
}

/// Dispatch-path label for a 2-D product of `work` multiply-adds.
fn path_label(par: &'static str, serial: &'static str, work: usize) -> &'static str {
    if work >= PAR_MIN_WORK {
        par
    } else {
        serial
    }
}

/// Dispatch recording for the batched entry points: the path label reflects
/// whether the batch heuristic forks (or a lone batch parallelizes
/// internally).
#[allow(clippy::too_many_arguments)]
fn record_batched_dispatch(
    calls: &'static str,
    elems: &'static str,
    par: &'static str,
    serial: &'static str,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if !enhancenet_telemetry::enabled() {
        return;
    }
    let forked = batch_parallel(batch, m, k, n) || (batch <= 1 && m * n * k >= PAR_MIN_WORK);
    record_dispatch(calls, elems, if forked { par } else { serial }, batch * m * n);
}

impl Tensor {
    /// 2-D matrix product `[m,k] x [k,n] -> [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank 2 with a matching inner
    /// dimension.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] into `out` (buffers reused; same GEMM engine, so
    /// the allocating and arena paths are bitwise identical).
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {:?} x {:?}", self.shape, other.shape);
        record_dispatch(
            "tensor.matmul.calls",
            "tensor.matmul.elements",
            path_label("tensor.matmul.par", "tensor.matmul.serial", m * n * k),
            m * n,
        );
        out.data.clear();
        out.data.resize(m * n, 0.0);
        out.reset_shape(&[m, n]);
        gemm(
            &mut out.data,
            MatRef::normal(&self.data, k),
            MatRef::normal(&other.data, n),
            m,
            k,
            n,
            true,
        );
    }

    /// Transpose-fused product `selfᵀ · other`: `[k,m] x [k,n] -> [m,n]`.
    ///
    /// Reads `self` in transposed order directly — the backward pass's
    /// `Aᵀ·gy` without ever materializing `Aᵀ`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be rank 2, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul_tn rhs must be rank 2, got {:?}", other.shape);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_tn shared dims differ: {:?} x {:?}", self.shape, other.shape);
        record_dispatch(
            "tensor.matmul_tn.calls",
            "tensor.matmul_tn.elements",
            path_label("tensor.matmul_tn.par", "tensor.matmul_tn.serial", m * n * k),
            m * n,
        );
        let mut out = vec![0.0f32; m * n];
        let a = MatRef::transposed(&self.data, m);
        gemm(&mut out, a, MatRef::normal(&other.data, n), m, k, n, true);
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose-fused product `self · otherᵀ`: `[m,k] x [n,k] -> [m,n]`.
    ///
    /// Reads `other` in transposed order directly — the backward pass's
    /// `gy·Bᵀ` without ever materializing `Bᵀ`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] into `out` (buffers reused; same GEMM engine).
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be rank 2, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul_nt rhs must be rank 2, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_nt shared dims differ: {:?} x {:?}", self.shape, other.shape);
        record_dispatch(
            "tensor.matmul_nt.calls",
            "tensor.matmul_nt.elements",
            path_label("tensor.matmul_nt.par", "tensor.matmul_nt.serial", m * n * k),
            m * n,
        );
        out.data.clear();
        out.data.resize(m * n, 0.0);
        out.reset_shape(&[m, n]);
        let b = MatRef::transposed(&other.data, k);
        gemm(&mut out.data, MatRef::normal(&self.data, k), b, m, k, n, true);
    }

    /// Batched matrix product `[b,m,k] x [b,k,n] -> [b,m,n]`.
    ///
    /// Batches fork to rayon when the summed work is large enough; a single
    /// large batch parallelizes internally instead.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.bmm_into(other, &mut out);
        out
    }

    /// [`Tensor::bmm`] into `out` (buffers reused; same GEMM engine).
    pub fn bmm_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 3, "bmm lhs must be rank 3, got {:?}", self.shape);
        assert_eq!(other.rank(), 3, "bmm rhs must be rank 3, got {:?}", other.shape);
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm batch dims differ: {:?} x {:?}", self.shape, other.shape);
        assert_eq!(k, k2, "bmm inner dims differ: {:?} x {:?}", self.shape, other.shape);
        record_batched_dispatch(
            "tensor.bmm.calls",
            "tensor.bmm.elements",
            "tensor.bmm.par",
            "tensor.bmm.serial",
            b,
            m,
            k,
            n,
        );
        out.data.clear();
        out.data.resize(b * m * n, 0.0);
        out.reset_shape(&[b, m, n]);
        gemm_batched(
            &mut out.data,
            b,
            m,
            k,
            n,
            |bi| MatRef::normal(&self.data[bi * m * k..(bi + 1) * m * k], k),
            |bi| MatRef::normal(&other.data[bi * k * n..(bi + 1) * k * n], n),
        );
    }

    /// Batched transpose-fused product `selfᵦᵀ · otherᵦ`:
    /// `[b,k,m] x [b,k,n] -> [b,m,n]`.
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm_tn lhs must be rank 3, got {:?}", self.shape);
        assert_eq!(other.rank(), 3, "bmm_tn rhs must be rank 3, got {:?}", other.shape);
        let (b, k, m) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm_tn batch dims differ: {:?} x {:?}", self.shape, other.shape);
        assert_eq!(k, k2, "bmm_tn shared dims differ: {:?} x {:?}", self.shape, other.shape);
        record_batched_dispatch(
            "tensor.bmm_tn.calls",
            "tensor.bmm_tn.elements",
            "tensor.bmm_tn.par",
            "tensor.bmm_tn.serial",
            b,
            m,
            k,
            n,
        );
        let mut out = vec![0.0f32; b * m * n];
        gemm_batched(
            &mut out,
            b,
            m,
            k,
            n,
            |bi| MatRef::transposed(&self.data[bi * k * m..(bi + 1) * k * m], m),
            |bi| MatRef::normal(&other.data[bi * k * n..(bi + 1) * k * n], n),
        );
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Batched transpose-fused product `selfᵦ · otherᵦᵀ`:
    /// `[b,m,k] x [b,n,k] -> [b,m,n]`.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.bmm_nt_into(other, &mut out);
        out
    }

    /// [`Tensor::bmm_nt`] into `out` (buffers reused; same GEMM engine).
    pub fn bmm_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 3, "bmm_nt lhs must be rank 3, got {:?}", self.shape);
        assert_eq!(other.rank(), 3, "bmm_nt rhs must be rank 3, got {:?}", other.shape);
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, n, k2) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm_nt batch dims differ: {:?} x {:?}", self.shape, other.shape);
        assert_eq!(k, k2, "bmm_nt shared dims differ: {:?} x {:?}", self.shape, other.shape);
        record_batched_dispatch(
            "tensor.bmm_nt.calls",
            "tensor.bmm_nt.elements",
            "tensor.bmm_nt.par",
            "tensor.bmm_nt.serial",
            b,
            m,
            k,
            n,
        );
        out.data.clear();
        out.data.resize(b * m * n, 0.0);
        out.reset_shape(&[b, m, n]);
        gemm_batched(
            &mut out.data,
            b,
            m,
            k,
            n,
            |bi| MatRef::normal(&self.data[bi * m * k..(bi + 1) * m * k], k),
            |bi| MatRef::transposed(&other.data[bi * n * k..(bi + 1) * n * k], k),
        );
    }

    /// Batch-summed transpose-fused product `Σᵦ selfᵦ · otherᵦᵀ`:
    /// `[b,m,j] x [b,l,j] -> [m,l]`.
    ///
    /// The broadcast-left gradient `Σᵦ gyᵦ · Xᵦᵀ` as one accumulation —
    /// no `[b,m,l]` intermediate, no separate sum pass. Batches share the
    /// output, so they run serially; each per-batch GEMM may parallelize.
    pub fn bmm_nt_reduce(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm_nt_reduce lhs must be rank 3, got {:?}", self.shape);
        assert_eq!(other.rank(), 3, "bmm_nt_reduce rhs must be rank 3, got {:?}", other.shape);
        let (b, m, j) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, l, j2) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm_nt_reduce batch dims differ: {:?} x {:?}", self.shape, other.shape);
        assert_eq!(j, j2, "bmm_nt_reduce shared dims differ: {:?} x {:?}", self.shape, other.shape);
        record_dispatch(
            "tensor.bmm_nt_reduce.calls",
            "tensor.bmm_nt_reduce.elements",
            path_label("tensor.bmm_nt_reduce.par", "tensor.bmm_nt_reduce.serial", m * l * j),
            m * l,
        );
        let mut out = vec![0.0f32; m * l];
        for bi in 0..b {
            let a = MatRef::normal(&self.data[bi * m * j..(bi + 1) * m * j], j);
            let bt = MatRef::transposed(&other.data[bi * l * j..(bi + 1) * l * j], j);
            gemm(&mut out, a, bt, m, j, l, true);
        }
        Tensor::from_vec(out, &[m, l])
    }

    /// Batched product with a shared left matrix: `[m,k] x [b,k,n] -> [b,m,n]`.
    ///
    /// This is the graph-convolution pattern `A · Xᵦ` where the adjacency is
    /// shared across the batch. Batches fork to rayon when the summed work
    /// is large enough.
    pub fn matmul_broadcast_left(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_broadcast_left_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_broadcast_left`] into `out` (buffers reused; same
    /// GEMM engine).
    pub fn matmul_broadcast_left_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "lhs must be rank 2, got {:?}", self.shape);
        assert_eq!(other.rank(), 3, "rhs must be rank 3, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (b, k2, n) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(k, k2, "inner dims differ: {:?} x {:?}", self.shape, other.shape);
        record_batched_dispatch(
            "tensor.mm_bcast_left.calls",
            "tensor.mm_bcast_left.elements",
            "tensor.mm_bcast_left.par",
            "tensor.mm_bcast_left.serial",
            b,
            m,
            k,
            n,
        );
        out.data.clear();
        out.data.resize(b * m * n, 0.0);
        out.reset_shape(&[b, m, n]);
        gemm_batched(
            &mut out.data,
            b,
            m,
            k,
            n,
            |_| MatRef::normal(&self.data, k),
            |bi| MatRef::normal(&other.data[bi * k * n..(bi + 1) * k * n], n),
        );
    }

    /// Transpose-fused broadcast-left: `selfᵀ · otherᵦ` with `self` `[m,k]`
    /// read in transposed order, `[m,k] x [b,m,n] -> [b,k,n]`.
    ///
    /// The broadcast-left input gradient `Aᵀ · gyᵦ` without materializing
    /// `Aᵀ`.
    pub fn matmul_broadcast_left_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "lhs must be rank 2, got {:?}", self.shape);
        assert_eq!(other.rank(), 3, "rhs must be rank 3, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (b, m2, n) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(m, m2, "shared dims differ: {:?}ᵀ x {:?}", self.shape, other.shape);
        record_batched_dispatch(
            "tensor.mm_bcast_left_tn.calls",
            "tensor.mm_bcast_left_tn.elements",
            "tensor.mm_bcast_left_tn.par",
            "tensor.mm_bcast_left_tn.serial",
            b,
            k,
            m,
            n,
        );
        let mut out = vec![0.0f32; b * k * n];
        gemm_batched(
            &mut out,
            b,
            k,
            m,
            n,
            |_| MatRef::transposed(&self.data, k),
            |bi| MatRef::normal(&other.data[bi * m * n..(bi + 1) * m * n], n),
        );
        Tensor::from_vec(out, &[b, k, n])
    }

    /// Product with a shared right matrix: `[..., k] x [k,n] -> [..., n]`
    /// for any lhs rank ≥ 2.
    ///
    /// This is the shared-filter pattern `Xᵦ · W`: one weight matrix applied
    /// across all leading axes. Contiguous row-major layout means the
    /// leading axes fold into a single `[Σ·, k]` GEMM — no reshape copy, no
    /// input clone.
    pub fn matmul_broadcast_right(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_broadcast_right_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_broadcast_right`] into `out` (buffers reused; same
    /// GEMM engine).
    pub fn matmul_broadcast_right_into(&self, other: &Tensor, out: &mut Tensor) {
        assert!(self.rank() >= 2, "lhs must be rank >= 2, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "rhs must be rank 2, got {:?}", other.shape);
        assert!(self.rank() <= MAX_RANK, "lhs rank {} exceeds {MAX_RANK}", self.rank());
        let k = *self.shape.last().unwrap();
        assert_eq!(k, other.shape[0], "inner dims differ: {:?} x {:?}", self.shape, other.shape);
        let n = other.shape[1];
        let rows: usize = self.shape[..self.rank() - 1].iter().product();
        record_dispatch(
            "tensor.mm_bcast_right.calls",
            "tensor.mm_bcast_right.elements",
            path_label("tensor.mm_bcast_right.par", "tensor.mm_bcast_right.serial", rows * n * k),
            rows * n,
        );
        let mut shape = [0usize; MAX_RANK];
        let out_rank = self.rank();
        shape[..out_rank - 1].copy_from_slice(&self.shape[..out_rank - 1]);
        shape[out_rank - 1] = n;
        out.data.clear();
        out.data.resize(rows * n, 0.0);
        out.reset_shape(&shape[..out_rank]);
        gemm(
            &mut out.data,
            MatRef::normal(&self.data, k),
            MatRef::normal(&other.data, n),
            rows,
            k,
            n,
            true,
        );
    }

    /// Transpose-fused shared-right product `self · otherᵀ`:
    /// `[..., n] x [k,n] -> [..., k]` for any lhs rank ≥ 2.
    ///
    /// The shared-filter input gradient `gy · Wᵀ` without materializing
    /// `Wᵀ`.
    pub fn matmul_broadcast_right_nt(&self, other: &Tensor) -> Tensor {
        assert!(self.rank() >= 2, "lhs must be rank >= 2, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "rhs must be rank 2, got {:?}", other.shape);
        let n = *self.shape.last().unwrap();
        let (k, n2) = (other.shape[0], other.shape[1]);
        assert_eq!(n, n2, "shared dims differ: {:?} x {:?}ᵀ", self.shape, other.shape);
        let rows: usize = self.shape[..self.rank() - 1].iter().product();
        record_dispatch(
            "tensor.mm_bcast_right_nt.calls",
            "tensor.mm_bcast_right_nt.elements",
            path_label(
                "tensor.mm_bcast_right_nt.par",
                "tensor.mm_bcast_right_nt.serial",
                rows * n * k,
            ),
            rows * k,
        );
        let mut out = vec![0.0f32; rows * k];
        let b = MatRef::transposed(&other.data, n);
        gemm(&mut out, MatRef::normal(&self.data, n), b, rows, n, k, true);
        let mut shape = self.shape[..self.rank() - 1].to_vec();
        shape.push(k);
        Tensor::from_vec(out, &shape)
    }

    /// Leading-axes-folded transpose-fused product `foldᵀ(self) · fold(other)`:
    /// `[..., k] x [..., n] -> [k,n]` where both operands share identical
    /// leading axes.
    ///
    /// The shared-filter weight gradient `Xᵀ_flat · gy_flat` as one GEMM —
    /// no reshape copies, no transpose materialization.
    pub fn matmul_tn_flat(&self, other: &Tensor) -> Tensor {
        assert!(self.rank() >= 2, "lhs must be rank >= 2, got {:?}", self.shape);
        assert_eq!(
            self.shape[..self.rank() - 1],
            other.shape[..other.rank() - 1],
            "leading axes differ: {:?} x {:?}",
            self.shape,
            other.shape
        );
        let k = *self.shape.last().unwrap();
        let n = *other.shape.last().unwrap();
        let rows: usize = self.shape[..self.rank() - 1].iter().product();
        record_dispatch(
            "tensor.mm_tn_flat.calls",
            "tensor.mm_tn_flat.elements",
            path_label("tensor.mm_tn_flat.par", "tensor.mm_tn_flat.serial", rows * n * k),
            k * n,
        );
        let mut out = vec![0.0f32; k * n];
        let a = MatRef::transposed(&self.data, k);
        gemm(&mut out, a, MatRef::normal(&other.data, n), k, rows, n, true);
        Tensor::from_vec(out, &[k, n])
    }

    /// Dot product of two rank-1 tensors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot expects rank-1 operands");
        assert_eq!(self.shape, other.shape, "dot length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Matrix power `self^p` for a square rank-2 tensor (`p = 0` gives the
    /// identity). Used to build k-hop graph supports.
    pub fn matrix_power(&self, p: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "matrix_power expects a matrix");
        assert_eq!(self.shape[0], self.shape[1], "matrix_power expects a square matrix");
        let n = self.shape[0];
        let mut acc = Tensor::eye(n);
        for _ in 0..p {
            acc = acc.matmul(self);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testing::{float_payload, tile_dot};

    /// Unblocked, unpacked reference: the plain triple loop every kernel
    /// variant must agree with.
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

    /// Deterministic small-integer fill: products stay exactly representable
    /// in f32, so blocked-vs-reference comparisons can be exact.
    fn int_tensor(shape: &[usize], seed: usize) -> Tensor {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|v| ((v * 7 + seed) % 5) as f32 - 2.0).collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert_eq!(a.matmul(&Tensor::eye(3)).data(), a.data());
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_rows(&[vec![1.0, 0.0, 2.0]]);
        let b = Tensor::from_rows(&[vec![1.0, 1.0], vec![9.0, 9.0], vec![2.0, 3.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.data(), &[5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_rejects_mismatched_inner() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 5]));
    }

    #[test]
    fn blocked_path_matches_reference_on_odd_shapes() {
        // Shapes chosen to straddle every blocking boundary: ragged MR/NR
        // tails, multiple KC slices, multiple MC row blocks, NC slab edges.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 17, 1),
            (5, 3, 129),
            (67, 261, 17),
            (63, 64, 65),
            (130, 300, 11),
            (64, 257, 513),
        ] {
            let a = int_tensor(&[m, k], 1);
            let b = int_tensor(&[k, n], 2);
            let got = a.matmul(&b);
            let want = reference_mm(&a, &b);
            assert_eq!(got.data(), want.data(), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn tn_and_nt_match_materialized_transpose() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (31, 67, 13), (67, 129, 65)] {
            let a = int_tensor(&[m, k], 3);
            let b = int_tensor(&[k, n], 4);
            let want = reference_mm(&a, &b);
            // tn: feed aᵀ stored as [k,m].
            let at = a.transpose();
            assert_eq!(at.matmul_tn(&b).data(), want.data(), "tn mismatch at ({m},{k},{n})");
            // nt: feed bᵀ stored as [n,k].
            let bt = b.transpose();
            assert_eq!(a.matmul_nt(&bt).data(), want.data(), "nt mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn bmm_independent_batches() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]);
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(&c.data()[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&c.data()[4..], &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn bmm_tn_nt_match_transpose_batched() {
        let (b, m, k, n) = (3, 5, 7, 4);
        let a = int_tensor(&[b, m, k], 5);
        let x = int_tensor(&[b, k, n], 6);
        let want = a.bmm(&x);
        assert_eq!(a.transpose_batched().bmm_tn(&x).data(), want.data());
        assert_eq!(a.bmm_nt(&x.transpose_batched()).data(), want.data());
    }

    #[test]
    fn bmm_nt_reduce_matches_bmm_then_sum() {
        let (b, m, n, l) = (4, 5, 6, 3);
        let gy = int_tensor(&[b, m, n], 7);
        let x = int_tensor(&[b, l, n], 8);
        let want = gy.bmm_nt(&x).sum_axis(0);
        assert_eq!(gy.bmm_nt_reduce(&x).data(), want.data());
    }

    #[test]
    fn broadcast_left_equals_per_batch_matmul() {
        let a = Tensor::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]); // swap rows
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[2, 2, 2]);
        let y = a.matmul_broadcast_left(&x);
        assert_eq!(&y.data()[..4], &[3.0, 4.0, 1.0, 2.0]);
        assert_eq!(&y.data()[4..], &[7.0, 8.0, 5.0, 6.0]);
    }

    #[test]
    fn broadcast_left_tn_matches_transposed_broadcast() {
        let (b, m, k, n) = (3, 6, 4, 5);
        let a = int_tensor(&[m, k], 9);
        let gy = int_tensor(&[b, m, n], 10);
        let want = a.transpose().matmul_broadcast_left(&gy);
        assert_eq!(a.matmul_broadcast_left_tn(&gy).data(), want.data());
    }

    #[test]
    fn broadcast_right_equals_flattened_matmul() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2]);
        let w = Tensor::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, 2.0]]);
        let y = x.matmul_broadcast_right(&w);
        assert_eq!(y.shape(), &[2, 3, 3]);
        // first row: [0,1] @ w = [0, 1, 2]
        assert_eq!(&y.data()[..3], &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn broadcast_right_folds_any_leading_rank() {
        let x = int_tensor(&[2, 3, 4, 5], 11);
        let w = int_tensor(&[5, 6], 12);
        let y = x.matmul_broadcast_right(&w);
        assert_eq!(y.shape(), &[2, 3, 4, 6]);
        let flat = x.reshape(&[24, 5]).matmul(&w);
        assert_eq!(y.data(), flat.data());
    }

    #[test]
    fn broadcast_right_nt_matches_materialized_transpose() {
        let gy = int_tensor(&[2, 3, 6], 13);
        let w = int_tensor(&[5, 6], 14);
        let want = gy.matmul_broadcast_right(&w.transpose());
        assert_eq!(gy.matmul_broadcast_right_nt(&w).data(), want.data());
    }

    #[test]
    fn tn_flat_matches_reshape_transpose_matmul() {
        let x = int_tensor(&[2, 3, 5], 15);
        let gy = int_tensor(&[2, 3, 4], 16);
        let want = x.reshape(&[6, 5]).transpose().matmul(&gy.reshape(&[6, 4]));
        assert_eq!(x.matmul_tn_flat(&gy).data(), want.data());
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn matrix_power_zero_is_identity() {
        let a = Tensor::from_rows(&[vec![2.0, 0.0], vec![0.0, 2.0]]);
        assert!(a.matrix_power(0).allclose(&Tensor::eye(2), 0.0));
        assert!(a.matrix_power(3).allclose(&(&Tensor::eye(2) * 8.0), 1e-5));
    }

    #[test]
    fn pack_a_layout_strips_live_rows_only() {
        // 5x3 source packed with mr = 4, kc = 3: strip 0 interleaves rows
        // 0..4 by depth; strip 1 holds row 4, and its three missing rows
        // are never written (the kernel re-reads row 4 in their place).
        let data: Vec<f32> = (0..15).map(|v| v as f32).collect();
        let a = MatRef::normal(&data, 3);
        let mut buf = vec![f32::NAN; 3 * 8];
        pack_a(&mut buf, a, 0, 0, 5, 3, 4);
        // Strip 0, depth 0: column 0 of rows 0..4.
        assert_eq!(&buf[0..4], &[0.0, 3.0, 6.0, 9.0]);
        // Strip 0, depth 2: column 2 of rows 0..4.
        assert_eq!(&buf[8..12], &[2.0, 5.0, 8.0, 11.0]);
        // Strip 1: row 4 at each depth, the unread slots untouched.
        for (kk, depth) in buf[12..].chunks(4).enumerate() {
            assert_eq!(depth[0], 12.0 + kk as f32);
            assert!(depth[1..].iter().all(|v| v.is_nan()));
        }
    }

    #[test]
    fn pack_a_transposed_view_reads_swapped_strides() {
        // A [3, 2] buffer viewed as its [2, 3] transpose must pack the
        // logical (not storage) rows.
        let data: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let at = MatRef::transposed(&data, 2);
        let mut buf = vec![0.0f32; 3 * 2];
        pack_a(&mut buf, at, 0, 0, 2, 3, 2);
        // Logical row 0 = storage column 0 = [0, 2, 4]; row 1 = [1, 3, 5].
        assert_eq!(buf, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn pack_b_layout_strips_and_zero_pads() {
        // 2x5 source packed with nr = 4, kc = 2: strip 0 holds columns
        // 0..4, strip 1 holds column 4 plus three zero-padded columns.
        let data: Vec<f32> = (0..10).map(|v| v as f32).collect();
        let b = MatRef::normal(&data, 5);
        let mut buf = vec![f32::NAN; 2 * 8];
        pack_b(&mut buf, b, 0, 0, 2, 5, 4);
        assert_eq!(&buf[0..4], &[0.0, 1.0, 2.0, 3.0]); // depth 0, cols 0..4
        assert_eq!(&buf[4..8], &[5.0, 6.0, 7.0, 8.0]); // depth 1, cols 0..4
        assert_eq!(&buf[8..12], &[4.0, 0.0, 0.0, 0.0]); // strip 1, depth 0
        assert_eq!(&buf[12..16], &[9.0, 0.0, 0.0, 0.0]); // strip 1, depth 1
    }

    #[test]
    fn every_kernel_drives_blocked_engine_to_reference() {
        // The same odd/ragged shape sweep as the public-API test, but
        // forced through each dispatch variant the host can run, serial
        // and parallel. Integer values keep comparisons bitwise even for
        // FMA kernels.
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 17), (7, 19, 23), (67, 129, 65)] {
            let a = int_tensor(&[m, k], 1);
            let b = int_tensor(&[k, n], 2);
            let want = reference_mm(&a, &b);
            for kern in crate::kernel::available_kernels() {
                for parallel in [false, true] {
                    let got = matmul_with_kernel(&a, &b, kern, parallel);
                    assert_eq!(
                        got.data(),
                        want.data(),
                        "kernel {} mismatch at ({m},{k},{n}) parallel={parallel}",
                        kern.name()
                    );
                }
            }
        }
    }

    /// Each output element exactly as the blocked engine computes it with
    /// `kern`: per `KC` depth slice, the kernel's own multiply-add chain
    /// from zero, then one add into the output.
    fn blocked_reference(
        kern: &dyn MicroKernel,
        a: MatRef,
        b: MatRef,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for (idx, o) in out.iter_mut().enumerate() {
            let (i, j) = (idx / n, idx % n);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                *o += tile_dot(kern, kc, |kk| a.at(i, pc + kk), |kk| b.at(pc + kk, j));
            }
        }
        out
    }

    /// Bit equality, except that a NaN need only be NaN on both sides.
    fn assert_same_bits(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "{ctx}: element {idx} is {g}, want NaN");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {idx} is {g}, want {w}");
            }
        }
    }

    /// `[m, k]` float payload stored row-major (`normal`) or as its
    /// `[k, m]` transpose (`transposed`), with `last_row` written into
    /// logical row `m - 1` from depth 0 on.
    fn a_operand(m: usize, k: usize, transposed: bool, last_row: &[f32], seed: usize) -> Vec<f32> {
        let mut data = float_payload(m * k, seed);
        for (kk, &v) in last_row.iter().enumerate().take(k) {
            let idx = if transposed { kk * m + m - 1 } else { (m - 1) * k + kk };
            data[idx] = v;
        }
        data
    }

    #[test]
    fn every_kernel_unpacked_engine_matches_per_element_arithmetic() {
        // n ≤ nr reads A unpacked (normal and transposed views); nr + 1
        // takes the packed path through the same kernel. m covers a single
        // short strip, a ragged last strip, and two row blocks (so the
        // parallel run splits into row bands); k covers one and several
        // KC slices. Float payloads make any reordering visible.
        for kern in crate::kernel::available_kernels() {
            let (kmr, knr) = (kern.mr(), kern.nr());
            let shapes: Vec<(usize, usize)> = if cfg!(miri) {
                // Miri interprets every multiply-add: one (m, k) per pointer
                // pattern — two KC slices, a ragged strip, two row blocks.
                vec![(kmr - 1, KC + 1), (2 * kmr + 1, 3), (MC + 3, 2)]
            } else {
                let ks = [1, KC - 1, KC + 1, 2 * KC + 3];
                [kmr - 1, 2 * kmr + 1, MC + 3]
                    .into_iter()
                    .flat_map(|m| ks.map(|k| (m, k)))
                    .collect()
            };
            for n in [1, knr - 1, knr, knr + 1] {
                for &(m, k) in &shapes {
                    let b = float_payload(k * n, 5);
                    let b = MatRef::normal(&b, n);
                    for transposed in [false, true] {
                        let data = a_operand(m, k, transposed, &[], m + k);
                        let a = if transposed {
                            MatRef::transposed(&data, m)
                        } else {
                            MatRef::normal(&data, k)
                        };
                        let want = blocked_reference(kern, a, b, m, k, n);
                        for parallel in [false, true] {
                            let mut got = vec![0.0f32; m * n];
                            gemm_blocked_with(kern, &mut got, a, b, m, k, n, parallel);
                            let ctx = format!(
                                "kernel {} ({m},{k},{n}) transposed={transposed} \
                                 parallel={parallel}",
                                kern.name()
                            );
                            assert_same_bits(&got, &want, &ctx);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_unpacked_engine_confines_non_finite_last_row() {
        // NaN, ±inf and -0.0 in A's last row, which ends a ragged strip:
        // the kernel re-reads that row for the missing tile rows, and
        // those products must not reach any live output.
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, -0.0, 1.0];
        for kern in crate::kernel::available_kernels() {
            let (kmr, knr) = (kern.mr(), kern.nr());
            let (m, k) = (2 * kmr + 1, special.len());
            for n in [1, knr] {
                let b = float_payload(k * n, 9);
                let b = MatRef::normal(&b, n);
                for transposed in [false, true] {
                    let data = a_operand(m, k, transposed, &special, 3);
                    let a = if transposed {
                        MatRef::transposed(&data, m)
                    } else {
                        MatRef::normal(&data, k)
                    };
                    let want = blocked_reference(kern, a, b, m, k, n);
                    assert!(want[..(m - 1) * n].iter().all(|v| v.is_finite()));
                    let mut got = vec![0.0f32; m * n];
                    gemm_blocked_with(kern, &mut got, a, b, m, k, n, false);
                    let ctx = format!("kernel {} n={n} transposed={transposed}", kern.name());
                    assert_same_bits(&got, &want, &ctx);
                }
            }
        }
    }

    /// Batch `bi` of a `[batch, ..]` tensor whose batches hold `len` floats.
    fn per_batch(t: &Tensor, bi: usize, len: usize) -> &[f32] {
        &t.data()[bi * len..(bi + 1) * len]
    }

    #[test]
    fn narrow_entry_points_match_blocked_arithmetic_bitwise() {
        // Every public product whose A operand the engine can read in
        // place, on shapes above PACK_MIN_WORK so they take the blocked
        // path with the process-selected kernel. The batch of 12 forks
        // across batches for the wider outputs; m = 300 parallelizes one
        // product in row bands.
        let kern = kernel::selected_kernel();
        let knr = kern.nr();
        let (k, batch) = (KC + 1, 12);
        for n in [1, knr - 1, knr, knr + 1] {
            for m in [67, 300] {
                assert!(m * k * n >= PACK_MIN_WORK);
                let a = Tensor::from_vec(float_payload(batch * m * k, 1), &[batch, m, k]);
                let at = Tensor::from_vec(float_payload(batch * k * m, 2), &[batch, k, m]);
                let x = Tensor::from_vec(float_payload(batch * k * n, 3), &[batch, k, n]);
                let want_of = |a: MatRef, bi: usize| {
                    let b = MatRef::normal(per_batch(&x, bi, k * n), n);
                    blocked_reference(kern, a, b, m, k, n)
                };
                let first = |t: &Tensor, len: usize, shape: &[usize]| {
                    Tensor::from_vec(t.data()[..len].to_vec(), shape)
                };
                let (a0, at0, x0) = (
                    first(&a, m * k, &[m, k]),
                    first(&at, k * m, &[k, m]),
                    first(&x, k * n, &[k, n]),
                );
                let ctx = format!("({m},{k},{n})");

                let want = want_of(MatRef::normal(a0.data(), k), 0);
                assert_same_bits(a0.matmul(&x0).data(), &want, &format!("matmul {ctx}"));
                let rows = Tensor::from_vec(a0.data().to_vec(), &[1, m, k]);
                let got = rows.matmul_broadcast_right(&x0);
                assert_same_bits(got.data(), &want, &format!("broadcast_right {ctx}"));
                let want_t = want_of(MatRef::transposed(at0.data(), m), 0);
                assert_same_bits(at0.matmul_tn(&x0).data(), &want_t, &format!("matmul_tn {ctx}"));

                let (bmm, bmm_tn) = (a.bmm(&x), at.bmm_tn(&x));
                let (left, left_tn) =
                    (a0.matmul_broadcast_left(&x), at0.matmul_broadcast_left_tn(&x));
                for bi in 0..batch {
                    let want = want_of(MatRef::normal(per_batch(&a, bi, m * k), k), bi);
                    assert_same_bits(per_batch(&bmm, bi, m * n), &want, &format!("bmm {ctx} {bi}"));
                    let want = want_of(MatRef::transposed(per_batch(&at, bi, k * m), m), bi);
                    assert_same_bits(
                        per_batch(&bmm_tn, bi, m * n),
                        &want,
                        &format!("bmm_tn {ctx}"),
                    );
                    let want = want_of(MatRef::normal(a0.data(), k), bi);
                    assert_same_bits(per_batch(&left, bi, m * n), &want, &format!("left {ctx}"));
                    let want = want_of(MatRef::transposed(at0.data(), m), bi);
                    assert_same_bits(
                        per_batch(&left_tn, bi, m * n),
                        &want,
                        &format!("left_tn {ctx}"),
                    );
                }
            }
        }
    }

    #[test]
    fn wide_output_slab_parallel_matches_reference() {
        // col_slabs (3) > row_blocks (1) with work >= PAR_MIN_WORK forces
        // the column-slab fan-out; slabs must tile the output without
        // overlap or gaps.
        let (m, k, n) = (32, 64, 1200);
        assert!(m * k * n >= PAR_MIN_WORK);
        assert!(n.div_ceil(NC) > m.div_ceil(MC));
        let a = int_tensor(&[m, k], 3);
        let b = int_tensor(&[k, n], 4);
        assert_eq!(a.matmul(&b).data(), reference_mm(&a, &b).data());
    }

    #[test]
    fn large_matmul_parallel_path_matches_serial() {
        // Force the rayon path (work >= PAR_MIN_WORK) and compare against
        // the identity.
        let m = 160;
        let a = Tensor::from_vec((0..m * m).map(|v| (v % 7) as f32 * 0.25).collect(), &[m, m]);
        let b = Tensor::eye(m);
        assert!(a.matmul(&b).allclose(&a, 1e-5));
    }

    #[test]
    fn parallel_bmm_matches_serial_batches() {
        // Summed work clears PAR_MIN_WORK while a single batch does not, so
        // this exercises the batch-parallel fork.
        let (b, m, k, n) = (16, 40, 41, 42);
        assert!(batch_parallel(b, m, k, n));
        assert!(m * k * n < PAR_MIN_WORK);
        let a = int_tensor(&[b, m, k], 17);
        let x = int_tensor(&[b, k, n], 18);
        let got = a.bmm(&x);
        for bi in 0..b {
            let ai = Tensor::from_vec(a.data()[bi * m * k..(bi + 1) * m * k].to_vec(), &[m, k]);
            let xi = Tensor::from_vec(x.data()[bi * k * n..(bi + 1) * k * n].to_vec(), &[k, n]);
            let want = reference_mm(&ai, &xi);
            assert_eq!(&got.data()[bi * m * n..(bi + 1) * m * n], want.data(), "batch {bi}");
        }
    }
}
