//! Sparse graph kernels: a CSR matrix for constant adjacencies and a
//! fixed-width per-row column pattern (ELL layout) for top-k sparsified
//! attention.
//!
//! DAMGN's dense `N×N` adjacency mixes are O(N²) in time and memory. The
//! sub-quadratic path stores only `k` retained columns per row:
//!
//! * [`CsrMatrix`] — classic compressed-sparse-row storage for *constant*
//!   matrices (distance-based supports, k-NN graphs). `spmm`/`spmm_into`
//!   produce dense output, parallelized over row bands.
//! * [`TopkPattern`] — the retained column indices of a top-k row
//!   sparsification, shared by every tensor that lives on that pattern.
//!   Values ride in ordinary dense tensors of shape `[rows, k]` (or
//!   `[batch, rows, k]`), so they flow through the autodiff tape unchanged;
//!   only the gather/scatter kernels below consult the pattern.
//!
//! Column indices are stored **ascending within each row**. Ascending order
//! makes the `k = cols` degenerate pattern reproduce the dense summation
//! order exactly, which is what pins the sparse-vs-dense parity suite
//! bitwise at `top_k = N`.
//!
//! The kernels reuse the thread-local [`crate::scratch`] pool (top-k
//! selection scores) and fan out over row bands with rayon once the
//! arithmetic work clears `SPARSE_PAR_MIN_WORK`. Counters (gated on
//! [`enhancenet_telemetry::enabled`]): `graph.sparse.rows` and
//! `graph.sparse.nnz` (rows / stored entries processed by the spmm-family
//! kernels, batch included) and `graph.sparse.spmm_ns` (wall nanoseconds
//! inside those kernels).

use crate::scratch::with_scratch;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::time::Instant;

/// At or above this many multiply-adds a sparse kernel forks to rayon.
/// Mirrors the blocked GEMM engine's threshold.
const SPARSE_PAR_MIN_WORK: usize = 1 << 20;
/// Rows per parallel band. Small enough to load-balance ragged rows.
const ROW_BAND: usize = 64;

/// Records one spmm-family dispatch: output rows and stored entries
/// processed (batch included) plus wall time. A single relaxed atomic load
/// when telemetry is disabled.
#[inline]
fn record_spmm(rows: usize, nnz: usize, started: Option<Instant>) {
    if let Some(t0) = started {
        enhancenet_telemetry::count("graph.sparse.rows", rows as u64);
        enhancenet_telemetry::count("graph.sparse.nnz", nnz as u64);
        enhancenet_telemetry::count("graph.sparse.spmm_ns", t0.elapsed().as_nanos() as u64);
    }
}

#[inline]
fn spmm_clock() -> Option<Instant> {
    enhancenet_telemetry::enabled().then(Instant::now)
}

// ===================================================================== CSR

/// A compressed-sparse-row `f32` matrix.
///
/// Used for *constant* sparse operands: distance-based supports, k-NN
/// adjacencies, and their row-normalized transition matrices. Learned
/// (differentiable) sparse values use [`TopkPattern`] + dense value tensors
/// instead, so they stay on the autodiff tape.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx`/`vals`.
    row_ptr: Vec<usize>,
    /// Column index per stored entry, ascending within each row.
    col_idx: Vec<u32>,
    vals: Vec<f32>,
}

impl CsrMatrix {
    /// Builds from per-row entry lists. Entries are sorted by column;
    /// duplicate columns within a row are rejected.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate column indices.
    pub fn from_rows(rows: usize, cols: usize, row_entries: &[Vec<(u32, f32)>]) -> Self {
        assert_eq!(
            row_entries.len(),
            rows,
            "from_rows: {} row lists for {rows} rows",
            row_entries.len()
        );
        let nnz: usize = row_entries.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        row_ptr.push(0);
        let mut sorted: Vec<(u32, f32)> = Vec::new();
        for (i, entries) in row_entries.iter().enumerate() {
            sorted.clear();
            sorted.extend_from_slice(entries);
            sorted.sort_unstable_by_key(|&(c, _)| c);
            for w in sorted.windows(2) {
                assert_ne!(w[0].0, w[1].0, "duplicate column {} in row {i}", w[0].0);
            }
            for &(c, v) in &sorted {
                assert!(
                    (c as usize) < cols,
                    "column {c} out of range for {cols} columns in row {i}"
                );
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self { rows, cols, row_ptr, col_idx, vals }
    }

    /// Builds from a dense matrix, keeping every nonzero entry.
    pub fn from_dense(t: &Tensor) -> Self {
        assert_eq!(t.rank(), 2, "from_dense requires rank 2, got {:?}", t.shape());
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for j in 0..cols {
                let v = t.data()[i * cols + j];
                if v != 0.0 {
                    col_idx.push(j as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self { rows, cols, row_ptr, col_idx, vals }
    }

    /// Builds from the top-`k` entries of each dense row (largest values
    /// first, ties broken toward the smaller column), dropping exact zeros.
    /// Stored columns end up ascending, so `k = cols` reproduces the dense
    /// matrix entry-for-entry.
    pub fn from_topk(t: &Tensor, k: usize) -> Self {
        assert_eq!(t.rank(), 2, "from_topk requires rank 2, got {:?}", t.shape());
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        let pat = TopkPattern::from_dense_topk(t, k);
        let mut row_entries = Vec::with_capacity(rows);
        for i in 0..rows {
            let entries: Vec<(u32, f32)> = pat
                .row_cols(i)
                .iter()
                .map(|&c| (c, t.data()[i * cols + c as usize]))
                .filter(|&(_, v)| v != 0.0)
                .collect();
            row_entries.push(entries);
        }
        Self::from_rows(rows, cols, &row_entries)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of (logical, dense) columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The columns and values of row `i` as parallel slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Iterates row `i` as `(column, value)` pairs, ascending by column.
    pub fn iter_row(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (cols, vals) = self.row(i);
        cols.iter().zip(vals).map(|(&c, &v)| (c as usize, v))
    }

    /// Mutable view of the stored values (pattern fixed). Used by the graph
    /// crate's row normalization.
    pub fn vals_mut(&mut self) -> &mut [f32] {
        &mut self.vals
    }

    /// The stored values.
    pub fn vals(&self) -> &[f32] {
        &self.vals
    }

    /// The row-pointer array (`rows + 1` offsets).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The transpose as a new CSR matrix (columns stay ascending).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0f32; self.nnz()];
        let mut next = counts;
        // Row-major scan keeps the transposed columns ascending per row.
        for i in 0..self.rows {
            for (c, v) in self.iter_row(i) {
                let slot = next[c];
                next[c] += 1;
                col_idx[slot] = i as u32;
                vals[slot] = v;
            }
        }
        CsrMatrix { rows: self.cols, cols: self.rows, row_ptr, col_idx, vals }
    }

    /// Materializes the dense `[rows, cols]` matrix.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        for i in 0..self.rows {
            for (c, v) in self.iter_row(i) {
                out.data_mut()[i * self.cols + c] = v;
            }
        }
        out
    }

    /// Dense-out sparse × dense product: `x` is `[cols, c]` or
    /// `[b, cols, c]`; the output replaces `cols` with `rows`.
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.spmm_into(x, &mut out);
        out
    }

    /// [`CsrMatrix::spmm`] into `out` (buffers reused). Parallelizes over
    /// row bands once the work is large enough.
    pub fn spmm_into(&self, x: &Tensor, out: &mut Tensor) {
        let t0 = spmm_clock();
        let (batch, c) = match x.shape() {
            [n, c] => {
                assert_eq!(*n, self.cols, "spmm: {:?} against {} columns", x.shape(), self.cols);
                (1, *c)
            }
            [b, n, c] => {
                assert_eq!(*n, self.cols, "spmm: {:?} against {} columns", x.shape(), self.cols);
                (*b, *c)
            }
            s => panic!("spmm requires rank 2 or 3 signal, got {s:?}"),
        };
        let out_shape: Vec<usize> =
            if x.rank() == 2 { vec![self.rows, c] } else { vec![batch, self.rows, c] };
        out.data.clear();
        out.data.resize(batch * self.rows * c, 0.0);
        out.reset_shape(&out_shape);
        let parallel = batch * self.nnz() * c >= SPARSE_PAR_MIN_WORK;
        for b in 0..batch {
            let xb = &x.data()[b * self.cols * c..(b + 1) * self.cols * c];
            let ob = &mut out.data[b * self.rows * c..(b + 1) * self.rows * c];
            let body = |band_idx: usize, band: &mut [f32]| {
                let r0 = band_idx * ROW_BAND;
                for (r, row_out) in band.chunks_mut(c).enumerate() {
                    for (col, v) in self.iter_row(r0 + r) {
                        let xr = &xb[col * c..col * c + c];
                        for (o, &xv) in row_out.iter_mut().zip(xr) {
                            *o += v * xv;
                        }
                    }
                }
            };
            if parallel {
                ob.par_chunks_mut(ROW_BAND * c).enumerate().for_each(|(bi, band)| body(bi, band));
            } else {
                ob.chunks_mut(ROW_BAND * c).enumerate().for_each(|(bi, band)| body(bi, band));
            }
        }
        record_spmm(batch * self.rows, batch * self.nnz(), t0);
    }
}

// ============================================================ top-k (ELL)

/// The retained column indices of a top-k row sparsification: `k` columns
/// per row, ascending within the row.
///
/// A pattern is built once (per weight version) and shared — via `Arc` —
/// by every tape op that gathers or scatters along it. Values live in
/// ordinary dense tensors `[rows, k]` / `[batch, rows, k]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkPattern {
    rows: usize,
    cols: usize,
    k: usize,
    /// `rows * k` column indices, ascending within each row.
    col_idx: Vec<u32>,
}

impl TopkPattern {
    /// Builds the exact top-`k` pattern of a score matrix produced row by
    /// row: `fill(i, buf)` must write all `cols` scores of row `i` into
    /// `buf`. Selection keeps the `k` largest scores (ties break toward the
    /// smaller column, NaN ranks below every number), then stores the
    /// survivors ascending.
    ///
    /// **Dead rows** — rows with no score > 0 (everything pruned by an
    /// upstream ReLU) — retain their own diagonal column plus the smallest
    /// filler columns, so the masked-softmax self-loop fallback always has
    /// a slot to land in.
    ///
    /// Each row band takes its score row from the thread-local scratch pool
    /// and keeps its selection buffers from row to row, so no row
    /// allocates; bands run in parallel when the total work is large.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ cols` and `rows ≤ cols` (the diagonal
    /// fallback needs column `i` to exist for every row `i`).
    pub fn from_scores(
        rows: usize,
        cols: usize,
        k: usize,
        fill: impl Fn(usize, &mut [f32]) + Sync,
    ) -> Self {
        assert!(k >= 1 && k <= cols, "top_k must be in 1..={cols}, got {k}");
        assert!(rows <= cols, "top-k pattern requires rows ({rows}) <= cols ({cols})");
        let mut col_idx = vec![0u32; rows * k];
        let parallel = rows.saturating_mul(cols) >= SPARSE_PAR_MIN_WORK;
        let body = |band_idx: usize, band: &mut [u32]| {
            let r0 = band_idx * ROW_BAND;
            let mut select = TopkSelect::new(cols, k);
            with_scratch(cols, |scores| {
                for (r, out_cols) in band.chunks_mut(k).enumerate() {
                    let i = r0 + r;
                    fill(i, scores);
                    select.select_row(i, scores, out_cols);
                }
            });
        };
        if parallel {
            col_idx.par_chunks_mut(ROW_BAND * k).enumerate().for_each(|(bi, band)| body(bi, band));
        } else {
            col_idx.chunks_mut(ROW_BAND * k).enumerate().for_each(|(bi, band)| body(bi, band));
        }
        Self { rows, cols, k, col_idx }
    }

    /// Top-`k` pattern of a dense score matrix.
    pub fn from_dense_topk(t: &Tensor, k: usize) -> Self {
        assert_eq!(t.rank(), 2, "from_dense_topk requires rank 2, got {:?}", t.shape());
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        let data = t.data();
        Self::from_scores(rows, cols, k, |i, buf| {
            buf.copy_from_slice(&data[i * cols..(i + 1) * cols]);
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of (logical, dense) columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Retained columns per row.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total retained entries (`rows * k`).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The retained columns of row `i`, ascending.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.col_idx[i * self.k..(i + 1) * self.k]
    }

    /// A `[rows, k]` tensor with 1 where the retained column equals the row
    /// index (a self-loop slot) and 0 elsewhere. Multiplying it by
    /// `1 − rowsum(masked_softmax)` realizes the dead-row self-loop
    /// fallback without leaving the tape.
    pub fn self_indicator(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.k]);
        for i in 0..self.rows {
            for (j, &c) in self.row_cols(i).iter().enumerate() {
                if c as usize == i {
                    out.data_mut()[i * self.k + j] = 1.0;
                }
            }
        }
        out
    }

    /// Scatters pattern values (`[rows, k]` or `[batch, rows, k]`) into a
    /// dense `[.., rows, cols]` tensor — the densified sparse operand, used
    /// by parity tests and the probe.
    pub fn scatter_to_dense(&self, vals: &Tensor) -> Tensor {
        let batch = match vals.shape() {
            [r, k] => {
                assert_eq!((*r, *k), (self.rows, self.k), "vals {:?} off-pattern", vals.shape());
                1
            }
            [b, r, k] => {
                assert_eq!((*r, *k), (self.rows, self.k), "vals {:?} off-pattern", vals.shape());
                *b
            }
            s => panic!("scatter_to_dense requires rank 2 or 3 values, got {s:?}"),
        };
        let mut shape = vals.shape().to_vec();
        *shape.last_mut().unwrap() = self.cols;
        let mut out = Tensor::zeros(&shape);
        for b in 0..batch {
            for i in 0..self.rows {
                for (j, &c) in self.row_cols(i).iter().enumerate() {
                    out.data_mut()[(b * self.rows + i) * self.cols + c as usize] =
                        vals.data()[(b * self.rows + i) * self.k + j];
                }
            }
        }
        out
    }
}

/// Columns per chunk of the selection's first pass.
const SELECT_CHUNK: usize = 16;

/// Orders scores as integers: a larger score gets a larger key, `-0.0` and
/// `0.0` share one, and NaN gets 0, below every number.
#[inline]
fn score_key(s: f32) -> u32 {
    let bits = (s + 0.0).to_bits();
    let key = if (bits as i32) < 0 { !bits } else { bits | 1 << 31 };
    if s.is_nan() {
        0
    } else {
        key
    }
}

/// The largest score of a column chunk, NaN skipped (−∞ when every entry is
/// NaN). Full chunks run at a fixed width, which vectorises.
#[inline]
fn chunk_max(chunk: &[f32]) -> f32 {
    let max = |m: f32, &s: &f32| if s > m { s } else { m };
    match <&[f32; SELECT_CHUNK]>::try_from(chunk) {
        Ok(full) => full.iter().fold(f32::NEG_INFINITY, max),
        Err(_) => chunk.iter().fold(f32::NEG_INFINITY, max),
    }
}

/// Exact top-k selection for the rows of one band, reusing its buffers
/// from row to row.
struct TopkSelect {
    /// Key of each column chunk's largest score.
    chunk_max: Vec<u32>,
    /// Working copy of `chunk_max` for the floor selection.
    floor_pick: Vec<u32>,
    /// Candidates as `key << 32 | !column`: a larger entry ranks higher, and
    /// of two equal scores the smaller column does.
    cand: Vec<u64>,
}

impl TopkSelect {
    fn new(cols: usize, k: usize) -> Self {
        let chunks = cols.div_ceil(SELECT_CHUNK);
        Self {
            chunk_max: Vec::with_capacity(chunks),
            floor_pick: Vec::with_capacity(chunks),
            cand: Vec::with_capacity((4 * k).min(cols)),
        }
    }

    /// Selects row `row` into `out` (`k` columns, ascending). Keeps the `k`
    /// largest scores (value descending, ties toward the smaller column, NaN
    /// below every number), except for dead rows (no score > 0), which keep
    /// the diagonal plus the smallest other columns.
    ///
    /// Live rows take two passes. The first finds a floor no top-k score
    /// lies below: the `k` largest chunk maxima are `k` distinct scores, so
    /// the k-th largest score is at least the k-th largest chunk maximum.
    /// The second collects the scores at or above that floor, usually
    /// little more than `k`, and selects exactly among them.
    fn select_row(&mut self, row: usize, scores: &[f32], out: &mut [u32]) {
        let k = out.len();
        if !scores.iter().any(|&s| s > 0.0) {
            // Diagonal first, then the smallest other columns.
            let mut w = 0;
            out[w] = row as u32;
            w += 1;
            let mut c = 0u32;
            while w < k {
                if c as usize != row {
                    out[w] = c;
                    w += 1;
                }
                c += 1;
            }
        } else {
            self.chunk_max.clear();
            self.chunk_max.extend(scores.chunks(SELECT_CHUNK).map(|c| score_key(chunk_max(c))));
            let mut floor = 0;
            if self.chunk_max.len() >= k {
                self.floor_pick.clear();
                self.floor_pick.extend_from_slice(&self.chunk_max);
                let last = self.floor_pick.len() - k;
                let kth = *self.floor_pick.select_nth_unstable(last).1;
                // A chunk of NaNs also reports −∞, so that floor proves
                // nothing and every column stays a candidate.
                if kth > score_key(f32::NEG_INFINITY) {
                    floor = kth;
                }
            }
            self.cand.clear();
            let chunks = scores.chunks(SELECT_CHUNK).zip(&self.chunk_max).enumerate();
            for (ci, (chunk, _)) in chunks.filter(|(_, (_, &m))| m >= floor) {
                for (o, &s) in chunk.iter().enumerate() {
                    let key = score_key(s);
                    if key >= floor {
                        let col = (ci * SELECT_CHUNK + o) as u32;
                        self.cand.push(u64::from(key) << 32 | u64::from(!col));
                    }
                }
            }
            if self.cand.len() > k {
                self.cand.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
            }
            for (o, &e) in out.iter_mut().zip(&self.cand) {
                *o = !(e as u32);
            }
        }
        out.sort_unstable();
    }
}

// ==================================================== pattern kernels

/// Asserts `t` is `[.., rows, inner]` on `pat`'s rows, returning the batch.
fn pattern_batch(t: &Tensor, pat: &TopkPattern, inner: usize, what: &str) -> usize {
    match t.shape() {
        [r, i] if *r == pat.rows() && *i == inner => 1,
        [b, r, i] if *r == pat.rows() && *i == inner => *b,
        s => panic!("{what}: shape {s:?} does not match pattern rows {} × {inner}", pat.rows()),
    }
}

/// Pattern-restricted score gather: `out[.., i, j] = ⟨a[.., i, :], b[.., cols(i,j), :]⟩`.
///
/// `a` is `[rows, e]` / `[batch, rows, e]`, `b` is `[cols, e]` /
/// `[batch, cols, e]` (ranks must match); `out` is `[.., rows, k]`. This is
/// both the forward of the pattern-restricted attention scores and the
/// value-gradient of [`topk_spmm_into`].
pub fn topk_gather_dot_into(a: &Tensor, b: &Tensor, pat: &TopkPattern, out: &mut Tensor) {
    let e = *a.shape().last().expect("gather: scalar operand");
    assert_eq!(a.rank(), b.rank(), "gather: rank {} vs {}", a.rank(), b.rank());
    let batch = pattern_batch(a, pat, e, "topk_gather_dot a");
    let bn = b.shape()[b.rank() - 2];
    assert_eq!(bn, pat.cols(), "gather: b has {bn} rows for pattern cols {}", pat.cols());
    assert_eq!(*b.shape().last().unwrap(), e, "gather: inner dims differ");
    let (rows, k) = (pat.rows(), pat.k());
    let mut shape = a.shape().to_vec();
    *shape.last_mut().unwrap() = k;
    out.data.clear();
    out.data.resize(batch * rows * k, 0.0);
    out.reset_shape(&shape);
    let parallel = batch * rows * k * e >= SPARSE_PAR_MIN_WORK;
    for bt in 0..batch {
        let ab = &a.data()[bt * rows * e..(bt + 1) * rows * e];
        let bb = &b.data()[bt * pat.cols() * e..(bt + 1) * pat.cols() * e];
        let ob = &mut out.data[bt * rows * k..(bt + 1) * rows * k];
        let body = |band_idx: usize, band: &mut [f32]| {
            let r0 = band_idx * ROW_BAND;
            for (r, row_out) in band.chunks_mut(k).enumerate() {
                let i = r0 + r;
                let ai = &ab[i * e..(i + 1) * e];
                for (j, &c) in pat.row_cols(i).iter().enumerate() {
                    let bc = &bb[c as usize * e..(c as usize + 1) * e];
                    row_out[j] = ai.iter().zip(bc).map(|(&x, &y)| x * y).sum();
                }
            }
        };
        if parallel {
            ob.par_chunks_mut(ROW_BAND * k).enumerate().for_each(|(bi, band)| body(bi, band));
        } else {
            ob.chunks_mut(ROW_BAND * k).enumerate().for_each(|(bi, band)| body(bi, band));
        }
    }
}

/// Batch-summed variant of [`topk_gather_dot_into`]: `a`/`b` are rank 3,
/// `out` is `[rows, k]` with the batch axis reduced. This is the
/// value-gradient of a broadcast (rank-2 values) [`topk_spmm_into`].
pub fn topk_gather_dot_reduce_into(a: &Tensor, b: &Tensor, pat: &TopkPattern, out: &mut Tensor) {
    assert_eq!(a.rank(), 3, "gather_reduce: rank-3 operands required, got {:?}", a.shape());
    let e = *a.shape().last().unwrap();
    let batch = pattern_batch(a, pat, e, "topk_gather_dot_reduce a");
    let (rows, k) = (pat.rows(), pat.k());
    out.data.clear();
    out.data.resize(rows * k, 0.0);
    out.reset_shape(&[rows, k]);
    for bt in 0..batch {
        let ab = &a.data()[bt * rows * e..(bt + 1) * rows * e];
        let bb = &b.data()[bt * pat.cols() * e..(bt + 1) * pat.cols() * e];
        for i in 0..rows {
            let ai = &ab[i * e..(i + 1) * e];
            for (j, &c) in pat.row_cols(i).iter().enumerate() {
                let bc = &bb[c as usize * e..(c as usize + 1) * e];
                let dot: f32 = ai.iter().zip(bc).map(|(&x, &y)| x * y).sum();
                out.data[i * k + j] += dot;
            }
        }
    }
}

/// Dense-out product of pattern values with a dense signal:
/// `out[.., i, :] = Σⱼ vals[.., i, j] · x[.., cols(i,j), :]`.
///
/// `vals` is `[rows, k]` or `[batch, rows, k]`; `x` is `[cols, c]` or
/// `[batch, cols, c]`. Rank-2 values broadcast over a batched signal. This
/// is both the forward sparse support application and the left-gradient of
/// [`topk_gather_dot_into`].
pub fn topk_spmm_into(vals: &Tensor, x: &Tensor, pat: &TopkPattern, out: &mut Tensor) {
    let t0 = spmm_clock();
    let k = pat.k();
    let vals_batch = pattern_batch(vals, pat, k, "topk_spmm vals");
    let c = *x.shape().last().expect("spmm: scalar signal");
    let (batch, x3) = match x.shape() {
        [n, cc] if *n == pat.cols() && *cc == c => (1, false),
        [b, n, cc] if *n == pat.cols() && *cc == c => (*b, true),
        s => panic!("topk_spmm: signal {s:?} does not match pattern cols {}", pat.cols()),
    };
    assert!(
        vals_batch == 1 || vals_batch == batch,
        "topk_spmm: values batch {vals_batch} vs signal batch {batch}"
    );
    let rows = pat.rows();
    let out_shape: Vec<usize> = if x3 { vec![batch, rows, c] } else { vec![rows, c] };
    out.data.clear();
    out.data.resize(batch * rows * c, 0.0);
    out.reset_shape(&out_shape);
    let parallel = batch * rows * k * c >= SPARSE_PAR_MIN_WORK;
    for bt in 0..batch {
        let vb = if vals_batch == 1 {
            vals.data()
        } else {
            &vals.data()[bt * rows * k..(bt + 1) * rows * k]
        };
        let xb = &x.data()[bt * pat.cols() * c..(bt + 1) * pat.cols() * c];
        let ob = &mut out.data[bt * rows * c..(bt + 1) * rows * c];
        let body = |band_idx: usize, band: &mut [f32]| {
            let r0 = band_idx * ROW_BAND;
            for (r, row_out) in band.chunks_mut(c).enumerate() {
                let i = r0 + r;
                for (j, &col) in pat.row_cols(i).iter().enumerate() {
                    let v = vb[i * k + j];
                    let xr = &xb[col as usize * c..(col as usize + 1) * c];
                    for (o, &xv) in row_out.iter_mut().zip(xr) {
                        *o += v * xv;
                    }
                }
            }
        };
        if parallel {
            ob.par_chunks_mut(ROW_BAND * c).enumerate().for_each(|(bi, band)| body(bi, band));
        } else {
            ob.chunks_mut(ROW_BAND * c).enumerate().for_each(|(bi, band)| body(bi, band));
        }
    }
    record_spmm(batch * rows, batch * rows * k, t0);
}

/// Scatter-adjoint of [`topk_spmm_into`]:
/// `out[.., cols(i,j), :] += vals[.., i, j] · src[.., i, :]`, `out` zeroed
/// first to shape `[.., pat.cols, c]`.
///
/// This is the signal-gradient of the sparse support application and the
/// right-gradient of [`topk_gather_dot_into`] — gradients land **only** in
/// the retained entries' columns. Rows race on the output, so the kernel
/// stays serial over rows and parallelizes over the batch.
pub fn topk_scatter_into(vals: &Tensor, src: &Tensor, pat: &TopkPattern, out: &mut Tensor) {
    let k = pat.k();
    let vals_batch = pattern_batch(vals, pat, k, "topk_scatter vals");
    let c = *src.shape().last().expect("scatter: scalar source");
    let batch = pattern_batch(src, pat, c, "topk_scatter src");
    assert!(
        vals_batch == 1 || vals_batch == batch,
        "topk_scatter: values batch {vals_batch} vs source batch {batch}"
    );
    let rows = pat.rows();
    let mut out_shape = src.shape().to_vec();
    out_shape[src.rank() - 2] = pat.cols();
    out.data.clear();
    out.data.resize(batch * pat.cols() * c, 0.0);
    out.reset_shape(&out_shape);
    let parallel = batch > 1 && batch * rows * k * c >= SPARSE_PAR_MIN_WORK;
    let body = |bt: usize, ob: &mut [f32]| {
        let vb = if vals_batch == 1 {
            vals.data()
        } else {
            &vals.data()[bt * rows * k..(bt + 1) * rows * k]
        };
        let sb = &src.data()[bt * rows * c..(bt + 1) * rows * c];
        for i in 0..rows {
            let sr = &sb[i * c..(i + 1) * c];
            for (j, &col) in pat.row_cols(i).iter().enumerate() {
                let v = vb[i * k + j];
                let or = &mut ob[col as usize * c..(col as usize + 1) * c];
                for (o, &sv) in or.iter_mut().zip(sr) {
                    *o += v * sv;
                }
            }
        }
    };
    if parallel {
        out.data.par_chunks_mut(pat.cols() * c).enumerate().for_each(|(bt, ob)| body(bt, ob));
    } else {
        out.data.chunks_mut(pat.cols() * c).enumerate().for_each(|(bt, ob)| body(bt, ob));
    }
}

/// Masked, renormalized softmax over the **last axis**: entries whose mask
/// is > 0 get `exp(logit − max)` renormalized over the surviving set;
/// masked entries are exactly 0; fully masked slices collapse to all
/// zeros (callers add an explicit fallback, e.g. a self-loop).
///
/// `logits` and `mask` must share a shape. This replaces the plain softmax
/// in `Damgn::static_b`, where a ReLU-pruned row previously densified into
/// a uniform `1/N` row.
pub fn masked_softmax_into(logits: &Tensor, mask: &Tensor, out: &mut Tensor) {
    assert_eq!(
        logits.shape(),
        mask.shape(),
        "masked_softmax: logits {:?} vs mask {:?}",
        logits.shape(),
        mask.shape()
    );
    assert!(logits.rank() >= 1, "masked_softmax requires rank >= 1");
    let inner = *logits.shape().last().unwrap();
    let outer = logits.numel() / inner.max(1);
    out.data.clear();
    out.data.resize(logits.numel(), 0.0);
    out.reset_shape(logits.shape());
    for o in 0..outer {
        let base = o * inner;
        let lg = &logits.data()[base..base + inner];
        let mk = &mask.data()[base..base + inner];
        let ot = &mut out.data[base..base + inner];
        let mut mx = f32::NEG_INFINITY;
        for (l, m) in lg.iter().zip(mk) {
            if *m > 0.0 {
                mx = mx.max(*l);
            }
        }
        if mx == f32::NEG_INFINITY {
            continue; // fully masked slice: all zeros
        }
        let mut denom = 0.0f32;
        for ((l, m), v) in lg.iter().zip(mk).zip(ot.iter_mut()) {
            if *m > 0.0 {
                let e = (l - mx).exp();
                *v = e;
                denom += e;
            }
        }
        for v in ot.iter_mut() {
            *v /= denom;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn csr_from_dense_roundtrip() {
        let d = dense(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 3.0], &[0.0, 0.0, 0.0]]);
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 3);
        assert!(s.to_dense().allclose(&d, 0.0));
        assert_eq!(s.iter_row(1).collect::<Vec<_>>(), vec![(0, 1.0), (2, 3.0)]);
    }

    #[test]
    fn csr_transpose_matches_dense_transpose() {
        let d = dense(&[&[0.0, 2.0, 0.0, 5.0], &[1.0, 0.0, 3.0, 0.0]]);
        let t = CsrMatrix::from_dense(&d).transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 2);
        assert!(t.to_dense().allclose(&d.transpose(), 0.0));
    }

    #[test]
    fn csr_spmm_matches_dense_matmul() {
        let d = dense(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 3.0]]);
        let x = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]);
        let s = CsrMatrix::from_dense(&d);
        assert!(s.spmm(&x).allclose(&d.matmul(&x), 0.0));
        // Batched signal.
        let xb = Tensor::from_vec((0..12).map(|v| v as f32 - 5.0).collect(), &[2, 3, 2]);
        let yb = s.spmm(&xb);
        assert_eq!(yb.shape(), &[2, 2, 2]);
        assert!(yb.allclose(&d.matmul_broadcast_left(&xb), 0.0));
    }

    #[test]
    fn csr_from_rows_sorts_and_rejects_duplicates() {
        let s = CsrMatrix::from_rows(1, 4, &[vec![(3, 1.0), (0, 2.0)]]);
        assert_eq!(s.row(0).0, &[0, 3]);
        let bad =
            std::panic::catch_unwind(|| CsrMatrix::from_rows(1, 4, &[vec![(1, 1.0), (1, 2.0)]]));
        assert!(bad.is_err());
    }

    #[test]
    fn topk_selects_largest_with_ascending_columns() {
        let d = dense(&[&[0.1, 5.0, 3.0, 4.0], &[9.0, 0.2, 8.0, 0.3]]);
        let p = TopkPattern::from_dense_topk(&d, 2);
        assert_eq!(p.row_cols(0), &[1, 3]);
        assert_eq!(p.row_cols(1), &[0, 2]);
    }

    #[test]
    fn topk_ties_break_toward_smaller_column() {
        let d = dense(&[&[2.0, 2.0, 2.0, 1.0]]);
        let p = TopkPattern::from_dense_topk(&d, 2);
        assert_eq!(p.row_cols(0), &[0, 1]);
    }

    #[test]
    fn topk_dead_row_keeps_diagonal() {
        let d = dense(&[&[0.0, 0.0, 0.0], &[0.0, 0.0, 7.0], &[0.0, 0.0, 0.0]]);
        let p = TopkPattern::from_dense_topk(&d, 2);
        assert_eq!(p.row_cols(0), &[0, 1]);
        assert_eq!(p.row_cols(2), &[0, 2]); // diagonal 2 retained
        assert_eq!(p.self_indicator().at(&[2, 1]), 1.0);
        assert_eq!(p.self_indicator().at(&[0, 0]), 1.0);
    }

    #[test]
    fn topk_full_width_is_identity_pattern() {
        let d = dense(&[&[3.0, 1.0, 2.0], &[0.5, 0.25, 0.75], &[1.0, 1.0, 1.0]]);
        let p = TopkPattern::from_dense_topk(&d, 3);
        for i in 0..3 {
            assert_eq!(p.row_cols(i), &[0, 1, 2]);
        }
        let s = CsrMatrix::from_topk(&d, 3);
        assert!(s.to_dense().allclose(&d, 0.0));
    }

    #[test]
    fn gather_dot_matches_dense_scores() {
        let a = Tensor::from_vec((0..8).map(|v| v as f32 - 3.0).collect(), &[4, 2]);
        let b = Tensor::from_vec((0..8).map(|v| (v % 3) as f32).collect(), &[4, 2]);
        let scores = a.matmul_nt(&b); // [4, 4]
        let p = TopkPattern::from_dense_topk(&scores, 4);
        let mut out = Tensor::default();
        topk_gather_dot_into(&a, &b, &p, &mut out);
        assert!(out.allclose(&scores, 0.0));
    }

    #[test]
    fn gather_dot_batched_matches_bmm_nt() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32 - 5.0).collect(), &[2, 3, 2]);
        let b = Tensor::from_vec((0..12).map(|v| (v % 4) as f32).collect(), &[2, 3, 2]);
        let scores = a.bmm_nt(&b); // [2, 3, 3]
        let p = TopkPattern::from_scores(3, 3, 3, |i, buf| {
            buf.copy_from_slice(&scores.data()[i * 3..(i + 1) * 3]);
        });
        let mut out = Tensor::default();
        topk_gather_dot_into(&a, &b, &p, &mut out);
        assert!(out.allclose(&scores, 0.0));
    }

    #[test]
    fn spmm_full_pattern_matches_dense_bitwise() {
        // Integer-valued inputs: both paths compute exact sums, so the
        // full-width pattern must reproduce the dense product bitwise.
        let w = dense(&[&[1.0, -2.0, 3.0], &[0.0, 4.0, -1.0], &[2.0, 2.0, 2.0]]);
        let x = Tensor::from_vec((0..6).map(|v| v as f32 - 2.0).collect(), &[3, 2]);
        let p = TopkPattern::from_dense_topk(&w, 3);
        let vals = {
            let mut v = Tensor::zeros(&[3, 3]);
            for i in 0..3 {
                for (j, &c) in p.row_cols(i).iter().enumerate() {
                    v.data_mut()[i * 3 + j] = w.at(&[i, c as usize]);
                }
            }
            v
        };
        let mut out = Tensor::default();
        topk_spmm_into(&vals, &x, &p, &mut out);
        let reference = w.matmul(&x);
        assert_eq!(out.data(), reference.data());
    }

    #[test]
    fn spmm_broadcast_vals_over_batched_signal() {
        let w = dense(&[&[1.0, 0.0], &[3.0, -1.0]]);
        let p = TopkPattern::from_dense_topk(&w, 2);
        let vals = Tensor::from_vec(vec![1.0, 0.0, 3.0, -1.0], &[2, 2]);
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 2, 2]);
        let mut out = Tensor::default();
        topk_spmm_into(&vals, &x, &p, &mut out);
        assert!(out.allclose(&w.matmul_broadcast_left(&x), 0.0));
    }

    #[test]
    fn scatter_is_adjoint_of_spmm() {
        // ⟨spmm(vals, x), s⟩ == ⟨x, scatter(vals, s)⟩ for any s.
        let w = dense(&[&[1.0, 2.0, 0.0], &[0.0, -1.0, 3.0], &[4.0, 0.0, 1.0]]);
        let p = TopkPattern::from_dense_topk(&w, 2);
        let vals = Tensor::from_vec((1..=6).map(|v| v as f32).collect(), &[3, 2]);
        let x = Tensor::from_vec((0..6).map(|v| v as f32 - 2.0).collect(), &[3, 2]);
        let s = Tensor::from_vec((0..6).map(|v| (v % 3) as f32 + 1.0).collect(), &[3, 2]);
        let mut y = Tensor::default();
        topk_spmm_into(&vals, &x, &p, &mut y);
        let mut xt = Tensor::default();
        topk_scatter_into(&vals, &s, &p, &mut xt);
        let lhs: f32 = y.data().iter().zip(s.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(xt.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn gather_reduce_sums_batches() {
        let a = Tensor::ones(&[2, 3, 2]);
        let b = Tensor::ones(&[2, 3, 2]);
        let p = TopkPattern::from_dense_topk(&Tensor::ones(&[3, 3]), 2);
        let mut out = Tensor::default();
        topk_gather_dot_reduce_into(&a, &b, &p, &mut out);
        assert_eq!(out.shape(), &[3, 2]);
        // Each dot is 2 (inner dim), summed over 2 batches = 4.
        assert!(out.allclose(&Tensor::full(&[3, 2], 4.0), 0.0));
    }

    #[test]
    fn masked_softmax_renormalizes_over_survivors() {
        let lg = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let mk = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[1, 4]);
        let mut out = Tensor::default();
        masked_softmax_into(&lg, &mk, &mut out);
        assert_eq!(out.data()[1], 0.0);
        assert_eq!(out.data()[3], 0.0);
        let sum = out.data()[0] + out.data()[2];
        assert!((sum - 1.0).abs() < 1e-6);
        // Survivors keep softmax ratios: e^1 / e^3.
        assert!((out.data()[0] / out.data()[2] - (-2.0f32).exp()).abs() < 1e-6);
    }

    #[test]
    fn masked_softmax_fully_masked_row_is_zero_not_uniform() {
        let lg = Tensor::from_vec(vec![0.0, 0.0, 0.0, 5.0, 1.0, 0.0], &[2, 3]);
        let mk = lg.clone();
        let mut out = Tensor::default();
        masked_softmax_into(&lg, &mk, &mut out);
        assert_eq!(&out.data()[..3], &[0.0, 0.0, 0.0], "dead row must stay empty");
        let live: f32 = out.data()[3..].iter().sum();
        assert!((live - 1.0).abs() < 1e-6);
        assert_eq!(out.data()[5], 0.0);
    }

    #[test]
    fn masked_softmax_unmasked_matches_plain_softmax() {
        let lg = Tensor::from_vec(vec![0.5, 1.5, -1.0, 2.0, 0.0, 1.0], &[2, 3]);
        let mk = Tensor::ones(&[2, 3]);
        let mut out = Tensor::default();
        masked_softmax_into(&lg, &mk, &mut out);
        assert!(out.allclose(&lg.softmax(-1), 1e-7));
    }

    #[test]
    fn scatter_to_dense_inverts_gather() {
        let w = dense(&[&[0.0, 7.0, 0.0], &[5.0, 0.0, 6.0], &[0.0, 0.0, 9.0]]);
        let p = TopkPattern::from_dense_topk(&w, 1);
        let mut vals = Tensor::zeros(&[3, 1]);
        for i in 0..3 {
            vals.data_mut()[i] = w.at(&[i, p.row_cols(i)[0] as usize]);
        }
        let d = p.scatter_to_dense(&vals);
        assert_eq!(d.at(&[0, 1]), 7.0);
        assert_eq!(d.at(&[1, 2]), 6.0);
        assert_eq!(d.at(&[2, 2]), 9.0);
        assert_eq!(d.at(&[0, 0]), 0.0);
    }
}
