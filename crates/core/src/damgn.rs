//! The Dynamic Adjacency Matrix Generation Network (DAMGN, §V-B).
//!
//! Produces the enhanced adjacency of Eq. 13:
//!
//! ```text
//! A' = λ_A·A + λ_B·B + λ_C·C_t
//! ```
//!
//! * `A` — the distance-derived static adjacency (an input, not learned).
//! * `B = softmax(relu(B₁B₂ᵀ))` (Eq. 15) — a *global adaptive* adjacency
//!   from two `N×M` memory matrices (`M ≪ N`, paper default 10), capturing
//!   static correlations that distances miss, at `2·N·M` parameters instead
//!   of `N²`.
//! * `C_t` (Eq. 16) — a *time-specific* adjacency from the normalized
//!   embedded Gaussian of the current signal:
//!   `C[i,j] = softmax_j(θ(x_t⁽ⁱ⁾)ᵀ φ(x_t⁽ʲ⁾))`, with two distinct linear
//!   embeddings so asymmetric (source vs target) correlations are
//!   representable.
//! * The λ's are **learnable scalars** — "instead of manually tuning them we
//!   decide to let the network learn them"; with `λ_B = λ_C = 0` the module
//!   reduces to ordinary graph convolution over `A`.

use crate::gconv::GcSupport;
use enhancenet_autodiff::{Graph, ParamId, ParamStore, Var};
use enhancenet_tensor::{CsrMatrix, Tensor, TensorRng, TopkPattern};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// DAMGN hyper-parameters. Paper default: `M = 10` for the `B₁`, `B₂`
/// memories; the embedding width of θ/φ defaults to the input feature
/// count.
#[derive(Debug, Clone, Copy)]
pub struct DamgnConfig {
    /// Memory width `M` of `B₁, B₂ ∈ R^{N×M}`.
    pub b_memory_dim: usize,
    /// Embedding dimension of the θ/φ transforms in Eq. 16.
    pub embed_dim: usize,
    /// When set, both the adaptive `B` (Eq. 15) and the time-specific `C_t`
    /// (Eq. 16) are restricted to the `top_k` strongest candidate columns
    /// per row (selected from the `B₁B₂ᵀ` memory scores), turning the
    /// per-hop diffusion from `O(N²)` into `O(N·k)`. `None` keeps the dense
    /// paper formulation; `Some(n)` with `k = N` reproduces it exactly.
    pub top_k: Option<usize>,
}

impl Default for DamgnConfig {
    fn default() -> Self {
        Self { b_memory_dim: 10, embed_dim: 8, top_k: None }
    }
}

/// Per-tape cache produced by [`Damgn::bind`]: the static mix
/// `λ_A·A_s + λ_B·B` per support plus the bound λ_C and θ/φ embeddings.
pub struct DamgnBinding {
    static_parts: Vec<Var>,
    lambda_c: Var,
    theta: Var,
    phi: Var,
}

/// Per-tape cache produced by [`Damgn::bind_sparse`]: the shared top-k
/// candidate pattern, the pre-weighted sparse static values `λ_B·B`
/// (`[N, K]`), and the bound scalars/embeddings the per-timestep sparse
/// supports are assembled from.
///
/// The sub-quadratic path exploits linearity of the diffusion step: for
/// every base support, `A'·x = λ_A·(A_s·x) + ((λ_B·B ⊕ λ_C·C_t)·x)` where
/// `A_s` is a constant CSR matrix and `B`/`C_t` live on one shared top-k
/// pattern, so their values combine elementwise before a single pattern
/// SpMM.
pub struct DamgnSparseBinding {
    pattern: Arc<TopkPattern>,
    /// `λ_B · B` restricted to the pattern, `[N, K]`.
    weighted_b: Var,
    lambda_a: Var,
    lambda_c: Var,
    theta: Var,
    phi: Var,
}

impl DamgnSparseBinding {
    /// The shared top-k candidate pattern.
    pub fn pattern(&self) -> &Arc<TopkPattern> {
        &self.pattern
    }

    /// The pre-weighted sparse static values `λ_B·B`, `[N, K]`.
    pub fn weighted_b(&self) -> Var {
        self.weighted_b
    }
}

/// Version-keyed cache of the folded static component `λ_A·A_s + λ_B·B`
/// (one tensor per base support) and, on the top-k path, of the shared
/// candidate pattern.
///
/// During training the static mix depends on live parameters and must stay
/// on the tape, but between optimizer steps it is constant — recomputing
/// the `B₁ B₂ᵀ` softmax and the per-support folds for every window is pure
/// waste in a serving loop. The cache keys the folded tensors on
/// [`ParamStore::version`], so any weight update (an optimizer step, a
/// checkpoint restore) invalidates it automatically. Cache hits splice the
/// stored values back in as constants — the exact tensors the tracked path
/// produced, so eval outputs are bit-identical with or without the cache.
///
/// The top-k pattern is an index set that carries no gradient, so sparse
/// *training* forwards share it too: the first window tape of a step builds
/// it under the lock (the other shards wait rather than build it again) and
/// stores the same entry an eval forward would, and every later tape of
/// that store version reads it. Dense training forwards return before
/// touching the lock. A `Mutex` (not `RefCell`) so host models stay `Sync`
/// — shard workers in the data-parallel trainer share one
/// `&dyn Forecaster`.
#[derive(Default)]
pub struct StaticFoldCache {
    slot: Mutex<Option<(u64, FoldEntry)>>,
}

/// What a [`StaticFoldCache`] holds: the folded dense static mixes, or the
/// sparse pattern plus folded `λ_B·B` values for the top-k path.
enum FoldEntry {
    Dense(Vec<Tensor>),
    Sparse { pattern: Arc<TopkPattern>, weighted_b: Tensor },
}

impl StaticFoldCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once a folded static component is stored.
    pub fn is_populated(&self) -> bool {
        self.slot.lock().unwrap().is_some()
    }

    /// The stored top-k pattern, when it was built for store `version`
    /// with `k` columns per row.
    pub fn topk_pattern(&self, version: u64, k: usize) -> Option<Arc<TopkPattern>> {
        match self.slot.lock().expect("fold cache poisoned by a panicking forward").as_ref() {
            Some((v, FoldEntry::Sparse { pattern, .. })) if *v == version && pattern.k() == k => {
                Some(pattern.clone())
            }
            _ => None,
        }
    }
}

/// One DAMGN instance: memories for `B`, embeddings for `C_t`, and the
/// mixing weights.
pub struct Damgn {
    b1: ParamId,
    b2: ParamId,
    theta: ParamId,
    phi: ParamId,
    lambda_a: ParamId,
    lambda_b: ParamId,
    lambda_c: ParamId,
    num_entities: usize,
    top_k: Option<usize>,
}

impl Damgn {
    /// Creates a DAMGN for `num_entities` entities with `in_features`
    /// attributes per timestamp. λ_A starts at 1 and λ_B, λ_C at small
    /// positive values, so training starts from (approximately) ordinary
    /// graph convolution.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut TensorRng,
        name: &str,
        num_entities: usize,
        in_features: usize,
        config: DamgnConfig,
    ) -> Self {
        let m = config.b_memory_dim;
        let e = config.embed_dim;
        let bound = 1.0 / (m as f32).sqrt();
        Self {
            b1: store.add(format!("{name}.b1"), rng.uniform(&[num_entities, m], -bound, bound)),
            b2: store.add(format!("{name}.b2"), rng.uniform(&[num_entities, m], -bound, bound)),
            theta: store
                .add(format!("{name}.theta"), rng.xavier(&[in_features, e], in_features, e)),
            phi: store.add(format!("{name}.phi"), rng.xavier(&[in_features, e], in_features, e)),
            lambda_a: store.add(format!("{name}.lambda_a"), Tensor::scalar(1.0)),
            lambda_b: store.add(format!("{name}.lambda_b"), Tensor::scalar(0.1)),
            lambda_c: store.add(format!("{name}.lambda_c"), Tensor::scalar(0.1)),
            num_entities,
            top_k: config.top_k.map(|k| k.min(num_entities)),
        }
    }

    /// The configured per-row candidate budget of the sparse path, when
    /// enabled (clamped to `N` at construction).
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// Eq. 15: the global adaptive adjacency
    /// `B = Softmax(ReLU(B₁ B₂ᵀ)) ∈ [N, N]` (row softmax; ReLU prunes weak
    /// correlations before normalization).
    ///
    /// The softmax renormalizes over the ReLU *survivors* only: pruned
    /// scores are excluded from the distribution rather than entering as
    /// `exp(0) = 1` terms. A plain softmax over the ReLU output would turn
    /// a fully-pruned row into a dense uniform `1/N` row — connecting the
    /// entity to every other entity precisely when the memories found no
    /// correlation at all. Fully-pruned rows instead fall back to an exact
    /// self-loop, matching the `λ_B = 0` reading of Eq. 13 for that entity.
    pub fn static_b(&self, g: &mut Graph, store: &ParamStore) -> Var {
        let _timer = enhancenet_telemetry::span("damgn.static_b");
        enhancenet_telemetry::count("damgn.static_b.calls", 1);
        let b1 = g.param(store, self.b1);
        let b2 = g.param(store, self.b2);
        let raw = g.matmul_nt(b1, b2);
        let act = g.relu(raw);
        let msm = g.masked_softmax(act, act);
        let n = self.num_entities;
        let dead: Vec<usize> = {
            let v = g.value(act);
            (0..n).filter(|&i| v.data()[i * n..(i + 1) * n].iter().all(|&s| s <= 0.0)).collect()
        };
        if dead.is_empty() {
            return msm;
        }
        // Dead rows produce no gradient regardless (their softmax row is
        // identically zero), so the self-loop is a trace-time constant.
        enhancenet_telemetry::count("damgn.static_b.fallback_rows", dead.len() as u64);
        let mut fallback = vec![0.0f32; n * n];
        for &i in &dead {
            fallback[i * n + i] = 1.0;
        }
        let fb = g.constant(Tensor::from_vec(fallback, &[n, n]));
        g.add(msm, fb)
    }

    /// Eq. 16: the time-specific adjacency for a batched signal
    /// `x_t ∈ [B, N, C]`:
    /// `C[i,j] = softmax_j(θ(x⁽ⁱ⁾)ᵀ φ(x⁽ʲ⁾))`, returned as `[B, N, N]`.
    pub fn dynamic_c(&self, g: &mut Graph, store: &ParamStore, x_t: Var) -> Var {
        assert_eq!(g.value(x_t).rank(), 3, "dynamic_c expects [B, N, C]");
        let _timer = enhancenet_telemetry::span("damgn.dynamic_c");
        enhancenet_telemetry::count("damgn.dynamic_c.calls", 1);
        let th = g.param(store, self.theta);
        let ph = g.param(store, self.phi);
        let q = g.matmul_broadcast_right(x_t, th); // [B, N, E]
        let k = g.matmul_broadcast_right(x_t, ph); // [B, N, E]
        let logits = g.bmm_nt(q, k); // [B, N, N], fused q·kᵀ
        g.softmax(logits, -1)
    }

    /// Eq. 16 restricted to `pattern`: gathered embedded-Gaussian scores,
    /// softmax over the `K` candidates per row, returned as `[B, N, K]`
    /// values on the shared pattern. At `k = N` this is exactly the dense
    /// [`Damgn::dynamic_c`].
    pub fn dynamic_c_topk(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x_t: Var,
        pattern: &Arc<TopkPattern>,
    ) -> Var {
        assert_eq!(g.value(x_t).rank(), 3, "dynamic_c expects [B, N, C]");
        let _timer = enhancenet_telemetry::span("damgn.dynamic_c");
        enhancenet_telemetry::count("damgn.dynamic_c.calls", 1);
        let th = g.param(store, self.theta);
        let ph = g.param(store, self.phi);
        let q = g.matmul_broadcast_right(x_t, th); // [B, N, E]
        let k = g.matmul_broadcast_right(x_t, ph); // [B, N, E]
        let logits = g.gather_dot_nt(q, k, pattern.clone()); // [B, N, K]
        g.softmax(logits, -1)
    }

    /// Eq. 13/14: the combined adjacency
    /// `A' = λ_A·A + λ_B·B + λ_C·C_t` as a batched `[B, N, N]` tensor
    /// (the static terms broadcast over the batch).
    ///
    /// `a` is the distance-based adjacency bound as a constant/leaf; pass
    /// the *normalized* support the host model would otherwise convolve
    /// with.
    pub fn combined(&self, g: &mut Graph, store: &ParamStore, a: Var, x_t: Var) -> Var {
        let la = g.param(store, self.lambda_a);
        let lb = g.param(store, self.lambda_b);
        let lc = g.param(store, self.lambda_c);
        let b = self.static_b(g, store);
        let c = self.dynamic_c(g, store, x_t);
        let wa = g.mul(la, a); // [N,N] broadcast with scalar
        let wb = g.mul(lb, b);
        let static_part = g.add(wa, wb); // [N, N]
        let wc = g.mul(lc, c); // [B, N, N]
        g.add(wc, static_part) // broadcast to [B, N, N]
    }

    /// Binds the DAMGN once per tape for reuse across timesteps: computes
    /// `λ_A·A_s + λ_B·B` for each base support and binds the θ/φ
    /// embeddings and λ_C, so each timestep only pays for `C_t` (Eq. 16)
    /// and one add.
    pub fn bind(&self, g: &mut Graph, store: &ParamStore, base_supports: &[Var]) -> DamgnBinding {
        let _timer = enhancenet_telemetry::span("damgn.bind");
        enhancenet_telemetry::count("damgn.bind.calls", 1);
        let la = g.param(store, self.lambda_a);
        let lb = g.param(store, self.lambda_b);
        let lc = g.param(store, self.lambda_c);
        let b = self.static_b(g, store);
        let wb = g.mul(lb, b);
        let static_parts = base_supports
            .iter()
            .map(|&a| {
                let wa = g.mul(la, a);
                g.add(wa, wb)
            })
            .collect();
        DamgnBinding {
            static_parts,
            lambda_c: lc,
            theta: g.param(store, self.theta),
            phi: g.param(store, self.phi),
        }
    }

    /// [`Damgn::bind`] with the static fold served from `cache` on eval
    /// paths.
    ///
    /// Training forwards always take the tracked path (gradients must flow
    /// through λ_A, λ_B and the memories). Eval forwards reuse the cached
    /// `λ_A·A_s + λ_B·B` tensors as constants while the store version
    /// matches, recomputing (and re-caching) after any weight change.
    /// Telemetry: `damgn.fold.hits` / `damgn.fold.misses`.
    pub fn bind_cached(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        base_supports: &[Var],
        cache: &StaticFoldCache,
        training: bool,
    ) -> DamgnBinding {
        if training {
            return self.bind(g, store, base_supports);
        }
        let mut slot = cache.slot.lock().unwrap();
        if let Some((version, FoldEntry::Dense(parts))) = slot.as_ref() {
            if *version == store.version() && parts.len() == base_supports.len() {
                enhancenet_telemetry::count("damgn.fold.hits", 1);
                return DamgnBinding {
                    static_parts: parts.iter().map(|t| g.constant(t.clone())).collect(),
                    lambda_c: g.param(store, self.lambda_c),
                    theta: g.param(store, self.theta),
                    phi: g.param(store, self.phi),
                };
            }
        }
        enhancenet_telemetry::count("damgn.fold.misses", 1);
        let binding = self.bind(g, store, base_supports);
        let folded: Vec<Tensor> =
            binding.static_parts.iter().map(|&v| g.value(v).clone()).collect();
        *slot = Some((store.version(), FoldEntry::Dense(folded)));
        binding
    }

    /// Builds the shared top-k candidate pattern from the current `B₁`/`B₂`
    /// memories: row `i` keeps the `k` columns with the largest raw memory
    /// scores `B₁[i]·B₂[j]` (ties to the smaller column, NaN last;
    /// ReLU-dead rows keep their diagonal so the self-loop fallback has a
    /// slot). `O(N²·M)` per build: `B₂` is transposed once, each score row
    /// is computed across all columns at once (`memory_scores`), and rows
    /// run in rayon bands with scratch-pool buffers. Every forward — training
    /// and eval — reaches it through [`Damgn::bind_sparse_cached`], which
    /// builds once per store version. Telemetry: `damgn.topk.*`.
    pub fn topk_pattern(&self, store: &ParamStore, k: usize) -> Arc<TopkPattern> {
        let _timer = enhancenet_telemetry::span("damgn.topk.build");
        let started = enhancenet_telemetry::enabled().then(Instant::now);
        let b1 = store.value(self.b1);
        let b2t = store.value(self.b2).transpose();
        let n = self.num_entities;
        let m = b1.shape()[1];
        let (b1d, b2td) = (b1.data(), b2t.data());
        let pattern = TopkPattern::from_scores(n, n, k.min(n), |i, out| {
            memory_scores(&b1d[i * m..(i + 1) * m], b2td, out);
        });
        if let Some(t0) = started {
            enhancenet_telemetry::count("damgn.topk.build_ns", t0.elapsed().as_nanos() as u64);
            enhancenet_telemetry::count("damgn.topk.builds", 1);
            enhancenet_telemetry::count("damgn.topk.rows", pattern.rows() as u64);
            enhancenet_telemetry::count("damgn.topk.nnz", pattern.nnz() as u64);
        }
        Arc::new(pattern)
    }

    /// Sparse Eq. 15 restricted to `pattern`: gathers the `[N, K]` memory
    /// scores, prunes with ReLU, renormalizes over the survivors with a
    /// masked softmax, and adds the exact self-loop fallback to
    /// fully-pruned rows — the same semantics as the dense
    /// [`Damgn::static_b`], on `O(N·K)` values.
    pub fn static_b_topk(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        pattern: &Arc<TopkPattern>,
    ) -> Var {
        let _timer = enhancenet_telemetry::span("damgn.static_b");
        enhancenet_telemetry::count("damgn.static_b.calls", 1);
        let b1 = g.param(store, self.b1);
        let b2 = g.param(store, self.b2);
        let scores = g.gather_dot_nt(b1, b2, pattern.clone());
        let act = g.relu(scores);
        let msm = g.masked_softmax(act, act);
        let k = pattern.k();
        let dead: Vec<usize> = {
            let v = g.value(act);
            (0..pattern.rows())
                .filter(|&i| v.data()[i * k..(i + 1) * k].iter().all(|&s| s <= 0.0))
                .collect()
        };
        if dead.is_empty() {
            return msm;
        }
        enhancenet_telemetry::count("damgn.static_b.fallback_rows", dead.len() as u64);
        let mut fallback = vec![0.0f32; pattern.rows() * k];
        for &i in &dead {
            // The builder guarantees dead rows retain their diagonal.
            if let Ok(j) = pattern.row_cols(i).binary_search(&(i as u32)) {
                fallback[i * k + j] = 1.0;
            }
        }
        let fb = g.constant(Tensor::from_vec(fallback, &[pattern.rows(), k]));
        g.add(msm, fb)
    }

    /// [`Damgn::bind`] for the sparse path: builds (or receives) the shared
    /// top-k pattern and folds `λ_B·B` on it once per tape, so each
    /// timestep only pays for the sparse `C_t` gather/softmax and one
    /// elementwise combine.
    pub fn bind_sparse(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        pattern: Arc<TopkPattern>,
    ) -> DamgnSparseBinding {
        let _timer = enhancenet_telemetry::span("damgn.bind");
        enhancenet_telemetry::count("damgn.bind.calls", 1);
        let lb = g.param(store, self.lambda_b);
        let b = self.static_b_topk(g, store, &pattern);
        let weighted_b = g.mul(lb, b);
        DamgnSparseBinding {
            pattern,
            weighted_b,
            lambda_a: g.param(store, self.lambda_a),
            lambda_c: g.param(store, self.lambda_c),
            theta: g.param(store, self.theta),
            phi: g.param(store, self.phi),
        }
    }

    /// [`Damgn::bind_sparse`] with the pattern build and `λ_B·B` fold
    /// served from `cache`, keyed on [`ParamStore::version`] exactly like
    /// the dense fold, so the pattern is built once per store version.
    ///
    /// A miss builds the pattern and binds on the tape while holding the
    /// cache lock, then stores both: concurrent shard tapes of the same step
    /// wait for that one build instead of repeating it. A hit serves the
    /// pattern; eval forwards also take the folded `λ_B·B` as a constant,
    /// while training forwards recompute `λ_B·B` on their own tape so
    /// gradients still flow through λ_B and the retained scores (the pattern
    /// itself is an index set with no gradient). Telemetry:
    /// `damgn.fold.hits` / `.misses`.
    pub fn bind_sparse_cached(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        k: usize,
        cache: &StaticFoldCache,
        training: bool,
    ) -> DamgnSparseBinding {
        let mut slot = cache.slot.lock().unwrap();
        if let Some((version, FoldEntry::Sparse { pattern, weighted_b })) = slot.as_ref() {
            if *version == store.version() && pattern.k() == k.min(self.num_entities) {
                enhancenet_telemetry::count("damgn.fold.hits", 1);
                if training {
                    let pattern = pattern.clone();
                    drop(slot);
                    return self.bind_sparse(g, store, pattern);
                }
                return DamgnSparseBinding {
                    pattern: pattern.clone(),
                    weighted_b: g.constant(weighted_b.clone()),
                    lambda_a: g.param(store, self.lambda_a),
                    lambda_c: g.param(store, self.lambda_c),
                    theta: g.param(store, self.theta),
                    phi: g.param(store, self.phi),
                };
            }
        }
        enhancenet_telemetry::count("damgn.fold.misses", 1);
        let pattern = self.topk_pattern(store, k);
        let binding = self.bind_sparse(g, store, pattern);
        *slot = Some((
            store.version(),
            FoldEntry::Sparse {
                pattern: binding.pattern.clone(),
                weighted_b: g.value(binding.weighted_b).clone(),
            },
        ));
        binding
    }

    /// The sparse per-timestep supports: computes the top-k `C_t` once from
    /// `x_t ∈ [B, N, C]` (gathered embedded-Gaussian scores, softmax over
    /// the `K` candidates — exactly Eq. 16 restricted to the pattern, and
    /// exactly Eq. 16 at `k = N`), combines `λ_B·B ⊕ λ_C·C_t` on the shared
    /// pattern, and pairs the result with each CSR base support for the
    /// linearity-split diffusion `λ_A·(A_s·x) + (vals·x)`.
    pub fn sparse_supports_at(
        &self,
        g: &mut Graph,
        binding: &DamgnSparseBinding,
        base: &[(Arc<CsrMatrix>, Arc<CsrMatrix>)],
        x_t: Var,
    ) -> Vec<GcSupport> {
        let _timer = enhancenet_telemetry::span("damgn.dynamic_supports");
        enhancenet_telemetry::count("damgn.dynamic_supports.calls", 1);
        let q = g.matmul_broadcast_right(x_t, binding.theta);
        let k = g.matmul_broadcast_right(x_t, binding.phi);
        let logits = g.gather_dot_nt(q, k, binding.pattern.clone()); // [B, N, K]
        let c = g.softmax(logits, -1);
        let wc = g.mul(binding.lambda_c, c);
        let vals = g.add(wc, binding.weighted_b); // [B, N, K] (B broadcasts)
        base.iter()
            .map(|(csr, csr_t)| GcSupport::SparseDynamic {
                csr: csr.clone(),
                csr_t: csr_t.clone(),
                lambda_a: binding.lambda_a,
                vals,
                pattern: binding.pattern.clone(),
            })
            .collect()
    }

    /// The per-timestep adjacencies `A'_s = λ_A·A_s + λ_B·B + λ_C·C_t`
    /// (one `[B, N, N]` var per base support), computing `C_t` once from
    /// the signal `x_t ∈ [B, N, C]`.
    pub fn dynamic_supports_at(&self, g: &mut Graph, binding: &DamgnBinding, x_t: Var) -> Vec<Var> {
        let _timer = enhancenet_telemetry::span("damgn.dynamic_supports");
        enhancenet_telemetry::count("damgn.dynamic_supports.calls", 1);
        let q = g.matmul_broadcast_right(x_t, binding.theta);
        let k = g.matmul_broadcast_right(x_t, binding.phi);
        let logits = g.bmm_nt(q, k); // fused q·kᵀ
        let c = g.softmax(logits, -1);
        let wc = g.mul(binding.lambda_c, c); // [B, N, N]
        binding.static_parts.iter().map(|&sp| g.add(wc, sp)).collect()
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Parameter ids of (λ_A, λ_B, λ_C), exposed for ablations and reports.
    pub fn lambda_ids(&self) -> (ParamId, ParamId, ParamId) {
        (self.lambda_a, self.lambda_b, self.lambda_c)
    }

    /// Parameter ids of the `B₁`/`B₂` memories (Figure 12 inspection).
    pub fn b_memory_ids(&self) -> (ParamId, ParamId) {
        (self.b1, self.b2)
    }

    /// Additional parameters DAMGN introduces: `2·N·M` memories, `2·C·E`
    /// embeddings, 3 lambdas (§V-B's scalability argument).
    pub fn parameter_formula(n: usize, c: usize, cfg: DamgnConfig) -> usize {
        2 * n * cfg.b_memory_dim + 2 * c * cfg.embed_dim + 3
    }
}

/// One row of raw memory scores, `out[j] = Σ_m bi[m]·b2t[m, j]`, with
/// `b2t = B₂ᵀ` as `[M, N]`. The loop runs across the columns `j`, so it
/// vectorises, while each score still adds its products in ascending `m`
/// starting from `-0.0`, as the iterator sum `bi·bj` over `zip` does, and
/// so has the same bits. (A toolchain whose `Sum` starts from `0.0` differs
/// at most in the sign of an exact zero, which ranks the same.)
fn memory_scores(bi: &[f32], b2t: &[f32], out: &mut [f32]) {
    out.fill(-0.0);
    for (&a, b_row) in bi.iter().zip(b2t.chunks_exact(out.len())) {
        for (o, &b) in out.iter_mut().zip(b_row) {
            *o += a * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: usize, c: usize) -> (ParamStore, Damgn) {
        let mut store = ParamStore::new();
        let mut rng = TensorRng::seed(3);
        let d = Damgn::new(&mut store, &mut rng, "damgn", n, c, DamgnConfig::default());
        (store, d)
    }

    #[test]
    fn static_b_rows_are_distributions() {
        let (store, d) = make(6, 2);
        let mut g = Graph::new();
        let b = d.static_b(&mut g, &store);
        assert_eq!(g.value(b).shape(), &[6, 6]);
        let sums = g.value(b).sum_axis(-1);
        assert!(sums.data().iter().all(|&s| (s - 1.0).abs() < 1e-5));
        assert!(g.value(b).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn dynamic_c_shape_and_rows() {
        let (store, d) = make(4, 3);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(9);
        let x = g.constant(rng.normal(&[2, 4, 3], 0.0, 1.0));
        let c = d.dynamic_c(&mut g, &store, x);
        assert_eq!(g.value(c).shape(), &[2, 4, 4]);
        let sums = g.value(c).sum_axis(-1);
        assert!(sums.data().iter().all(|&s| (s - 1.0).abs() < 1e-5));
    }

    #[test]
    fn dynamic_c_changes_with_input() {
        // The defining property: the adjacency is time-specific.
        let (store, d) = make(4, 2);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(1);
        let x1 = g.constant(rng.normal(&[1, 4, 2], 0.0, 1.0));
        let x2 = g.constant(rng.normal(&[1, 4, 2], 0.0, 1.0));
        let c1 = d.dynamic_c(&mut g, &store, x1);
        let c2 = d.dynamic_c(&mut g, &store, x2);
        assert!(!g.value(c1).allclose(g.value(c2), 1e-4));
    }

    #[test]
    fn dynamic_c_can_be_asymmetric() {
        // θ ≠ φ means C[i,j] ≠ C[j,i] in general — the paper's motivation
        // for two embedding functions.
        let (store, d) = make(3, 2);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.5, -0.5], &[1, 3, 2]));
        let c = d.dynamic_c(&mut g, &store, x);
        let v = g.value(c);
        let asym = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .any(|(i, j)| i < j && (v.at(&[0, i, j]) - v.at(&[0, j, i])).abs() > 1e-6);
        assert!(asym, "C was exactly symmetric");
    }

    #[test]
    fn combined_reduces_to_a_when_lambdas_zero() {
        // "when λ_B and λ_C are 0, it reduces to a normal graph
        // convolution" — the paper's sanity property.
        let (mut store, d) = make(4, 2);
        *store.value_mut(d.lambda_ids().1) = Tensor::scalar(0.0);
        *store.value_mut(d.lambda_ids().2) = Tensor::scalar(0.0);
        let mut g = Graph::new();
        let a_t = Tensor::from_vec((0..16).map(|v| (v % 5) as f32 * 0.1).collect(), &[4, 4]);
        let a = g.constant(a_t.clone());
        let mut rng = TensorRng::seed(4);
        let x = g.constant(rng.normal(&[2, 4, 2], 0.0, 1.0));
        let combined = d.combined(&mut g, &store, a, x);
        assert_eq!(g.value(combined).shape(), &[2, 4, 4]);
        for b in 0..2 {
            assert!(g.value(combined).index_axis(0, b).allclose(&a_t, 1e-5));
        }
    }

    #[test]
    fn gradients_reach_all_damgn_parameters() {
        let (mut store, d) = make(5, 3);
        let mut g = Graph::new();
        let a = g.constant(Tensor::eye(5));
        let mut rng = TensorRng::seed(8);
        let x = g.constant(rng.normal(&[2, 5, 3], 0.0, 1.0));
        let combined = d.combined(&mut g, &store, a, x);
        let sq = g.square(combined);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.write_grads(&mut store);
        for id in store.ids() {
            assert!(store.grad(id).norm() > 0.0, "no grad for {}", store.name(id));
        }
    }

    #[test]
    fn bound_dynamic_supports_match_combined() {
        let (store, d) = make(4, 2);
        let mut g = Graph::new();
        let a_t = Tensor::from_vec((0..16).map(|v| v as f32 * 0.05).collect(), &[4, 4]);
        let a = g.constant(a_t);
        let mut rng = TensorRng::seed(6);
        let x = g.constant(rng.normal(&[3, 4, 2], 0.0, 1.0));
        let direct = d.combined(&mut g, &store, a, x);
        let binding = d.bind(&mut g, &store, &[a]);
        let via_binding = d.dynamic_supports_at(&mut g, &binding, x);
        assert_eq!(via_binding.len(), 1);
        assert!(g.value(via_binding[0]).allclose(g.value(direct), 1e-5));
    }

    #[test]
    fn fold_cache_matches_tracked_bind_bitwise() {
        let (store, d) = make(4, 2);
        let cache = StaticFoldCache::new();
        let a_t = Tensor::from_vec((0..16).map(|v| v as f32 * 0.05).collect(), &[4, 4]);
        let mut rng = TensorRng::seed(6);
        let x_t = rng.normal(&[2, 4, 2], 0.0, 1.0);
        let run = |use_cache: bool| {
            let mut g = Graph::new();
            let a = g.constant(a_t.clone());
            let x = g.constant(x_t.clone());
            let binding = if use_cache {
                d.bind_cached(&mut g, &store, &[a], &cache, false)
            } else {
                d.bind(&mut g, &store, &[a])
            };
            let out = d.dynamic_supports_at(&mut g, &binding, x);
            g.value(out[0]).clone()
        };
        let tracked = run(false);
        let miss = run(true); // populates the cache
        assert!(cache.is_populated());
        let hit = run(true); // serves the folded constants
        assert_eq!(tracked.data(), miss.data());
        assert_eq!(tracked.data(), hit.data());
    }

    #[test]
    fn fold_cache_invalidates_on_weight_update() {
        let (mut store, d) = make(3, 2);
        let cache = StaticFoldCache::new();
        let mut g = Graph::new();
        let a = g.constant(Tensor::eye(3));
        let _ = d.bind_cached(&mut g, &store, &[a], &cache, false);
        let v0 = store.version();
        *store.value_mut(d.lambda_ids().0) = Tensor::scalar(2.0);
        assert!(store.version() > v0);
        // The next eval bind must refold with λ_A = 2, matching a fresh
        // tracked bind rather than serving the stale cache entry.
        let mut g2 = Graph::new();
        let a2 = g2.constant(Tensor::eye(3));
        let cached = d.bind_cached(&mut g2, &store, &[a2], &cache, false);
        let mut g3 = Graph::new();
        let a3 = g3.constant(Tensor::eye(3));
        let fresh = d.bind(&mut g3, &store, &[a3]);
        assert_eq!(g2.value(cached.static_parts[0]).data(), g3.value(fresh.static_parts[0]).data());
    }

    #[test]
    fn training_bind_skips_the_cache() {
        let (store, d) = make(3, 2);
        let cache = StaticFoldCache::new();
        let mut g = Graph::new();
        let a = g.constant(Tensor::eye(3));
        let _ = d.bind_cached(&mut g, &store, &[a], &cache, true);
        assert!(!cache.is_populated(), "dense training forwards must not populate the fold cache");
    }

    /// Pins memories so that entity 0's scores are fully ReLU-pruned while
    /// the other rows keep positive survivors and at least one pruned entry.
    fn make_with_dead_row(n: usize) -> (ParamStore, Damgn, usize) {
        let (mut store, d) = make(n, 2);
        let m = DamgnConfig::default().b_memory_dim;
        let (b1, b2) = d.b_memory_ids();
        // Indicator memories: row 0 reads only coordinate 0 (negated, so
        // every score is negative — fully pruned); live rows read only
        // coordinate 1, which alternates sign across b2 rows so live rows
        // keep survivors *and* pruned entries.
        let mut b1_t = vec![0.0f32; n * m];
        b1_t[0] = -1.0;
        for i in 1..n {
            b1_t[i * m + 1] = 1.0;
        }
        let mut b2_t = vec![0.0f32; n * m];
        for (j, chunk) in b2_t.chunks_mut(m).enumerate() {
            chunk[0] = 0.5;
            chunk[1] = if j % 2 == 0 { 0.7 } else { -0.5 };
        }
        *store.value_mut(b1) = Tensor::from_vec(b1_t, &[n, m]);
        *store.value_mut(b2) = Tensor::from_vec(b2_t, &[n, m]);
        (store, d, 0)
    }

    #[test]
    fn fully_pruned_row_is_a_self_loop_not_dense_uniform() {
        // Regression: a plain softmax over an all-zero ReLU row used to
        // yield a dense uniform 1/N row, silently connecting the entity to
        // everything. It must now be an exact self-loop.
        let n = 6;
        let (store, d, dead) = make_with_dead_row(n);
        let mut g = Graph::new();
        let b = d.static_b(&mut g, &store);
        let v = g.value(b);
        let row = &v.data()[dead * n..(dead + 1) * n];
        assert_eq!(row[dead], 1.0, "dead row must self-loop exactly");
        for (j, &x) in row.iter().enumerate() {
            if j != dead {
                assert_eq!(x, 0.0, "dead row leaked weight {x} to column {j}");
            }
        }
        assert!(
            row.iter().all(|&x| (x - 1.0 / n as f32).abs() > 1e-3),
            "old dense-uniform 1/N row resurfaced"
        );
    }

    #[test]
    fn masked_softmax_excludes_pruned_entries_from_live_rows() {
        let n = 6;
        let (store, d, _) = make_with_dead_row(n);
        let mut g = Graph::new();
        let b1v = store.value(d.b_memory_ids().0);
        let b2v = store.value(d.b_memory_ids().1);
        let scores = b1v.matmul_nt(b2v);
        let b = d.static_b(&mut g, &store);
        let v = g.value(b);
        let mut saw_pruned = false;
        for i in 1..n {
            let row = &v.data()[i * n..(i + 1) * n];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "live row {i} sums to {sum}");
            for (j, &w) in row.iter().enumerate() {
                if scores.at(&[i, j]) <= 0.0 {
                    assert_eq!(w, 0.0, "pruned entry ({i},{j}) got weight {w}");
                    saw_pruned = true;
                }
            }
        }
        assert!(saw_pruned, "fixture has no pruned entries in live rows");
    }

    #[test]
    fn static_b_topk_full_width_matches_dense() {
        let n = 6;
        let (store, d, dead) = make_with_dead_row(n);
        let mut g = Graph::new();
        let dense = d.static_b(&mut g, &store);
        let pattern = d.topk_pattern(&store, n);
        let sparse_vals = d.static_b_topk(&mut g, &store, &pattern);
        let scattered = pattern.scatter_to_dense(g.value(sparse_vals));
        assert!(scattered.allclose(g.value(dense), 1e-6));
        let row = &scattered.data()[dead * n..(dead + 1) * n];
        assert_eq!(row[dead], 1.0);
    }

    #[test]
    fn static_b_topk_rows_are_distributions_at_small_k() {
        let (store, d) = make(8, 2);
        let pattern = d.topk_pattern(&store, 3);
        let mut g = Graph::new();
        let vals = d.static_b_topk(&mut g, &store, &pattern);
        let v = g.value(vals);
        assert_eq!(v.shape(), &[8, 3]);
        let sums = v.sum_axis(-1);
        assert!(
            sums.data().iter().all(|&s| (s - 1.0).abs() < 1e-5),
            "sparse rows must stay distributions: {:?}",
            sums.data()
        );
        assert!(v.data().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn sparse_supports_match_dense_combined_at_full_width() {
        let n = 5;
        let (store, d) = make(n, 2);
        let mut rng = TensorRng::seed(11);
        let a_t = rng.uniform(&[n, n], 0.0, 0.5);
        let x_t = rng.normal(&[2, n, 2], 0.0, 1.0);
        let mut g = Graph::new();
        let a = g.constant(a_t.clone());
        let x = g.constant(x_t.clone());
        let sig = g.constant(rng.normal(&[2, n, 3], 0.0, 1.0));
        let dense = d.combined(&mut g, &store, a, x);
        let dense_out = g.bmm(dense, sig);
        let csr = Arc::new(enhancenet_tensor::CsrMatrix::from_dense(&a_t));
        let csr_t = Arc::new(csr.transpose());
        let pattern = d.topk_pattern(&store, n);
        let binding = d.bind_sparse(&mut g, &store, pattern);
        let supports = d.sparse_supports_at(&mut g, &binding, &[(csr, csr_t)], x);
        assert_eq!(supports.len(), 1);
        let sparse_out = supports[0].apply(&mut g, sig);
        assert!(g.value(sparse_out).allclose(g.value(dense_out), 1e-5));
    }

    #[test]
    fn gradients_reach_all_parameters_through_sparse_path() {
        let n = 6;
        let (mut store, d) = make(n, 3);
        let mut rng = TensorRng::seed(12);
        let a_t = rng.uniform(&[n, n], 0.0, 0.5);
        let csr = Arc::new(enhancenet_tensor::CsrMatrix::from_dense(&a_t));
        let csr_t = Arc::new(csr.transpose());
        let mut g = Graph::new();
        let x = g.constant(rng.normal(&[2, n, 3], 0.0, 1.0));
        let sig = g.constant(rng.normal(&[2, n, 4], 0.0, 1.0));
        let pattern = d.topk_pattern(&store, 3);
        let binding = d.bind_sparse(&mut g, &store, pattern);
        let supports = d.sparse_supports_at(&mut g, &binding, &[(csr, csr_t)], x);
        let out = supports[0].apply(&mut g, sig);
        let sq = g.square(out);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.write_grads(&mut store);
        for id in store.ids() {
            assert!(store.grad(id).norm() > 0.0, "no grad for {}", store.name(id));
        }
    }

    #[test]
    fn sparse_fold_cache_matches_tracked_bind_bitwise() {
        let n = 5;
        let (store, d) = make(n, 2);
        let cache = StaticFoldCache::new();
        let mut rng = TensorRng::seed(7);
        let a_t = rng.uniform(&[n, n], 0.0, 0.5);
        let x_t = rng.normal(&[2, n, 2], 0.0, 1.0);
        let sig_t = rng.normal(&[2, n, 3], 0.0, 1.0);
        let csr = Arc::new(enhancenet_tensor::CsrMatrix::from_dense(&a_t));
        let csr_t = Arc::new(csr.transpose());
        let run = |use_cache: bool| {
            let mut g = Graph::new();
            let x = g.constant(x_t.clone());
            let sig = g.constant(sig_t.clone());
            let binding = if use_cache {
                d.bind_sparse_cached(&mut g, &store, 3, &cache, false)
            } else {
                let pattern = d.topk_pattern(&store, 3);
                d.bind_sparse(&mut g, &store, pattern)
            };
            let s = d.sparse_supports_at(&mut g, &binding, &[(csr.clone(), csr_t.clone())], x);
            let out = s[0].apply(&mut g, sig);
            g.value(out).clone()
        };
        let tracked = run(false);
        let miss = run(true);
        assert!(cache.is_populated());
        let hit = run(true);
        assert_eq!(tracked.data(), miss.data());
        assert_eq!(tracked.data(), hit.data());
    }

    #[test]
    fn memory_scores_match_the_iterator_sum_bitwise() {
        let (n, m) = (37, 10);
        let mut rng = TensorRng::seed(21);
        let b1 = rng.normal(&[n, m], 0.0, 1.0);
        let b2 = rng.normal(&[n, m], 0.0, 1.0);
        let b2t = b2.transpose();
        let mut row = vec![0.0f32; n];
        for i in 0..n {
            let bi = &b1.data()[i * m..(i + 1) * m];
            memory_scores(bi, b2t.data(), &mut row);
            for (j, &s) in row.iter().enumerate() {
                let bj = &b2.data()[j * m..(j + 1) * m];
                let old: f32 = bi.iter().zip(bj).map(|(&a, &b)| a * b).sum();
                assert_eq!(s.to_bits(), old.to_bits(), "score ({i},{j}): {s} vs {old}");
            }
        }
    }

    /// Runs one sparse forward + backward through the cache and returns
    /// the pattern it used and every parameter gradient.
    fn sparse_step(
        d: &Damgn,
        store: &mut ParamStore,
        cache: Option<&StaticFoldCache>,
    ) -> (Arc<TopkPattern>, Vec<Vec<u32>>) {
        let n = d.num_entities();
        let mut rng = TensorRng::seed(5);
        let csr = Arc::new(CsrMatrix::from_dense(&rng.uniform(&[n, n], 0.0, 0.5)));
        let csr_t = Arc::new(csr.transpose());
        let mut g = Graph::new();
        let x = g.constant(rng.normal(&[2, n, 2], 0.0, 1.0));
        let sig = g.constant(rng.normal(&[2, n, 3], 0.0, 1.0));
        let binding = match cache {
            Some(cache) => d.bind_sparse_cached(&mut g, store, 3, cache, true),
            None => d.bind_sparse(&mut g, store, d.topk_pattern(store, 3)),
        };
        let supports = d.sparse_supports_at(&mut g, &binding, &[(csr, csr_t)], x);
        let out = supports[0].apply(&mut g, sig);
        let sq = g.square(out);
        let loss = g.sum_all(sq);
        g.backward(loss);
        store.zero_grad();
        g.write_grads(store);
        let grads = store
            .ids()
            .map(|id| store.grad(id).data().iter().map(|v| v.to_bits()).collect())
            .collect();
        (binding.pattern().clone(), grads)
    }

    #[test]
    fn training_binds_share_one_pattern_per_store_version() {
        let (mut store, d) = make(9, 2);
        let cache = StaticFoldCache::new();
        let (uncached_pattern, uncached_grads) = sparse_step(&d, &mut store, None);
        let (first, first_grads) = sparse_step(&d, &mut store, Some(&cache));
        let (second, second_grads) = sparse_step(&d, &mut store, Some(&cache));
        // One build serves both tapes, and sharing it changes no gradient.
        assert!(Arc::ptr_eq(&first, &second), "second training tape rebuilt the pattern");
        assert_eq!(*first, *uncached_pattern);
        assert_eq!(first_grads, uncached_grads);
        assert_eq!(second_grads, uncached_grads);
        // An eval forward at the same version reuses the training build.
        let mut g = Graph::new();
        let eval = d.bind_sparse_cached(&mut g, &store, 3, &cache, false);
        assert!(Arc::ptr_eq(eval.pattern(), &first));
        assert!(Arc::ptr_eq(&cache.topk_pattern(store.version(), 3).unwrap(), &first));
        assert!(cache.topk_pattern(store.version(), 4).is_none());
        // A weight update invalidates it.
        *store.value_mut(d.b_memory_ids().0) = store.value(d.b_memory_ids().0).map(|v| -v);
        assert!(cache.topk_pattern(store.version(), 3).is_none());
        let (rebuilt, _) = sparse_step(&d, &mut store, Some(&cache));
        assert!(!Arc::ptr_eq(&rebuilt, &first), "stale pattern served after a weight update");
        assert_eq!(*rebuilt, *d.topk_pattern(&store, 3));
    }

    #[test]
    fn parameter_formula_matches_store() {
        let (store, _) = make(20, 4);
        assert_eq!(store.num_scalars(), Damgn::parameter_formula(20, 4, DamgnConfig::default()));
    }

    #[test]
    fn parameter_count_scales_linearly_not_quadratically() {
        let cfg = DamgnConfig::default();
        let p100 = Damgn::parameter_formula(100, 2, cfg);
        let p200 = Damgn::parameter_formula(200, 2, cfg);
        // Doubling N adds 2·100·M, far below the N² = 30000 a dense B would
        // have added.
        assert_eq!(p200 - p100, 2 * 100 * cfg.b_memory_dim);
        assert!(p200 < 200 * 200);
    }
}
