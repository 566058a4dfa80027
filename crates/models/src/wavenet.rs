//! Gated WaveNet forecasters: the TCN and GTCN families and their plugin
//! variants, plus the Graph WaveNet baseline.
//!
//! Architecture (§VI-A "Model Configurations"): `L = 8` dilated causal
//! convolution layers with dilations `1,2,1,2,1,2,1,2`, kernel `K = 2`,
//! `C' = 32` channels, gating `tanh ⊙ σ` after each convolution (the
//! WaveNet mechanism), residual and skip 1×1 convolutions, dropout 0.3, and
//! a two-layer output head predicting all `F` horizons from the final
//! timestamp's skip features.
//!
//! Plugin integration:
//!
//! * **D-TCN** — each layer owns a DFGN (all sharing one entity-memory
//!   table, Figure 8) that generates the layer's per-entity filter and gate
//!   taps (`o = 2·K·C_l·C'`, §IV-C2).
//! * **GTCN** — ordinary graph convolution over static supports is applied
//!   to each layer's gated output (§V-C2), as in Graph WaveNet \[31\].
//! * **DA-GTCN** — the adjacency fed to the GC is DAMGN's `A'`, whose
//!   time-specific term `C_t` is computed from the input signal at each of
//!   the `T` aligned timestamps.
//! * **Graph WaveNet** — GTCN plus a learned *static* self-adaptive
//!   adjacency `softmax(relu(E₁E₂ᵀ))` as an extra support; unlike DAMGN it
//!   cannot change across time, which is exactly the gap the paper's §II
//!   identifies.

use crate::config::{GraphMode, ModelDims, TemporalMode};
use enhancenet::dfgn::{split_tcn_filters, tcn_filter_dim, FilterCache};
use enhancenet::gconv::gc_input_dim;
use enhancenet::{graph_conv, Damgn, Dfgn, Forecaster, ForwardCtx, GcSupport, StaticFoldCache};
use enhancenet_autodiff::{Graph, ParamId, ParamStore, PlanCache, Var};
use enhancenet_graph::build_supports;
use enhancenet_nn::conv::{causal_conv_taps, receptive_field};
use enhancenet_nn::{Dropout, Linear};
use enhancenet_tensor::{CsrMatrix, Tensor, TensorRng};
use std::sync::Arc;

/// WaveNet hyper-parameters (defaults are the paper's TCN settings).
#[derive(Debug, Clone)]
pub struct WaveNetConfig {
    /// Per-layer dilation factors (paper: `1,2,1,2,1,2,1,2`).
    pub dilations: Vec<usize>,
    /// Causal kernel size `K` (paper: 2).
    pub kernel: usize,
    /// Hidden width of the output head.
    pub end_hidden: usize,
    /// Dropout rate after each gated layer (paper: 0.3).
    pub dropout: f32,
}

impl Default for WaveNetConfig {
    fn default() -> Self {
        Self { dilations: vec![1, 2, 1, 2, 1, 2, 1, 2], kernel: 2, end_hidden: 64, dropout: 0.3 }
    }
}

/// Dilated-convolution weights for one layer: `2K` taps (K filter taps then
/// K gate taps), shared or DFGN-generated.
enum ConvWeights {
    Shared { taps: Vec<ParamId> },
    Generated(Dfgn),
}

struct WaveLayer {
    conv: ConvWeights,
    /// Prediction-phase cache of DFGN-generated taps (§VI-B4).
    cache: FilterCache,
    bias_filter: ParamId,
    bias_gate: ParamId,
    /// Residual 1×1 projection; `None` on the last layer, whose residual
    /// output would be dead (only skip connections feed the head).
    residual: Option<Linear>,
    skip: Linear,
    /// Graph-convolution mixing weight `[(1+S·k)·C', C']`, present in graph
    /// modes.
    gc_weight: Option<ParamId>,
    dilation: usize,
}

/// Applies a filter to a 4-D signal `[B, N, T, C]`:
/// rank-2 `w` is shared, rank-3 `[N, C, C']` is per-entity.
fn apply_filter_4d(g: &mut Graph, x: Var, w: Var) -> Var {
    let s = g.value(x).shape().to_vec();
    let (b, n, t, c) = (s[0], s[1], s[2], s[3]);
    match g.value(w).rank() {
        2 => {
            let flat = g.reshape(x, &[b * n * t, c]);
            let y = g.matmul(flat, w);
            let c_out = g.value(y).shape()[1];
            g.reshape(y, &[b, n, t, c_out])
        }
        3 => {
            let xp = g.permute(x, &[1, 0, 2, 3]); // [N, B, T, C]
            let flat = g.reshape(xp, &[n, b * t, c]);
            let y = g.bmm(flat, w);
            let c_out = g.value(y).shape()[2];
            let y4 = g.reshape(y, &[n, b, t, c_out]);
            g.permute(y4, &[1, 0, 2, 3])
        }
        r => panic!("apply_filter_4d: unsupported filter rank {r}"),
    }
}

/// Static graph pieces.
struct GraphParts {
    supports: Vec<Tensor>,
    /// CSR base supports (with transposes) for the sub-quadratic top-k
    /// DAMGN path; empty when the dense path is in use.
    sparse_supports: Vec<(Arc<CsrMatrix>, Arc<CsrMatrix>)>,
    k_hops: usize,
    damgn: Option<Damgn>,
    /// Graph WaveNet's self-adaptive node embeddings `(E₁, E₂)`.
    adaptive: Option<(ParamId, ParamId)>,
    /// Eval-path cache of the DAMGN static fold `λ_A·A_s + λ_B·B`,
    /// invalidated by weight updates via the store version.
    fold_cache: StaticFoldCache,
}

/// Gated WaveNet forecaster (TCN / GTCN family).
pub struct WaveNet {
    name: String,
    store: ParamStore,
    dims: ModelDims,
    config: WaveNetConfig,
    input_proj: Linear,
    layers: Vec<WaveLayer>,
    head1: Linear,
    head2: Linear,
    dropout: Dropout,
    graph: Option<GraphParts>,
    memory: Option<ParamId>,
    /// Compiled eval-forward plans, keyed by input shape and store version.
    plan_cache: PlanCache,
}

impl WaveNet {
    /// A pure temporal model: `TCN` (shared) or `D-TCN` (DFGN).
    pub fn tcn(dims: ModelDims, config: WaveNetConfig, temporal: TemporalMode, seed: u64) -> Self {
        Self::build(dims, config, temporal, GraphMode::None, None, None, seed)
    }

    /// A graph model: `GTCN` / `D-GTCN` / `DA-GTCN` / `D-DA-GTCN`, or the
    /// `Graph WaveNet` baseline with `GraphMode::AdaptiveStatic`.
    pub fn gtcn(
        dims: ModelDims,
        config: WaveNetConfig,
        temporal: TemporalMode,
        graph_mode: GraphMode,
        adjacency: &Tensor,
        seed: u64,
    ) -> Self {
        assert!(graph_mode.uses_graph(), "gtcn requires a graph mode");
        Self::build(dims, config, temporal, graph_mode, Some(adjacency), None, seed)
    }

    /// A dynamic-graph model over **pre-built sparse base supports** — the
    /// large-`N` entry point that never materializes an `[N, N]` tensor.
    /// `base_supports` are already-normalized CSR transitions (e.g. from
    /// [`enhancenet_graph::build_supports_csr`]); `graph_mode` must be
    /// [`GraphMode::Dynamic`] with `DamgnConfig::top_k` set so both the
    /// learned `B` and the time-varying `C_t` stay row-sparse.
    pub fn gtcn_sparse(
        dims: ModelDims,
        config: WaveNetConfig,
        temporal: TemporalMode,
        graph_mode: GraphMode,
        base_supports: Vec<CsrMatrix>,
        seed: u64,
    ) -> Self {
        match graph_mode {
            GraphMode::Dynamic { damgn, .. } => assert!(
                damgn.top_k.is_some(),
                "gtcn_sparse requires DamgnConfig::top_k (dense DAMGN would be O(N²))"
            ),
            _ => panic!("gtcn_sparse requires GraphMode::Dynamic"),
        }
        assert!(!base_supports.is_empty(), "gtcn_sparse needs at least one base support");
        for s in &base_supports {
            assert_eq!(s.rows(), dims.num_entities, "base support rows must match entities");
            assert_eq!(s.cols(), dims.num_entities, "base support must be square");
        }
        Self::build(dims, config, temporal, graph_mode, None, Some(base_supports), seed)
    }

    /// Paper preset `TCN`: shared filters, no graph convolution.
    pub fn paper_tcn(dims: ModelDims, seed: u64) -> Self {
        Self::tcn(dims, WaveNetConfig::default(), TemporalMode::Shared, seed)
    }

    /// Paper preset `D-TCN`: DFGN per-entity taps, no graph convolution.
    pub fn paper_d_tcn(dims: ModelDims, seed: u64) -> Self {
        Self::tcn(
            dims,
            WaveNetConfig::default(),
            TemporalMode::Distinct(enhancenet::DfgnConfig::default()),
            seed,
        )
    }

    /// Paper preset `GTCN`: shared taps, static dual-transition supports.
    pub fn paper_gtcn(dims: ModelDims, adjacency: &Tensor, seed: u64) -> Self {
        Self::gtcn(
            dims,
            WaveNetConfig::default(),
            TemporalMode::Shared,
            GraphMode::paper_static(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `D-GTCN`: DFGN taps over static supports.
    pub fn paper_d_gtcn(dims: ModelDims, adjacency: &Tensor, seed: u64) -> Self {
        Self::gtcn(
            dims,
            WaveNetConfig::default(),
            TemporalMode::Distinct(enhancenet::DfgnConfig::default()),
            GraphMode::paper_static(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `DA-GTCN`: shared taps over DAMGN dynamic adjacencies.
    pub fn paper_da_gtcn(dims: ModelDims, adjacency: &Tensor, seed: u64) -> Self {
        Self::gtcn(
            dims,
            WaveNetConfig::default(),
            TemporalMode::Shared,
            GraphMode::paper_dynamic(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `D-DA-GTCN`: both plugins — the paper's strongest TCN
    /// variant.
    pub fn paper_d_da_gtcn(dims: ModelDims, adjacency: &Tensor, seed: u64) -> Self {
        Self::gtcn(
            dims,
            WaveNetConfig::default(),
            TemporalMode::Distinct(enhancenet::DfgnConfig::default()),
            GraphMode::paper_dynamic(),
            adjacency,
            seed,
        )
    }

    /// Baseline preset: static supports plus the learned self-adaptive
    /// adjacency of \[31\] (embedding width 10, as in that paper).
    pub fn paper_adaptive_baseline(dims: ModelDims, adjacency: &Tensor, seed: u64) -> Self {
        Self::gtcn(
            dims,
            WaveNetConfig::default(),
            TemporalMode::Shared,
            GraphMode::AdaptiveStatic {
                kind: enhancenet_graph::SupportKind::DoubleTransition,
                k_hops: 2,
                embed_dim: 10,
            },
            adjacency,
            seed,
        )
    }

    fn build(
        dims: ModelDims,
        config: WaveNetConfig,
        temporal: TemporalMode,
        graph_mode: GraphMode,
        adjacency: Option<&Tensor>,
        sparse_bases: Option<Vec<CsrMatrix>>,
        seed: u64,
    ) -> Self {
        assert!(
            receptive_field(config.kernel, &config.dilations) >= dims.input_len,
            "receptive field {} does not cover the input window {}",
            receptive_field(config.kernel, &config.dilations),
            dims.input_len
        );
        let mut store = ParamStore::new();
        let mut rng = TensorRng::seed(seed);
        let n = dims.num_entities;
        let ch = dims.hidden;
        let k = config.kernel;

        let memory = match &temporal {
            TemporalMode::Distinct(cfg) => {
                let bound = 1.0 / (cfg.memory_dim as f32).sqrt();
                Some(store.add("memory", rng.uniform(&[n, cfg.memory_dim], -bound, bound)))
            }
            TemporalMode::Shared | TemporalMode::Straightforward => None,
        };

        let (graph, num_supports, k_hops) = match graph_mode {
            GraphMode::None => (None, 0, 0),
            GraphMode::Static { kind, k_hops } => {
                let a = adjacency.expect("static graph mode requires an adjacency");
                let supports = build_supports(a, kind);
                let count = supports.len();
                (
                    Some(GraphParts {
                        supports,
                        sparse_supports: Vec::new(),
                        k_hops,
                        damgn: None,
                        adaptive: None,
                        fold_cache: StaticFoldCache::new(),
                    }),
                    count,
                    k_hops,
                )
            }
            GraphMode::Dynamic { kind, k_hops, damgn } => {
                let topk = damgn.top_k.is_some();
                let (supports, sparse_supports): (Vec<Tensor>, Vec<_>) = match sparse_bases {
                    // Large-N path: pre-built CSR bases, no dense [N, N].
                    Some(bases) => (
                        Vec::new(),
                        bases
                            .into_iter()
                            .map(|c| {
                                let t = Arc::new(c.transpose());
                                (Arc::new(c), t)
                            })
                            .collect(),
                    ),
                    None => {
                        let a = adjacency.expect("dynamic graph mode requires an adjacency");
                        let supports = build_supports(a, kind);
                        if topk {
                            // top_k on a dense adjacency: convert the bases
                            // to CSR once; the dense copies are dropped.
                            let sparse = supports
                                .iter()
                                .map(|s| {
                                    let csr = CsrMatrix::from_dense(s);
                                    let t = Arc::new(csr.transpose());
                                    (Arc::new(csr), t)
                                })
                                .collect();
                            (Vec::new(), sparse)
                        } else {
                            (supports, Vec::new())
                        }
                    }
                };
                let count = if topk { sparse_supports.len() } else { supports.len() };
                let damgn = Damgn::new(&mut store, &mut rng, "damgn", n, 1, damgn);
                (
                    Some(GraphParts {
                        supports,
                        sparse_supports,
                        k_hops,
                        damgn: Some(damgn),
                        adaptive: None,
                        fold_cache: StaticFoldCache::new(),
                    }),
                    count,
                    k_hops,
                )
            }
            GraphMode::AdaptiveStatic { kind, k_hops, embed_dim } => {
                let a = adjacency.expect("adaptive mode requires an adjacency");
                let supports = build_supports(a, kind);
                let count = supports.len() + 1; // + the adaptive support
                let bound = 1.0 / (embed_dim as f32).sqrt();
                let e1 = store.add("adaptive.e1", rng.uniform(&[n, embed_dim], -bound, bound));
                let e2 = store.add("adaptive.e2", rng.uniform(&[n, embed_dim], -bound, bound));
                (
                    Some(GraphParts {
                        supports,
                        sparse_supports: Vec::new(),
                        k_hops,
                        damgn: None,
                        adaptive: Some((e1, e2)),
                        fold_cache: StaticFoldCache::new(),
                    }),
                    count,
                    k_hops,
                )
            }
        };

        let input_proj = Linear::new(&mut store, &mut rng, "input", dims.in_features, ch, true);
        let layers = config
            .dilations
            .iter()
            .enumerate()
            .map(|(l, &d)| {
                let conv = match &temporal {
                    TemporalMode::Shared => ConvWeights::Shared {
                        taps: (0..2 * k)
                            .map(|t| {
                                store.add(format!("layer{l}.tap{t}"), rng.xavier(&[ch, ch], ch, ch))
                            })
                            .collect(),
                    },
                    // Straightforward method (§IV-B2): stored per-entity
                    // taps, N·2K·C·C' parameters per layer.
                    TemporalMode::Straightforward => ConvWeights::Shared {
                        taps: (0..2 * k)
                            .map(|t| {
                                store.add(
                                    format!("layer{l}.tap{t}"),
                                    rng.xavier(&[n, ch, ch], ch, ch),
                                )
                            })
                            .collect(),
                    },
                    TemporalMode::Distinct(cfg) => {
                        // One DFGN per layer (Figure 8), 2K taps of C×C'.
                        let o = 2 * tcn_filter_dim(ch, ch, k);
                        ConvWeights::Generated(Dfgn::with_shared_memory(
                            &mut store,
                            &mut rng,
                            &format!("layer{l}.dfgn"),
                            memory.expect("distinct mode has a memory"),
                            o,
                            *cfg,
                        ))
                    }
                };
                let gc_weight = (num_supports > 0).then(|| {
                    let gin = gc_input_dim(ch, num_supports, k_hops);
                    store.add(format!("layer{l}.gc"), rng.xavier(&[gin, ch], gin, ch))
                });
                let is_last = l + 1 == config.dilations.len();
                WaveLayer {
                    conv,
                    cache: FilterCache::new(),
                    bias_filter: store.add(format!("layer{l}.bf"), Tensor::zeros(&[ch])),
                    bias_gate: store.add(format!("layer{l}.bg"), Tensor::zeros(&[ch])),
                    residual: (!is_last).then(|| {
                        Linear::new(&mut store, &mut rng, &format!("layer{l}.res"), ch, ch, true)
                    }),
                    skip: Linear::new(
                        &mut store,
                        &mut rng,
                        &format!("layer{l}.skip"),
                        ch,
                        ch,
                        true,
                    ),
                    gc_weight,
                    dilation: d,
                }
            })
            .collect();
        let head1 = Linear::new(&mut store, &mut rng, "head1", ch, config.end_hidden, true);
        let head2 =
            Linear::new(&mut store, &mut rng, "head2", config.end_hidden, dims.output_len, true);

        let name = match graph_mode {
            GraphMode::None => format!("{}TCN", temporal.prefix()),
            GraphMode::AdaptiveStatic { .. } => "Graph WaveNet".to_string(),
            _ => format!("{}{}GTCN", temporal.prefix(), graph_mode.prefix()),
        };
        Self {
            name,
            store,
            dims,
            dropout: Dropout::new(config.dropout),
            config,
            input_proj,
            layers,
            head1,
            head2,
            graph,
            memory,
            plan_cache: PlanCache::new(),
        }
    }

    /// The DFGN memory parameter for `D-` variants (Figures 10–11).
    pub fn memory_id(&self) -> Option<ParamId> {
        self.memory
    }

    /// The DAMGN module for `DA-` variants (Figure 12).
    pub fn damgn(&self) -> Option<&Damgn> {
        self.graph.as_ref()?.damgn.as_ref()
    }

    /// Binds the supports used by every layer's GC. For DAMGN models this
    /// produces one `[B·T, N, N]` dynamic adjacency per base support,
    /// derived from the input's target feature at each aligned timestamp.
    /// During evaluation the DAMGN static fold is served from the
    /// version-keyed [`StaticFoldCache`].
    /// `xv` is the window bound as the graph's input leaf during eval: the
    /// DAMGN signal is sliced graph-side from it, so compiled plans rebind
    /// it per request. Training passes `None` and keeps the cheaper
    /// pre-sliced constant (no gradient flows into the window anyway).
    fn bind_supports(
        &self,
        g: &mut Graph,
        x: &Tensor,
        xv: Option<Var>,
        training: bool,
    ) -> Option<Vec<GcSupport>> {
        let parts = self.graph.as_ref()?;
        let (b, t, n) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        if let Some(damgn) = &parts.damgn {
            // Signal: [B, T, N, 1] -> [B*T, N, 1].
            let sig = match xv {
                Some(xv) => {
                    let sig_c = g.slice_axis(xv, 3, 0, 1);
                    g.reshape(sig_c, &[b * t, n, 1])
                }
                None => g.constant(x.slice_axis(3, 0, 1).reshape(&[b * t, n, 1])),
            };
            // Top-k mode: row-sparse B and C_t over the shared pattern,
            // CSR bases handled by the linearity split in `GcSupport`.
            if let Some(k) = damgn.top_k() {
                let binding =
                    damgn.bind_sparse_cached(g, &self.store, k, &parts.fold_cache, training);
                return Some(damgn.sparse_supports_at(g, &binding, &parts.sparse_supports, sig));
            }
            let base: Vec<Var> = parts.supports.iter().map(|s| g.constant(s.clone())).collect();
            let binding = damgn.bind_cached(g, &self.store, &base, &parts.fold_cache, training);
            let dyn_supports = damgn.dynamic_supports_at(g, &binding, sig);
            return Some(dyn_supports.into_iter().map(GcSupport::Dynamic).collect());
        }
        let mut out: Vec<GcSupport> =
            parts.supports.iter().map(|s| GcSupport::Static(g.constant(s.clone()))).collect();
        if let Some((e1, e2)) = parts.adaptive {
            let v1 = g.param(&self.store, e1);
            let v2 = g.param(&self.store, e2);
            let raw = g.matmul_nt(v1, v2);
            let act = g.relu(raw);
            out.push(GcSupport::Static(g.softmax(act, -1)));
        }
        Some(out)
    }
}

impl Forecaster for WaveNet {
    fn name(&self) -> &str {
        &self.name
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        self.dims.output_len
    }

    fn input_shape(&self) -> Option<[usize; 3]> {
        Some([self.dims.input_len, self.dims.num_entities, self.dims.in_features])
    }

    fn damgn(&self) -> Option<&Damgn> {
        WaveNet::damgn(self)
    }

    fn damgn_fold_cache(&self) -> Option<&StaticFoldCache> {
        Some(&self.graph.as_ref()?.fold_cache)
    }

    fn memory_id(&self) -> Option<ParamId> {
        WaveNet::memory_id(self)
    }

    fn plan_cache(&self) -> Option<&PlanCache> {
        Some(&self.plan_cache)
    }

    fn forward(&self, g: &mut Graph, x: &Tensor, ctx: &mut ForwardCtx) -> Var {
        let (b, t, n, c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(n, self.dims.num_entities, "entity count mismatch");
        assert_eq!(c, self.dims.in_features, "feature count mismatch");
        assert_eq!(t, self.dims.input_len, "input length mismatch");
        let k = self.config.kernel;
        let ch = self.dims.hidden;

        // Eval traces read the window through one input leaf (compilable to
        // a plan); training binds it as a constant.
        let xin = if ctx.training { g.constant(x.clone()) } else { g.input(x.clone()) };
        let supports = self.bind_supports(g, x, (!ctx.training).then_some(xin), ctx.training);
        let k_hops = self.graph.as_ref().map_or(0, |p| p.k_hops);

        // [B, T, N, C] -> [B, N, T, C'] with the input projection.
        let xp = g.permute(xin, &[0, 2, 1, 3]);
        let mut h = self.input_proj.forward(g, &self.store, xp);

        let mut skip_sum: Option<Var> = None;
        for layer in &self.layers {
            // Bind this layer's 2K tap filters.
            let tap_w: Vec<Var> = match &layer.conv {
                ConvWeights::Shared { taps } => {
                    taps.iter().map(|&id| g.param(&self.store, id)).collect()
                }
                ConvWeights::Generated(dfgn) => {
                    let generated =
                        dfgn.generate_cached(g, &self.store, &layer.cache, ctx.training);
                    let half = g.value(generated).shape()[1] / 2;
                    let filt = g.slice_axis(generated, 1, 0, half);
                    let gate = g.slice_axis(generated, 1, half, 2 * half);
                    let mut v = split_tcn_filters(g, filt, ch, ch, k);
                    v.extend(split_tcn_filters(g, gate, ch, ch, k));
                    v
                }
            };

            // Dilated causal convolution (Eq. 8): K taps, filter + gate.
            let taps = causal_conv_taps(g, h, 2, k, layer.dilation);
            let mut filter_acc: Option<Var> = None;
            let mut gate_acc: Option<Var> = None;
            for (j, &tap) in taps.iter().enumerate() {
                let f = apply_filter_4d(g, tap, tap_w[j]);
                let ga = apply_filter_4d(g, tap, tap_w[k + j]);
                filter_acc = Some(match filter_acc {
                    Some(acc) => g.add(acc, f),
                    None => f,
                });
                gate_acc = Some(match gate_acc {
                    Some(acc) => g.add(acc, ga),
                    None => ga,
                });
            }
            let bf = g.param(&self.store, layer.bias_filter);
            let bg = g.param(&self.store, layer.bias_gate);
            let fpre = g.add(filter_acc.expect("k >= 1"), bf);
            let gpre = g.add(gate_acc.expect("k >= 1"), bg);
            // WaveNet gating: tanh ⊙ σ.
            let ft = g.tanh(fpre);
            let gs = g.sigmoid(gpre);
            let mut z = g.mul(ft, gs);

            // Graph convolution on the gated output (§V-C2).
            if let Some(sup) = &supports {
                let w = g.param(
                    &self.store,
                    layer.gc_weight.expect("graph mode layers have gc weights"),
                );
                // [B, N, T, C'] -> [B·T, N, C'] so each timestep is one
                // batched graph signal (aligning with dynamic supports).
                let zp = g.permute(z, &[0, 2, 1, 3]);
                let zflat = g.reshape(zp, &[b * t, n, ch]);
                let zc = graph_conv(g, sup, zflat, w, None, k_hops);
                let z4 = g.reshape(zc, &[b, t, n, ch]);
                z = g.permute(z4, &[0, 2, 1, 3]);
            }

            z = self.dropout.apply(g, ctx.rng, z, ctx.training);
            if let Some(residual) = &layer.residual {
                let res = residual.forward(g, &self.store, z);
                h = g.add(h, res);
            }
            let sk = layer.skip.forward(g, &self.store, z);
            skip_sum = Some(match skip_sum {
                Some(acc) => g.add(acc, sk),
                None => sk,
            });
        }

        // Output head from the final timestamp's skip features.
        let skip = skip_sum.expect("at least one layer");
        let last = g.slice_axis(skip, 2, t - 1, t); // [B, N, 1, C']
        let last = g.reshape(last, &[b, n, ch]);
        let a1 = g.relu(last);
        let h1 = self.head1.forward(g, &self.store, a1);
        let a2 = g.relu(h1);
        let out = self.head2.forward(g, &self.store, a2); // [B, N, F]
        g.permute(out, &[0, 2, 1]) // [B, F, N]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet::DfgnConfig;

    fn dims(n: usize, c: usize) -> ModelDims {
        ModelDims { num_entities: n, in_features: c, hidden: 6, input_len: 8, output_len: 4 }
    }

    fn cfg() -> WaveNetConfig {
        WaveNetConfig { dilations: vec![1, 2, 4], kernel: 2, end_hidden: 10, dropout: 0.3 }
    }

    fn small_dfgn() -> DfgnConfig {
        DfgnConfig { memory_dim: 4, hidden1: 6, hidden2: 3 }
    }

    fn ring_adjacency(n: usize) -> Tensor {
        let mut a = Tensor::zeros(&[n, n]);
        for i in 0..n {
            a.set(&[i, (i + 1) % n], 1.0);
            a.set(&[(i + 1) % n, i], 0.5);
        }
        a
    }

    fn forward_shape(model: &WaveNet, b: usize, n: usize, c: usize) {
        let x = TensorRng::seed(9).normal(&[b, 8, n, c], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(1);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = model.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[b, 4, n]);
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn tcn_name_and_shape() {
        let m = WaveNet::tcn(dims(5, 2), cfg(), TemporalMode::Shared, 1);
        assert_eq!(m.name(), "TCN");
        assert!(m.memory_id().is_none());
        forward_shape(&m, 3, 5, 2);
    }

    #[test]
    fn dtcn_name_and_shape() {
        let m = WaveNet::tcn(dims(5, 2), cfg(), TemporalMode::Distinct(small_dfgn()), 1);
        assert_eq!(m.name(), "D-TCN");
        assert!(m.memory_id().is_some());
        forward_shape(&m, 2, 5, 2);
    }

    #[test]
    fn gtcn_variants_name_and_shape() {
        let a = ring_adjacency(5);
        let combos: Vec<(TemporalMode, GraphMode, &str)> = vec![
            (TemporalMode::Shared, GraphMode::paper_static(), "GTCN"),
            (TemporalMode::Distinct(small_dfgn()), GraphMode::paper_static(), "D-GTCN"),
            (TemporalMode::Shared, GraphMode::paper_dynamic(), "DA-GTCN"),
            (TemporalMode::Distinct(small_dfgn()), GraphMode::paper_dynamic(), "D-DA-GTCN"),
        ];
        for (t, gm, expected) in combos {
            let m = WaveNet::gtcn(dims(5, 2), cfg(), t, gm, &a, 1);
            assert_eq!(m.name(), expected);
            forward_shape(&m, 2, 5, 2);
        }
    }

    #[test]
    fn graph_wavenet_baseline() {
        let a = ring_adjacency(5);
        let m = WaveNet::gtcn(
            dims(5, 2),
            cfg(),
            TemporalMode::Shared,
            GraphMode::AdaptiveStatic {
                kind: enhancenet_graph::SupportKind::DoubleTransition,
                k_hops: 2,
                embed_dim: 4,
            },
            &a,
            1,
        );
        assert_eq!(m.name(), "Graph WaveNet");
        forward_shape(&m, 2, 5, 2);
    }

    #[test]
    fn gradients_flow_everywhere_d_da_gtcn() {
        let a = ring_adjacency(4);
        let mut m = WaveNet::gtcn(
            dims(4, 1),
            cfg(),
            TemporalMode::Distinct(small_dfgn()),
            GraphMode::paper_dynamic(),
            &a,
            2,
        );
        let x = TensorRng::seed(3).normal(&[2, 8, 4, 1], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(4);
        let pred = {
            let mut ctx = ForwardCtx::eval(&mut rng);
            m.forward(&mut g, &x, &mut ctx)
        };
        let target = Tensor::ones(&[2, 4, 4]);
        let mask = Tensor::ones(&[2, 4, 4]);
        let loss = g.masked_mae(pred, &target, &mask);
        g.backward(loss);
        m.store_mut().zero_grad();
        g.write_grads(m.store_mut());
        let mut missing = Vec::new();
        for id in m.store().ids() {
            if m.store().grad(id).norm() == 0.0 {
                missing.push(m.store().name(id).to_string());
            }
        }
        assert!(missing.is_empty(), "params with zero grad: {missing:?}");
    }

    #[test]
    fn dropout_only_active_in_training() {
        let m = WaveNet::tcn(dims(4, 1), cfg(), TemporalMode::Shared, 5);
        let x = TensorRng::seed(6).normal(&[1, 8, 4, 1], 0.0, 1.0);
        // Two eval forwards are identical.
        let run = |training: bool, seed: u64| -> Tensor {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(seed);
            let teacher = Tensor::zeros(&[1, 4, 4]);
            let mut ctx = if training {
                ForwardCtx::train(&mut rng, &teacher, 0.0)
            } else {
                ForwardCtx::eval(&mut rng)
            };
            let y = m.forward(&mut g, &x, &mut ctx);
            g.value(y).clone()
        };
        assert!(run(false, 1).allclose(&run(false, 2), 0.0));
        assert!(!run(true, 1).allclose(&run(true, 2), 1e-7));
    }

    #[test]
    fn dtcn_has_fewer_parameters_than_straightforward() {
        // Per-entity taps stored directly would cost N × (2K·C'·C') per
        // layer; the DFGN variant must be much smaller for realistic N.
        let n = 100;
        let d = dims(n, 1);
        let m = WaveNet::tcn(d, cfg(), TemporalMode::Distinct(small_dfgn()), 1);
        let straightforward_taps = 3 * n * 2 * 2 * 6 * 6; // L·N·2K·C'·C'
        let shared = WaveNet::tcn(d, cfg(), TemporalMode::Shared, 1);
        let conv_params_in_d = m.num_parameters() - (shared.num_parameters() - 3 * 2 * 2 * 6 * 6);
        assert!(
            conv_params_in_d < straightforward_taps,
            "DFGN conv params {conv_params_in_d} should be below straightforward {straightforward_taps}"
        );
    }

    #[test]
    fn straightforward_tcn_runs_and_outweighs_dfgn() {
        let n = 60;
        let d =
            ModelDims { num_entities: n, in_features: 1, hidden: 6, input_len: 8, output_len: 4 };
        let s = WaveNet::tcn(d, cfg(), TemporalMode::Straightforward, 1);
        assert_eq!(s.name(), "S-TCN");
        let dfgn = WaveNet::tcn(d, cfg(), TemporalMode::Distinct(small_dfgn()), 1);
        assert!(dfgn.num_parameters() < s.num_parameters());
        forward_shape(&s, 2, n, 1);
    }

    #[test]
    fn paper_presets_match_explicit_modes() {
        let a = ring_adjacency(5);
        let cases: Vec<(WaveNet, &str)> = vec![
            (WaveNet::paper_tcn(dims(5, 2), 1), "TCN"),
            (WaveNet::paper_d_tcn(dims(5, 2), 1), "D-TCN"),
            (WaveNet::paper_gtcn(dims(5, 2), &a, 1), "GTCN"),
            (WaveNet::paper_d_gtcn(dims(5, 2), &a, 1), "D-GTCN"),
            (WaveNet::paper_da_gtcn(dims(5, 2), &a, 1), "DA-GTCN"),
            (WaveNet::paper_d_da_gtcn(dims(5, 2), &a, 1), "D-DA-GTCN"),
            (WaveNet::paper_adaptive_baseline(dims(5, 2), &a, 1), "Graph WaveNet"),
        ];
        for (m, expected) in cases {
            assert_eq!(m.name(), expected);
            assert_eq!(m.input_shape(), Some([8, 5, 2]));
            forward_shape(&m, 2, 5, 2);
        }
    }

    #[test]
    fn eval_damgn_fold_cache_matches_tracked_path() {
        // The first eval forward populates the static-fold cache; the
        // second is served from it and must be bit-identical.
        let a = ring_adjacency(4);
        let m = WaveNet::gtcn(
            dims(4, 1),
            cfg(),
            TemporalMode::Shared,
            GraphMode::paper_dynamic(),
            &a,
            3,
        );
        let x = TensorRng::seed(11).normal(&[2, 8, 4, 1], 0.0, 1.0);
        let run = || {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(1);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, &x, &mut ctx);
            g.value(y).clone()
        };
        let first = run();
        let second = run();
        assert!(first.allclose(&second, 0.0));
    }

    #[test]
    fn sparse_topk_matches_dense_at_full_width() {
        // top_k = N retains every entry, so the sparse path must agree with
        // the dense DAMGN model built from the same seed (same parameters).
        let a = ring_adjacency(5);
        let d = dims(5, 2);
        let dense =
            WaveNet::gtcn(d, cfg(), TemporalMode::Shared, GraphMode::paper_dynamic(), &a, 7);
        let sparse = WaveNet::gtcn(
            dims(5, 2),
            cfg(),
            TemporalMode::Shared,
            GraphMode::paper_dynamic_topk(5),
            &a,
            7,
        );
        assert_eq!(sparse.name(), "DA-GTCN");
        let x = TensorRng::seed(9).normal(&[2, 8, 5, 2], 0.0, 1.0);
        let run = |m: &WaveNet| {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(1);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, &x, &mut ctx);
            g.value(y).clone()
        };
        assert!(run(&dense).allclose(&run(&sparse), 1e-4));
    }

    #[test]
    fn gtcn_sparse_runs_from_csr_bases_without_dense_adjacency() {
        let n = 6;
        let csr = enhancenet_tensor::CsrMatrix::from_dense(&ring_adjacency(n));
        let bases = enhancenet_graph::build_supports_csr(
            &csr,
            enhancenet_graph::SupportKind::DoubleTransition,
        );
        let mut m = WaveNet::gtcn_sparse(
            dims(n, 1),
            cfg(),
            TemporalMode::Distinct(small_dfgn()),
            GraphMode::paper_dynamic_topk(3),
            bases,
            2,
        );
        assert_eq!(m.name(), "D-DA-GTCN");

        // Every parameter — DAMGN memories, θ/φ, λs, DFGN, taps — gets a
        // gradient through the sparse path. (Grad check runs before any
        // other eval forward so the fold/filter caches are still cold and
        // the binding is tracked.)
        let x = TensorRng::seed(3).normal(&[2, 8, n, 1], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(4);
        let pred = {
            let mut ctx = ForwardCtx::eval(&mut rng);
            m.forward(&mut g, &x, &mut ctx)
        };
        let target = Tensor::ones(&[2, 4, n]);
        let mask = Tensor::ones(&[2, 4, n]);
        let loss = g.masked_mae(pred, &target, &mask);
        g.backward(loss);
        m.store_mut().zero_grad();
        g.write_grads(m.store_mut());
        let mut missing = Vec::new();
        for id in m.store().ids() {
            if m.store().grad(id).norm() == 0.0 {
                missing.push(m.store().name(id).to_string());
            }
        }
        assert!(missing.is_empty(), "params with zero grad: {missing:?}");
        forward_shape(&m, 2, n, 1);
    }

    #[test]
    fn eval_sparse_fold_cache_matches_tracked_path() {
        // First eval forward populates the sparse fold cache (pattern +
        // folded λ_B·B); the second is served from it, bit-identically.
        let a = ring_adjacency(4);
        let m = WaveNet::gtcn(
            dims(4, 1),
            cfg(),
            TemporalMode::Shared,
            GraphMode::paper_dynamic_topk(2),
            &a,
            3,
        );
        let x = TensorRng::seed(11).normal(&[2, 8, 4, 1], 0.0, 1.0);
        let run = || {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(1);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, &x, &mut ctx);
            g.value(y).clone()
        };
        let first = run();
        let second = run();
        assert!(first.allclose(&second, 0.0));
    }

    #[test]
    #[should_panic(expected = "gtcn_sparse requires DamgnConfig::top_k")]
    fn gtcn_sparse_rejects_dense_damgn_config() {
        let csr = enhancenet_tensor::CsrMatrix::from_dense(&ring_adjacency(4));
        let bases = enhancenet_graph::build_supports_csr(
            &csr,
            enhancenet_graph::SupportKind::DoubleTransition,
        );
        let _ = WaveNet::gtcn_sparse(
            dims(4, 1),
            cfg(),
            TemporalMode::Shared,
            GraphMode::paper_dynamic(),
            bases,
            1,
        );
    }

    #[test]
    fn predict_serves_eval_forward_without_tape_access() {
        let m = WaveNet::paper_tcn(dims(4, 1), 5);
        let window = TensorRng::seed(2).normal(&[8, 4, 1], 0.0, 1.0);
        let out = m.predict(&window).expect("well-shaped window predicts");
        assert_eq!(out.shape(), &[4, 4]);
        let bad = TensorRng::seed(2).normal(&[8, 3, 1], 0.0, 1.0);
        match m.predict(&bad) {
            Err(enhancenet::EnhanceNetError::InputShape { expected, .. }) => {
                assert_eq!(expected, vec![8, 4, 1]);
            }
            other => panic!("expected InputShape error, got {other:?}"),
        }
    }

    #[test]
    fn causality_last_input_step_affects_output() {
        // Perturbing the most recent timestamp must change the forecast.
        let m = WaveNet::tcn(dims(4, 1), cfg(), TemporalMode::Shared, 8);
        let x = TensorRng::seed(7).normal(&[1, 8, 4, 1], 0.0, 1.0);
        let mut x2 = x.clone();
        x2.set(&[0, 7, 0, 0], x.at(&[0, 7, 0, 0]) + 1.0);
        let run = |xx: &Tensor| {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(1);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, xx, &mut ctx);
            g.value(y).clone()
        };
        assert!(!run(&x).allclose(&run(&x2), 1e-7));
    }
}
