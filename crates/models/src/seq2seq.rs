//! GRU encoder–decoder forecasters: the RNN and GRNN families and all
//! their plugin-enhanced variants.
//!
//! One struct covers six of the paper's models, switched by two
//! orthogonal modes:
//!
//! * [`TemporalMode`] — shared filters vs DFGN-generated per-entity filters
//!   (the `D-` prefix),
//! * [`GraphMode`] — no graph convolution (RNN), ordinary GC over static
//!   supports (GRNN — this is exactly the DCRNN architecture \[21\]), or GC
//!   over DAMGN-generated dynamic adjacencies (the `DA-` prefix).
//!
//! The decoder consumes its own previous prediction (or, with scheduled
//! sampling during training, the ground truth) and is initialized with the
//! encoder's final hidden states, as in the paper's encoder–decoder setup.

use crate::config::{GraphMode, ModelDims, TemporalMode};
use enhancenet::dfgn::{gru_filter_dim_general, split_gru_filters_general};
use enhancenet::{graph_conv, Damgn, Dfgn, Forecaster, ForwardCtx, GcSupport};
use enhancenet_autodiff::{Graph, ParamId, ParamStore, PlanCache, Var};
use enhancenet_graph::build_supports;
use enhancenet_nn::cell::{gru_step, Gate};
use enhancenet_nn::{apply_entity_filter, Linear};
use enhancenet_tensor::{Tensor, TensorRng};

/// Per-layer GRU weights: plain parameters (shared or per-entity) or a
/// DFGN generator.
enum CellWeights {
    Shared {
        w: [ParamId; 3],
        u: [ParamId; 3],
    },
    /// Stored per-entity filters `[N, c, C']` — the straightforward method.
    Straightforward {
        w: [ParamId; 3],
        u: [ParamId; 3],
    },
    Generated(Dfgn),
}

struct GruLayer {
    weights: CellWeights,
    biases: [ParamId; 3],
    /// Effective x-side input width (includes GC hop expansion).
    c_x: usize,
    /// Effective h-side input width.
    c_h: usize,
    /// Output (hidden) width.
    c_out: usize,
}

/// Weights bound into the active tape.
struct BoundLayer {
    w: [Var; 3],
    u: [Var; 3],
    b: [Var; 3],
}

fn gate_index(gate: Gate) -> usize {
    match gate {
        Gate::Reset => 0,
        Gate::Update => 1,
        Gate::Candidate => 2,
        Gate::Output => unreachable!("GRU has no output gate"),
    }
}

impl GruLayer {
    #[allow(clippy::too_many_arguments)]
    fn new(
        store: &mut ParamStore,
        rng: &mut TensorRng,
        name: &str,
        c_x: usize,
        c_h: usize,
        c_out: usize,
        temporal: &TemporalMode,
        shared_memory: Option<ParamId>,
        num_entities: Option<usize>,
    ) -> Self {
        let weights = match temporal {
            TemporalMode::Shared => {
                let gates = ["r", "u", "h"];
                let w = std::array::from_fn(|i| {
                    store.add(
                        format!("{name}.w_{}", gates[i]),
                        rng.xavier(&[c_x, c_out], c_x, c_out),
                    )
                });
                let u = std::array::from_fn(|i| {
                    store.add(
                        format!("{name}.u_{}", gates[i]),
                        rng.xavier(&[c_h, c_out], c_h, c_out),
                    )
                });
                CellWeights::Shared { w, u }
            }
            TemporalMode::Straightforward => {
                let n = num_entities.expect("straightforward mode requires the entity count");
                let gates = ["r", "u", "h"];
                let w = std::array::from_fn(|i| {
                    store.add(
                        format!("{name}.w_{}", gates[i]),
                        rng.xavier(&[n, c_x, c_out], c_x, c_out),
                    )
                });
                let u = std::array::from_fn(|i| {
                    store.add(
                        format!("{name}.u_{}", gates[i]),
                        rng.xavier(&[n, c_h, c_out], c_h, c_out),
                    )
                });
                CellWeights::Straightforward { w, u }
            }
            TemporalMode::Distinct(cfg) => {
                let o = gru_filter_dim_general(c_x, c_h, c_out);
                let memory = shared_memory.expect("distinct mode requires a shared memory table");
                CellWeights::Generated(Dfgn::with_shared_memory(
                    store,
                    rng,
                    &format!("{name}.dfgn"),
                    memory,
                    o,
                    *cfg,
                ))
            }
        };
        let gates = ["r", "u", "h"];
        let biases = std::array::from_fn(|i| {
            store.add(format!("{name}.b_{}", gates[i]), Tensor::zeros(&[c_out]))
        });
        Self { weights, biases, c_x, c_h, c_out }
    }

    fn bind(&self, g: &mut Graph, store: &ParamStore) -> BoundLayer {
        let b = std::array::from_fn(|i| g.param(store, self.biases[i]));
        match &self.weights {
            CellWeights::Shared { w, u } | CellWeights::Straightforward { w, u } => BoundLayer {
                w: std::array::from_fn(|i| g.param(store, w[i])),
                u: std::array::from_fn(|i| g.param(store, u[i])),
                b,
            },
            CellWeights::Generated(dfgn) => {
                let generated = dfgn.generate(g, store);
                let f = split_gru_filters_general(g, generated, self.c_x, self.c_h, self.c_out);
                BoundLayer { w: f.w, u: f.u, b }
            }
        }
    }

    /// One GRU step for `x ∈ [B, N, c_in]`, `h ∈ [B, N, C']`. When
    /// `supports` is given, every filter application is a graph convolution
    /// (§V-C1's replacement of matrix multiplication by `⋆_G`).
    fn step(
        &self,
        g: &mut Graph,
        bound: &BoundLayer,
        x: Var,
        h: Var,
        supports: Option<(&[GcSupport], usize)>,
    ) -> Var {
        gru_step(
            g,
            x,
            h,
            |g, v, gate| match supports {
                None => apply_entity_filter(g, v, bound.w[gate_index(gate)]),
                Some((s, k)) => graph_conv(g, s, v, bound.w[gate_index(gate)], None, k),
            },
            |g, v, gate| match supports {
                None => apply_entity_filter(g, v, bound.u[gate_index(gate)]),
                Some((s, k)) => graph_conv(g, s, v, bound.u[gate_index(gate)], None, k),
            },
            |_, gate| Some(bound.b[gate_index(gate)]),
        )
    }
}

/// Static graph pieces owned by the model.
struct GraphParts {
    /// Normalized base supports (constants bound per tape).
    supports: Vec<Tensor>,
    k_hops: usize,
    damgn: Option<Damgn>,
}

/// GRU encoder–decoder forecaster (RNN / GRNN family).
pub struct GruSeq2Seq {
    name: String,
    store: ParamStore,
    dims: ModelDims,
    enc: Vec<GruLayer>,
    dec: Vec<GruLayer>,
    head: Linear,
    graph: Option<GraphParts>,
    /// Compiled eval-forward plans, keyed by input shape and store version.
    plan_cache: PlanCache,
}

impl GruSeq2Seq {
    /// A pure temporal model: `RNN` (shared filters) or `D-RNN` (DFGN).
    pub fn rnn(dims: ModelDims, num_layers: usize, temporal: TemporalMode, seed: u64) -> Self {
        Self::build(dims, num_layers, temporal, GraphMode::None, None, seed)
    }

    /// A graph-convolutional model: `GRNN`, `D-GRNN`, `DA-GRNN` or
    /// `D-DA-GRNN` depending on the modes. `adjacency` is the raw
    /// distance-derived matrix `A`; supports are derived per `graph_mode`.
    pub fn grnn(
        dims: ModelDims,
        num_layers: usize,
        temporal: TemporalMode,
        graph_mode: GraphMode,
        adjacency: &Tensor,
        seed: u64,
    ) -> Self {
        assert!(graph_mode.uses_graph(), "grnn requires a graph mode");
        Self::build(dims, num_layers, temporal, graph_mode, Some(adjacency), seed)
    }

    /// Paper preset `RNN`: shared filters, no graph convolution.
    pub fn paper_rnn(dims: ModelDims, num_layers: usize, seed: u64) -> Self {
        Self::rnn(dims, num_layers, TemporalMode::Shared, seed)
    }

    /// Paper preset `D-RNN`: DFGN per-entity filters, no graph convolution.
    pub fn paper_d_rnn(dims: ModelDims, num_layers: usize, seed: u64) -> Self {
        Self::rnn(dims, num_layers, TemporalMode::Distinct(enhancenet::DfgnConfig::default()), seed)
    }

    /// Paper preset `GRNN` (DCRNN): shared filters, static dual-transition
    /// supports.
    pub fn paper_grnn(dims: ModelDims, num_layers: usize, adjacency: &Tensor, seed: u64) -> Self {
        Self::grnn(
            dims,
            num_layers,
            TemporalMode::Shared,
            GraphMode::paper_static(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `D-GRNN`: DFGN filters over static supports.
    pub fn paper_d_grnn(dims: ModelDims, num_layers: usize, adjacency: &Tensor, seed: u64) -> Self {
        Self::grnn(
            dims,
            num_layers,
            TemporalMode::Distinct(enhancenet::DfgnConfig::default()),
            GraphMode::paper_static(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `DA-GRNN`: shared filters over DAMGN dynamic
    /// adjacencies.
    pub fn paper_da_grnn(
        dims: ModelDims,
        num_layers: usize,
        adjacency: &Tensor,
        seed: u64,
    ) -> Self {
        Self::grnn(
            dims,
            num_layers,
            TemporalMode::Shared,
            GraphMode::paper_dynamic(),
            adjacency,
            seed,
        )
    }

    /// Paper preset `D-DA-GRNN`: both plugins — the paper's strongest RNN
    /// variant.
    pub fn paper_d_da_grnn(
        dims: ModelDims,
        num_layers: usize,
        adjacency: &Tensor,
        seed: u64,
    ) -> Self {
        Self::grnn(
            dims,
            num_layers,
            TemporalMode::Distinct(enhancenet::DfgnConfig::default()),
            GraphMode::paper_dynamic(),
            adjacency,
            seed,
        )
    }

    fn build(
        dims: ModelDims,
        num_layers: usize,
        temporal: TemporalMode,
        graph_mode: GraphMode,
        adjacency: Option<&Tensor>,
        seed: u64,
    ) -> Self {
        assert!(num_layers >= 1, "need at least one GRU layer");
        let mut store = ParamStore::new();
        let mut rng = TensorRng::seed(seed);
        let n = dims.num_entities;

        // Shared entity-memory table for all DFGNs in this model.
        let shared_memory = match &temporal {
            TemporalMode::Distinct(cfg) => {
                let bound = 1.0 / (cfg.memory_dim as f32).sqrt();
                Some(store.add("memory", rng.uniform(&[n, cfg.memory_dim], -bound, bound)))
            }
            TemporalMode::Shared | TemporalMode::Straightforward => None,
        };

        // Graph pieces.
        let (graph, num_supports, k_hops) = match graph_mode {
            GraphMode::None => (None, 0, 0),
            GraphMode::Static { kind, k_hops } => {
                let a = adjacency.expect("static graph mode requires an adjacency");
                let supports = build_supports(a, kind);
                let count = supports.len();
                let parts = GraphParts { supports, k_hops, damgn: None };
                (Some(parts), count, k_hops)
            }
            GraphMode::Dynamic { kind, k_hops, damgn } => {
                let a = adjacency.expect("dynamic graph mode requires an adjacency");
                let supports = build_supports(a, kind);
                let count = supports.len();
                // DAMGN attends over the target feature (see DESIGN.md):
                // one embedding size works for both encoder and decoder.
                let damgn = Damgn::new(&mut store, &mut rng, "damgn", n, 1, damgn);
                let parts = GraphParts { supports, k_hops, damgn: Some(damgn) };
                (Some(parts), count, k_hops)
            }
            GraphMode::AdaptiveStatic { .. } => {
                panic!("AdaptiveStatic is a WaveNet-family mode (Graph WaveNet baseline)")
            }
        };
        let expand = |c: usize| {
            if num_supports == 0 {
                c
            } else {
                (1 + num_supports * k_hops) * c
            }
        };

        let hidden = dims.hidden;
        let make_stack = |store: &mut ParamStore, rng: &mut TensorRng, tag: &str, c0: usize| {
            (0..num_layers)
                .map(|l| {
                    let c_in = if l == 0 { c0 } else { hidden };
                    GruLayer::new(
                        store,
                        rng,
                        &format!("{tag}{l}"),
                        expand(c_in),
                        expand(hidden),
                        hidden,
                        &temporal,
                        shared_memory,
                        Some(n),
                    )
                })
                .collect::<Vec<_>>()
        };
        let enc = make_stack(&mut store, &mut rng, "enc", dims.in_features);
        let dec = make_stack(&mut store, &mut rng, "dec", 1);
        let head = Linear::new(&mut store, &mut rng, "head", hidden, 1, true);

        let name = match graph_mode {
            GraphMode::None => format!("{}RNN", temporal.prefix()),
            _ => format!("{}{}GRNN", temporal.prefix(), graph_mode.prefix()),
        };
        Self { name, store, dims, enc, dec, head, graph, plan_cache: PlanCache::new() }
    }

    /// Builds the per-timestep supports (static constants or DAMGN dynamic
    /// adjacencies derived from the target-feature signal `signal_t`).
    fn supports_at(
        &self,
        g: &mut Graph,
        base: &Option<Vec<Var>>,
        binding: &Option<enhancenet::DamgnBinding>,
        signal_t: Var,
    ) -> Option<Vec<GcSupport>> {
        let parts = self.graph.as_ref()?;
        let base = base.as_ref().expect("supports bound with graph parts");
        match (&parts.damgn, binding) {
            (Some(damgn), Some(binding)) => Some(
                damgn
                    .dynamic_supports_at(g, binding, signal_t)
                    .into_iter()
                    .map(GcSupport::Dynamic)
                    .collect(),
            ),
            _ => Some(base.iter().map(|&v| GcSupport::Static(v)).collect()),
        }
    }

    /// The DFGN memory parameter, when this is a `D-` variant (Figure 10).
    pub fn memory_id(&self) -> Option<ParamId> {
        match &self.enc[0].weights {
            CellWeights::Generated(dfgn) => Some(dfgn.memory_id()),
            _ => None,
        }
    }

    /// The DAMGN module, when this is a `DA-` variant (Figure 12).
    pub fn damgn(&self) -> Option<&Damgn> {
        self.graph.as_ref()?.damgn.as_ref()
    }
}

impl Forecaster for GruSeq2Seq {
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
        GruSeq2Seq::damgn(self)
    }

    fn memory_id(&self) -> Option<ParamId> {
        GruSeq2Seq::memory_id(self)
    }

    fn plan_cache(&self) -> Option<&PlanCache> {
        Some(&self.plan_cache)
    }

    fn forward_on(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var {
        let (b, h_len, n, c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(n, self.dims.num_entities, "entity count mismatch");
        assert_eq!(c, self.dims.in_features, "feature count mismatch");
        assert_eq!(h_len, self.dims.input_len, "input length mismatch");
        let f_len = self.dims.output_len;

        // Bind graph constants and the DAMGN static mix once per tape.
        let base_supports: Option<Vec<Var>> = self
            .graph
            .as_ref()
            .map(|parts| parts.supports.iter().map(|s| g.constant(s.clone())).collect());
        let damgn_binding = match (&self.graph, &base_supports) {
            (Some(parts), Some(base)) => {
                parts.damgn.as_ref().map(|damgn| damgn.bind(g, store, base))
            }
            _ => None,
        };
        let enc_bound: Vec<BoundLayer> = self.enc.iter().map(|l| l.bind(g, store)).collect();
        let dec_bound: Vec<BoundLayer> = self.dec.iter().map(|l| l.bind(g, store)).collect();
        let k_hops = self.graph.as_ref().map_or(0, |p| p.k_hops);

        // Eval traces read the window through a single input leaf so the
        // trace compiles to a reusable plan ([`PlanCache`]); training keeps
        // the cheaper per-timestep constants (graph-level slicing would
        // drag the whole window through every backward step).
        let xin = (!ctx.training).then(|| g.input(x.clone()));

        // ---------------------------------------------------------- encoder
        let mut hidden: Vec<Var> = (0..self.enc.len())
            .map(|_| g.constant(Tensor::zeros(&[b, n, self.dims.hidden])))
            .collect();
        for t in 0..h_len {
            let xt = match xin {
                Some(xv) => g.index_axis(xv, 1, t), // [B, N, C]
                None => g.constant(x.index_axis(1, t)),
            };
            let signal = g.slice_axis(xt, -1, 0, 1); // target feature
            let sup = self.supports_at(g, &base_supports, &damgn_binding, signal);
            let mut input = xt;
            for (l, layer) in self.enc.iter().enumerate() {
                hidden[l] = layer.step(
                    g,
                    &enc_bound[l],
                    input,
                    hidden[l],
                    sup.as_ref().map(|s| (s.as_slice(), k_hops)),
                );
                input = hidden[l];
            }
        }

        // ---------------------------------------------------------- decoder
        let mut dec_hidden = hidden; // warm start from the encoder
        let mut dec_in = g.constant(Tensor::zeros(&[b, n, 1])); // GO token
        let mut outputs = Vec::with_capacity(f_len);
        for t in 0..f_len {
            let sup = self.supports_at(g, &base_supports, &damgn_binding, dec_in);
            let mut input = dec_in;
            for (l, layer) in self.dec.iter().enumerate() {
                dec_hidden[l] = layer.step(
                    g,
                    &dec_bound[l],
                    input,
                    dec_hidden[l],
                    sup.as_ref().map(|s| (s.as_slice(), k_hops)),
                );
                input = dec_hidden[l];
            }
            let pred = self.head.forward(g, store, input); // [B, N, 1]
            outputs.push(g.reshape(pred, &[b, 1, n]));
            dec_in = if ctx.use_teacher() {
                let teacher = ctx.teacher.expect("use_teacher implies teacher");
                g.constant(teacher.index_axis(1, t).reshape(&[b, n, 1]))
            } else {
                pred
            };
        }
        g.concat(&outputs, 1) // [B, F, N]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet::{DamgnConfig, DfgnConfig};
    use enhancenet_graph::SupportKind;

    fn dims(n: usize, c: usize) -> ModelDims {
        ModelDims { num_entities: n, in_features: c, hidden: 8, input_len: 4, output_len: 3 }
    }

    fn small_dfgn() -> DfgnConfig {
        DfgnConfig { memory_dim: 4, hidden1: 8, hidden2: 3 }
    }

    fn ring_adjacency(n: usize) -> Tensor {
        let mut a = Tensor::zeros(&[n, n]);
        for i in 0..n {
            a.set(&[i, (i + 1) % n], 1.0);
            a.set(&[(i + 1) % n, i], 0.5);
        }
        a
    }

    fn forward_shape(model: &GruSeq2Seq, b: usize) {
        let x = TensorRng::seed(9).normal(&[b, 4, 5, 2], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(1);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = model.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[b, 3, 5]);
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn rnn_forward_shape_and_name() {
        let m = GruSeq2Seq::rnn(dims(5, 2), 2, TemporalMode::Shared, 1);
        assert_eq!(m.name(), "RNN");
        assert!(m.memory_id().is_none());
        forward_shape(&m, 3);
    }

    #[test]
    fn drnn_forward_shape_and_name() {
        let m = GruSeq2Seq::rnn(dims(5, 2), 2, TemporalMode::Distinct(small_dfgn()), 1);
        assert_eq!(m.name(), "D-RNN");
        assert!(m.memory_id().is_some());
        forward_shape(&m, 2);
    }

    #[test]
    fn grnn_variants_name_and_shape() {
        let a = ring_adjacency(5);
        let combos: Vec<(TemporalMode, GraphMode, &str)> = vec![
            (TemporalMode::Shared, GraphMode::paper_static(), "GRNN"),
            (TemporalMode::Distinct(small_dfgn()), GraphMode::paper_static(), "D-GRNN"),
            (TemporalMode::Shared, GraphMode::paper_dynamic(), "DA-GRNN"),
            (TemporalMode::Distinct(small_dfgn()), GraphMode::paper_dynamic(), "D-DA-GRNN"),
        ];
        for (t, gm, expected) in combos {
            let m = GruSeq2Seq::grnn(dims(5, 2), 2, t, gm, &a, 1);
            assert_eq!(m.name(), expected);
            forward_shape(&m, 2);
        }
    }

    #[test]
    fn da_variant_exposes_damgn() {
        let a = ring_adjacency(5);
        let m = GruSeq2Seq::grnn(
            dims(5, 2),
            1,
            TemporalMode::Shared,
            GraphMode::Dynamic {
                kind: SupportKind::SingleTransition,
                k_hops: 1,
                damgn: DamgnConfig { b_memory_dim: 3, embed_dim: 2, top_k: None },
            },
            &a,
            1,
        );
        assert!(m.damgn().is_some());
    }

    #[test]
    fn dfgn_reduces_parameters_vs_wide_shared() {
        // The paper's Table I point: D-RNN with C' = 16 has far fewer
        // parameters than RNN with C' = 64.
        let mut wide = dims(50, 2);
        wide.hidden = 64;
        let mut narrow = dims(50, 2);
        narrow.hidden = 16;
        let base = GruSeq2Seq::rnn(wide, 2, TemporalMode::Shared, 1);
        let d = GruSeq2Seq::rnn(narrow, 2, TemporalMode::Distinct(DfgnConfig::default()), 1);
        assert!(
            d.num_parameters() < base.num_parameters(),
            "D-RNN {} should be smaller than RNN {}",
            d.num_parameters(),
            base.num_parameters()
        );
    }

    #[test]
    fn gradients_flow_to_every_parameter_rnn() {
        let m = GruSeq2Seq::rnn(dims(4, 1), 2, TemporalMode::Shared, 2);
        check_all_grads(m);
    }

    #[test]
    fn gradients_flow_to_every_parameter_d_da_grnn() {
        let a = ring_adjacency(4);
        let m = GruSeq2Seq::grnn(
            ModelDims { num_entities: 4, in_features: 1, hidden: 6, input_len: 4, output_len: 3 },
            2,
            TemporalMode::Distinct(small_dfgn()),
            GraphMode::paper_dynamic(),
            &a,
            // Seed 2 draws generator weights whose tiny (8->3) ReLU stack is
            // fully dead for this 4-entity config, making zero generator
            // grads a property of the draw rather than a bug; seed 3 keeps
            // every unit alive so the test checks what it means to.
            3,
        );
        check_all_grads(m);
    }

    fn check_all_grads(mut m: GruSeq2Seq) {
        let n = m.dims.num_entities;
        let c = m.dims.in_features;
        let x = TensorRng::seed(3).normal(&[2, 4, n, c], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(4);
        let pred = {
            let mut ctx = ForwardCtx::eval(&mut rng);
            m.forward(&mut g, &x, &mut ctx)
        };
        let target = Tensor::ones(&[2, 3, n]);
        let mask = Tensor::ones(&[2, 3, n]);
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
    fn teacher_forcing_changes_training_forward() {
        let m = GruSeq2Seq::rnn(dims(5, 2), 1, TemporalMode::Shared, 5);
        let x = TensorRng::seed(10).normal(&[1, 4, 5, 2], 0.0, 1.0);
        let teacher = TensorRng::seed(11).normal(&[1, 3, 5], 0.0, 1.0);

        let mut g1 = Graph::new();
        let mut rng1 = TensorRng::seed(12);
        let mut ctx1 = ForwardCtx::train(&mut rng1, &teacher, 1.0);
        let y_forced = m.forward(&mut g1, &x, &mut ctx1);

        let mut g2 = Graph::new();
        let mut rng2 = TensorRng::seed(12);
        let mut ctx2 = ForwardCtx::train(&mut rng2, &teacher, 0.0);
        let y_free = m.forward(&mut g2, &x, &mut ctx2);

        // First step is identical (GO token), later steps diverge.
        assert!(!g1.value(y_forced).allclose(g2.value(y_free), 1e-6));
        let first_forced = g1.value(y_forced).index_axis(1, 0);
        let first_free = g2.value(y_free).index_axis(1, 0);
        assert!(first_forced.allclose(&first_free, 1e-6));
    }

    #[test]
    fn straightforward_mode_name_shape_and_param_ordering() {
        // §IV's three methods at a realistic N: naive < DFGN < straightforward.
        let n = 80;
        let d =
            ModelDims { num_entities: n, in_features: 1, hidden: 8, input_len: 4, output_len: 3 };
        let naive = GruSeq2Seq::rnn(d, 1, TemporalMode::Shared, 1);
        let dfgn = GruSeq2Seq::rnn(d, 1, TemporalMode::Distinct(small_dfgn()), 1);
        let straightforward = GruSeq2Seq::rnn(d, 1, TemporalMode::Straightforward, 1);
        assert_eq!(straightforward.name(), "S-RNN");
        assert!(naive.num_parameters() < dfgn.num_parameters());
        assert!(dfgn.num_parameters() < straightforward.num_parameters());
        // And it runs.
        let x = TensorRng::seed(2).normal(&[2, 4, n, 1], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(3);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = straightforward.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[2, 3, n]);
    }

    #[test]
    fn paper_presets_match_explicit_modes() {
        let a = ring_adjacency(5);
        let cases: Vec<(GruSeq2Seq, &str)> = vec![
            (GruSeq2Seq::paper_rnn(dims(5, 2), 2, 1), "RNN"),
            (GruSeq2Seq::paper_d_rnn(dims(5, 2), 2, 1), "D-RNN"),
            (GruSeq2Seq::paper_grnn(dims(5, 2), 2, &a, 1), "GRNN"),
            (GruSeq2Seq::paper_d_grnn(dims(5, 2), 2, &a, 1), "D-GRNN"),
            (GruSeq2Seq::paper_da_grnn(dims(5, 2), 2, &a, 1), "DA-GRNN"),
            (GruSeq2Seq::paper_d_da_grnn(dims(5, 2), 2, &a, 1), "D-DA-GRNN"),
        ];
        for (m, expected) in cases {
            assert_eq!(m.name(), expected);
            assert_eq!(m.input_shape(), Some([4, 5, 2]));
            forward_shape(&m, 2);
        }
    }

    #[test]
    fn predict_serves_eval_forward_without_tape_access() {
        let a = ring_adjacency(5);
        let m = GruSeq2Seq::paper_da_grnn(dims(5, 2), 1, &a, 19);
        let x = TensorRng::seed(24).normal(&[4, 5, 2], 0.0, 1.0);
        let p = m.predict(&x).unwrap();
        assert_eq!(p.shape(), &[3, 5]);
        match m.predict(&TensorRng::seed(25).normal(&[4, 9, 2], 0.0, 1.0)) {
            Err(enhancenet::EnhanceNetError::InputShape { expected, .. }) => {
                assert_eq!(expected, vec![4, 5, 2]);
            }
            other => panic!("expected InputShape, got {other:?}"),
        }
    }

    #[test]
    fn per_entity_filters_give_entity_specific_behaviour() {
        // With distinct filters, feeding identical series to every entity
        // must still produce different predictions per entity, which shared
        // filters cannot do (they are permutation-equivariant).
        let m_shared = GruSeq2Seq::rnn(dims(5, 1), 1, TemporalMode::Shared, 7);
        let m_distinct = GruSeq2Seq::rnn(dims(5, 1), 1, TemporalMode::Distinct(small_dfgn()), 7);
        let mut x = Tensor::zeros(&[1, 4, 5, 1]);
        for t in 0..4 {
            for e in 0..5 {
                x.set(&[0, t, e, 0], (t as f32 * 0.4).sin());
            }
        }
        let spread = |m: &GruSeq2Seq| -> f32 {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(8);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, &x, &mut ctx);
            // Std over the entity axis at the last horizon.
            let last = g.value(y).index_axis(1, 2);
            let mean = last.mean_all();
            last.map(|v| (v - mean) * (v - mean)).mean_all().sqrt()
        };
        assert!(spread(&m_shared) < 1e-6, "shared filters must be entity-symmetric");
        assert!(spread(&m_distinct) > 1e-6, "distinct filters must break symmetry");
    }
}
