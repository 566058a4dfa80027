//! The Distinct Filter Generation Network (DFGN, §IV-C).
//!
//! Each entity `i` owns a trainable memory `M⁽ⁱ⁾ ∈ R^m` ("randomly
//! initialized but trainable"). A single shared feed-forward network with
//! two hidden layers maps each memory to that entity's filters:
//! `W⁽ⁱ⁾ = DFGN(M⁽ⁱ⁾)`. Because the generator is shared, the parameter
//! count is `N·m + m·n₁ + n₁·n₂ + n₂·o` — compare `N·o` for the
//! "straightforward" per-entity filters (§IV-C's analysis).
//!
//! Gradients flow through the generated filters back into both the MLP and
//! the memories, which is what lets the memories organize by temporal
//! behaviour (Figures 10–11).
//!
//! At prediction time training has fixed the filters (§VI-B4: "we do not
//! need to use DFGN anymore"). Hosts always trace [`Dfgn::generate`]; a
//! compiled plan folds the generated filters into constants, because they
//! do not depend on the request (see `enhancenet_autodiff::Plan`).

use enhancenet_autodiff::{Graph, ParamId, ParamStore, Var};
use enhancenet_nn::mlp::{Activation, Mlp};
use enhancenet_tensor::TensorRng;

/// DFGN hyper-parameters. Paper defaults (§VI-A): `m = 16`, `n1 = 16`,
/// `n2 = 4`, memories initialized uniformly.
#[derive(Debug, Clone, Copy)]
pub struct DfgnConfig {
    /// Memory size `m`.
    pub memory_dim: usize,
    /// First hidden width `n₁`.
    pub hidden1: usize,
    /// Second hidden width `n₂`.
    pub hidden2: usize,
}

impl Default for DfgnConfig {
    fn default() -> Self {
        Self { memory_dim: 16, hidden1: 16, hidden2: 4 }
    }
}

/// One DFGN: entity memories plus the shared generator MLP producing `o`
/// filter scalars per entity.
pub struct Dfgn {
    memory: ParamId,
    generator: Mlp,
    num_entities: usize,
    out_dim: usize,
}

impl Dfgn {
    /// Creates a DFGN for `num_entities` entities generating `out_dim`
    /// filter parameters each. Memories are uniform in ±1/√m as in the
    /// paper's "randomly initialize each entity's memory … using a uniform
    /// distribution".
    pub fn new(
        store: &mut ParamStore,
        rng: &mut TensorRng,
        name: &str,
        num_entities: usize,
        out_dim: usize,
        config: DfgnConfig,
    ) -> Self {
        let bound = 1.0 / (config.memory_dim as f32).sqrt();
        let memory = store.add(
            format!("{name}.memory"),
            rng.uniform(&[num_entities, config.memory_dim], -bound, bound),
        );
        let generator = Mlp::new(
            store,
            rng,
            &format!("{name}.generator"),
            &[config.memory_dim, config.hidden1, config.hidden2, out_dim],
            Activation::Relu,
        );
        Self { memory, generator, num_entities, out_dim }
    }

    /// Creates a DFGN that **reuses an existing memory table** instead of
    /// allocating its own. This is how a multi-layer host shares one memory
    /// per entity across per-layer generators — "the inputs to the
    /// different DFGNs at different layers come from the same memory vector
    /// M⁽ⁱ⁾" (§IV-C2, Figure 8).
    pub fn with_shared_memory(
        store: &mut ParamStore,
        rng: &mut TensorRng,
        name: &str,
        memory: ParamId,
        out_dim: usize,
        config: DfgnConfig,
    ) -> Self {
        let shape = store.value(memory).shape();
        assert_eq!(shape.len(), 2, "memory must be [N, m]");
        assert_eq!(shape[1], config.memory_dim, "memory width must equal config.memory_dim");
        let num_entities = shape[0];
        let generator = Mlp::new(
            store,
            rng,
            &format!("{name}.generator"),
            &[config.memory_dim, config.hidden1, config.hidden2, out_dim],
            Activation::Relu,
        );
        Self { memory, generator, num_entities, out_dim }
    }

    /// Runs the generator for all entities at once: returns `[N, out_dim]`.
    pub fn generate(&self, g: &mut Graph, store: &ParamStore) -> Var {
        let _timer = enhancenet_telemetry::span("dfgn.generate");
        if enhancenet_telemetry::enabled() {
            enhancenet_telemetry::count("dfgn.generate.calls", 1);
            enhancenet_telemetry::count(
                "dfgn.generate.filters",
                (self.num_entities * self.out_dim) as u64,
            );
        }
        let m = g.param(store, self.memory);
        self.generator.forward(g, store, m)
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Filter scalars generated per entity (`o` in the paper's analysis).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The memory parameter (exposed so experiments can inspect the learned
    /// memories for Figures 10–11).
    pub fn memory_id(&self) -> ParamId {
        self.memory
    }

    /// §IV-C's parameter-count formula for one DFGN:
    /// `N·m + m·n₁ + n₁·n₂ + n₂·o` (weights; biases add `n₁+n₂+o`).
    pub fn parameter_formula(n: usize, o: usize, cfg: DfgnConfig, include_biases: bool) -> usize {
        let weights = n * cfg.memory_dim
            + cfg.memory_dim * cfg.hidden1
            + cfg.hidden1 * cfg.hidden2
            + cfg.hidden2 * o;
        if include_biases {
            weights + cfg.hidden1 + cfg.hidden2 + o
        } else {
            weights
        }
    }
}

/// The six generated GRU filters of Eq. 10, reshaped per entity:
/// `W_r, W_u, W_h ∈ [N, C, C']` and `U_r, U_u, U_h ∈ [N, C', C']`.
pub struct GeneratedGruFilters {
    /// x-side filters indexed by gate (reset, update, candidate).
    pub w: [Var; 3],
    /// h-side filters indexed by gate.
    pub u: [Var; 3],
}

/// Output width a GRU DFGN must generate: `o = 3·C'·(C + C')` (§IV-C1).
pub fn gru_filter_dim(c_in: usize, c_hidden: usize) -> usize {
    3 * c_hidden * (c_in + c_hidden)
}

/// Splits a generated `[N, 3·C'·(C+C')]` block into the six per-entity GRU
/// filters of [`GeneratedGruFilters`].
pub fn split_gru_filters(
    g: &mut Graph,
    generated: Var,
    c_in: usize,
    c_hidden: usize,
) -> GeneratedGruFilters {
    assert_eq!(
        g.value(generated).shape()[1],
        gru_filter_dim(c_in, c_hidden),
        "generated width must be 3*C'*(C+C')"
    );
    split_gru_filters_general(g, generated, c_in, c_hidden, c_hidden)
}

/// Output width for a GRU whose x-side filters map `c_x → c_out` and whose
/// h-side filters map `c_h → c_out` (the graph-convolutional GRU case,
/// where the effective input widths include the diffusion hops):
/// `o = 3·c_out·(c_x + c_h)`.
pub fn gru_filter_dim_general(c_x: usize, c_h: usize, c_out: usize) -> usize {
    3 * c_out * (c_x + c_h)
}

/// Generalized splitter: W filters `[N, c_x, c_out]` ×3 followed by U
/// filters `[N, c_h, c_out]` ×3.
pub fn split_gru_filters_general(
    g: &mut Graph,
    generated: Var,
    c_x: usize,
    c_h: usize,
    c_out: usize,
) -> GeneratedGruFilters {
    let n = g.value(generated).shape()[0];
    assert_eq!(
        g.value(generated).shape()[1],
        gru_filter_dim_general(c_x, c_h, c_out),
        "generated width must be 3*c_out*(c_x + c_h)"
    );
    let w_block = c_x * c_out;
    let u_block = c_h * c_out;
    let mut offset = 0;
    let mut take = |g: &mut Graph, len: usize, shape: &[usize]| {
        let s = g.slice_axis(generated, 1, offset, offset + len);
        offset += len;
        g.reshape(s, shape)
    };
    let w = [
        take(g, w_block, &[n, c_x, c_out]),
        take(g, w_block, &[n, c_x, c_out]),
        take(g, w_block, &[n, c_x, c_out]),
    ];
    let u = [
        take(g, u_block, &[n, c_h, c_out]),
        take(g, u_block, &[n, c_h, c_out]),
        take(g, u_block, &[n, c_h, c_out]),
    ];
    GeneratedGruFilters { w, u }
}

/// Output width a TCN-layer DFGN must generate: `o = C'·C·K` (§IV-C2).
pub fn tcn_filter_dim(c_in: usize, c_out: usize, kernel: usize) -> usize {
    c_out * c_in * kernel
}

/// Splits a generated `[N, C'·C·K]` block into per-tap per-entity filters
/// `[N, C, C']`, one per kernel tap.
pub fn split_tcn_filters(
    g: &mut Graph,
    generated: Var,
    c_in: usize,
    c_out: usize,
    kernel: usize,
) -> Vec<Var> {
    let n = g.value(generated).shape()[0];
    assert_eq!(
        g.value(generated).shape()[1],
        tcn_filter_dim(c_in, c_out, kernel),
        "generated width must be C'*C*K"
    );
    let block = c_in * c_out;
    (0..kernel)
        .map(|k| {
            let s = g.slice_axis(generated, 1, k * block, (k + 1) * block);
            g.reshape(s, &[n, c_in, c_out])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet_tensor::Tensor;

    fn make(n: usize, o: usize) -> (ParamStore, Dfgn) {
        let mut store = ParamStore::new();
        let mut rng = TensorRng::seed(1);
        let dfgn = Dfgn::new(&mut store, &mut rng, "dfgn", n, o, DfgnConfig::default());
        (store, dfgn)
    }

    #[test]
    fn generates_per_entity_filters() {
        let (store, dfgn) = make(5, 12);
        let mut g = Graph::new();
        let out = dfgn.generate(&mut g, &store);
        assert_eq!(g.value(out).shape(), &[5, 12]);
        // Different entities get different filters (memories differ).
        let row0 = g.value(out).index_axis(0, 0);
        let row1 = g.value(out).index_axis(0, 1);
        assert!(!row0.allclose(&row1, 1e-6));
    }

    #[test]
    fn parameter_count_matches_paper_formula() {
        let (store, _) = make(50, 24);
        let expected = Dfgn::parameter_formula(50, 24, DfgnConfig::default(), true);
        assert_eq!(store.num_scalars(), expected);
    }

    #[test]
    fn parameter_count_is_nearly_flat_in_n() {
        // §IV-C: "except the entity memories, the number of parameters …
        // does not increase with the number of entities N".
        let cfg = DfgnConfig::default();
        let p_small = Dfgn::parameter_formula(10, 100, cfg, true);
        let p_large = Dfgn::parameter_formula(1000, 100, cfg, true);
        assert_eq!(p_large - p_small, (1000 - 10) * cfg.memory_dim);
    }

    #[test]
    fn dfgn_is_far_smaller_than_straightforward_method() {
        // Straightforward per-entity GRU filters: N·3·C'(C+C').
        let (n, c, ch) = (200, 2, 64);
        let o = gru_filter_dim(c, ch);
        let straightforward = n * o;
        let dfgn = Dfgn::parameter_formula(n, o, DfgnConfig::default(), true);
        assert!(
            dfgn * 10 < straightforward,
            "dfgn {dfgn} should be >10x smaller than straightforward {straightforward}"
        );
    }

    #[test]
    fn gradients_reach_memories_through_generated_filters() {
        let (mut store, dfgn) = make(4, 6);
        let mut g = Graph::new();
        let filters = dfgn.generate(&mut g, &store);
        let sq = g.square(filters);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.write_grads(&mut store);
        assert!(store.grad(dfgn.memory_id()).norm() > 0.0);
    }

    #[test]
    fn split_gru_filters_shapes_and_content() {
        let (n, c, ch) = (3, 2, 4);
        let o = gru_filter_dim(c, ch);
        let mut g = Graph::new();
        let gen = g.constant(Tensor::from_vec((0..n * o).map(|v| v as f32).collect(), &[n, o]));
        let f = split_gru_filters(&mut g, gen, c, ch);
        for w in &f.w {
            assert_eq!(g.value(*w).shape(), &[n, c, ch]);
        }
        for u in &f.u {
            assert_eq!(g.value(*u).shape(), &[n, ch, ch]);
        }
        // First element of W_r for entity 0 is the first generated scalar.
        assert_eq!(g.value(f.w[0]).at(&[0, 0, 0]), 0.0);
        // First element of W_u comes right after the W_r block.
        assert_eq!(g.value(f.w[1]).at(&[0, 0, 0]), (c * ch) as f32);
    }

    #[test]
    fn split_tcn_filters_per_tap() {
        let (n, c, co, k) = (2, 3, 4, 2);
        let o = tcn_filter_dim(c, co, k);
        let mut g = Graph::new();
        let gen = g.constant(Tensor::ones(&[n, o]));
        let taps = split_tcn_filters(&mut g, gen, c, co, k);
        assert_eq!(taps.len(), 2);
        for t in taps {
            assert_eq!(g.value(t).shape(), &[n, c, co]);
        }
    }

    #[test]
    #[should_panic(expected = "3*C'*(C+C')")]
    fn split_gru_rejects_wrong_width() {
        let mut g = Graph::new();
        let gen = g.constant(Tensor::ones(&[2, 10]));
        split_gru_filters(&mut g, gen, 2, 4);
    }

    #[test]
    fn memories_move_during_gradient_descent() {
        // A miniature training loop: push generated filters toward a target
        // and verify the memory actually changes (i.e. it is learnable, not
        // just random initialization).
        let (mut store, dfgn) = make(3, 4);
        let before = store.value(dfgn.memory_id()).clone();
        for _ in 0..5 {
            store.zero_grad();
            let mut g = Graph::new();
            let f = dfgn.generate(&mut g, &store);
            let target = g.constant(Tensor::ones(&[3, 4]));
            let d = g.sub(f, target);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            g.backward(loss);
            g.write_grads(&mut store);
            store.for_each_mut(|_, v, grad| v.axpy(-0.5, grad));
        }
        let after = store.value(dfgn.memory_id());
        assert!(!before.allclose(after, 1e-6), "memories did not move");
    }
}
