//! Model-health probes: structured diagnostics emitted as telemetry
//! events during training and evaluation.
//!
//! Three probe families, each tied to a paper mechanism:
//!
//! * **Error attribution** — per-entity and per-horizon MAE/RMSE at
//!   evaluation time (`probe.entity_error`, `probe.horizon_error`).
//!   EnhanceNet's whole premise is per-entity modelling (distinct filters
//!   per sensor, §IV-C), so per-entity error is the natural unit of
//!   diagnosis: a regression localized to a few entities reads very
//!   differently from a uniform one.
//! * **DAMGN graph diagnostics** — per-epoch λ_A/λ_B/λ_C mixing weights
//!   (Eq. 13), plus row entropy and effective density of the learned
//!   static adjacency `B = softmax(relu(B₁B₂ᵀ))` (Eq. 15) and of a
//!   sampled time-specific `C_t` (Eq. 16), emitted as `probe.damgn`. A
//!   collapse of `B` toward uniform rows (normalized entropy → 1) or the
//!   λ's drifting to zero are early signs the adaptive graph stopped
//!   contributing.
//! * **DFGN memory drift** — per-epoch L2 distance of the shared entity
//!   memory table from its initialization, emitted as `probe.dfgn`. The
//!   memories are the only per-entity trainable state (§IV-C); zero drift
//!   means the plugin is not learning.
//!
//! Every probe entry point is gated on the global telemetry switch *and*
//! its own [`ProbeConfig`] flag before doing any work, so the disabled
//! path is allocation-free (proven by
//! `crates/core/tests/probe_disabled_allocations.rs`).

use crate::forecaster::Forecaster;
use enhancenet_autodiff::Graph;
use enhancenet_data::WindowDataset;
use enhancenet_stats::metrics::{metrics_per_entity, metrics_per_horizon};
use enhancenet_tensor::Tensor;

/// Which model-health probes run, threaded through
/// [`crate::TrainConfig`]. Defaults enable everything: the probes only
/// fire when global telemetry is on, so the default costs nothing in
/// ordinary runs.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Emit per-entity and per-horizon error events at evaluation.
    pub error_attribution: bool,
    /// How many worst entities to report per evaluation.
    pub top_k_entities: usize,
    /// Emit per-epoch DAMGN λ / adjacency-health events.
    pub graph_diagnostics: bool,
    /// Emit per-epoch DFGN memory-drift events.
    pub memory_drift: bool,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            error_attribution: true,
            top_k_entities: 5,
            graph_diagnostics: true,
            memory_drift: true,
        }
    }
}

impl ProbeConfig {
    /// A configuration with every probe off (explicit opt-out).
    pub fn disabled() -> Self {
        Self {
            error_attribution: false,
            top_k_entities: 0,
            graph_diagnostics: false,
            memory_drift: false,
        }
    }
}

/// Emits error-attribution events for one evaluation: the `top_k`
/// worst-MAE entities as ranked `probe.entity_error` events and the full
/// error-vs-horizon curve as `probe.horizon_error` events.
///
/// `pred` and `truth` are the raw-scale `[B, F, N]` tensors the headline
/// metrics are computed from.
pub fn record_error_attribution(cfg: &ProbeConfig, pred: &Tensor, truth: &Tensor) {
    if !enhancenet_telemetry::enabled() || !cfg.error_attribution {
        return;
    }
    let _span = enhancenet_telemetry::span("probes.error_attribution");
    let per_entity = metrics_per_entity(pred, truth);
    let mut ranked: Vec<(usize, f32, f32, f32)> =
        per_entity.iter().enumerate().map(|(i, m)| (i, m.mae, m.rmse, m.mape)).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (rank, &(entity, mae, rmse, mape)) in ranked.iter().take(cfg.top_k_entities).enumerate() {
        enhancenet_telemetry::record_event(
            "probe.entity_error",
            &serde_json::json!({
                "rank": rank,
                "entity": entity,
                "mae": mae,
                "rmse": rmse,
                "mape": mape,
            }),
        );
    }
    for (i, m) in metrics_per_horizon(pred, truth).iter().enumerate() {
        enhancenet_telemetry::record_event(
            "probe.horizon_error",
            &serde_json::json!({
                "horizon": i + 1,
                "mae": m.mae,
                "rmse": m.rmse,
                "mape": m.mape,
            }),
        );
    }
}

/// Largest entity count the graph-diagnostics probe will materialize a
/// dense `[N, N]` adjacency for. Above this, a DAMGN without a top-k
/// budget reports `null` adjacency statistics instead of allocating
/// `N²` floats (400 MB at `N = 10k`) for a health probe; the sparse
/// top-k path has no such limit — its statistics come straight from the
/// `[N, K]` value tensors.
pub const DENSE_PROBE_MAX_ENTITIES: usize = 4096;

/// Emits one `probe.damgn` event for `epoch` when the model carries a
/// DAMGN: the learned λ mixing weights, row-entropy (normalized by
/// `ln N`, so 1 = uniform rows, 0 = one-hot) and effective density
/// (fraction of weights above the uniform level `1/N`) of the static
/// adjacency `B`, and — when a validation window exists — the same two
/// statistics for a sampled `C_t` built from the last timestamp of the
/// first validation window.
///
/// When the DAMGN runs with a top-k budget, the statistics are computed on
/// the sparse `[N, K]` values directly (zero entries contribute nothing to
/// either statistic, so this is exact, not an approximation). The pattern
/// comes from [`Damgn::shared_topk_pattern`](crate::Damgn::shared_topk_pattern),
/// so the build the epoch's validation made for these weights is reused.
/// Without a budget the probe densifies, but only up to
/// [`DENSE_PROBE_MAX_ENTITIES`]; past that the adjacency statistics are
/// reported as `null`.
pub fn record_graph_diagnostics(
    cfg: &ProbeConfig,
    epoch: usize,
    model: &dyn Forecaster,
    data: &WindowDataset,
) {
    if !enhancenet_telemetry::enabled() || !cfg.graph_diagnostics {
        return;
    }
    let Some(damgn) = model.damgn() else {
        return;
    };
    let _span = enhancenet_telemetry::span("probes.graph_diagnostics");
    let store = model.store();
    let (la, lb, lc) = damgn.lambda_ids();
    let n = damgn.num_entities();
    let ln_n = (n.max(2) as f32).ln();
    let uniform = 1.0 / n as f32;
    let total = (n * n) as f32;

    // Sample C_t from the last timestamp of the first validation window —
    // an arbitrary but deterministic probe point. Host models condition
    // the DAMGN on the target feature only (in_features = 1), so the
    // probe must sample the same slice.
    let sample_x = (!data.split.val.is_empty()).then(|| {
        let x = data.input_window(data.split.val.start);
        let h = x.shape()[0];
        x.slice_axis(0, h - 1, h).slice_axis(2, 0, 1) // [1, N, 1]
    });

    let mut g = Graph::new();
    let stats =
        |t: &Tensor| (t.row_entropy().mean_all() / ln_n, t.count_greater(uniform) as f32 / total);
    let (b_stats, c_stats) = if let Some(k) = damgn.top_k() {
        let pattern = damgn.shared_topk_pattern(store, k);
        let b = damgn.static_b_topk(&mut g, store, &pattern);
        let b_stats = stats(g.value(b));
        let c_stats = sample_x.map(|x| {
            let x_t = g.constant(x);
            let c = damgn.dynamic_c_topk(&mut g, store, x_t, &pattern);
            stats(g.value(c))
        });
        (Some(b_stats), c_stats)
    } else if n <= DENSE_PROBE_MAX_ENTITIES {
        let b = damgn.static_b(&mut g, store);
        let b_stats = stats(g.value(b));
        let c_stats = sample_x.map(|x| {
            let x_t = g.constant(x);
            let c = damgn.dynamic_c(&mut g, store, x_t);
            stats(g.value(c))
        });
        (Some(b_stats), c_stats)
    } else {
        (None, None)
    };
    let (b_entropy, b_density) = (b_stats.map(|s| s.0), b_stats.map(|s| s.1));
    let (c_entropy, c_density) = (c_stats.map(|s| s.0), c_stats.map(|s| s.1));

    enhancenet_telemetry::record_event(
        "probe.damgn",
        &serde_json::json!({
            "epoch": epoch,
            "lambda_a": store.value(la).item(),
            "lambda_b": store.value(lb).item(),
            "lambda_c": store.value(lc).item(),
            "b_row_entropy": b_entropy,
            "b_effective_density": b_density,
            "c_row_entropy": c_entropy,
            "c_effective_density": c_density,
        }),
    );
}

/// Tracks how far the shared DFGN entity-memory table has moved from its
/// initialization. Construct once at the start of training with
/// [`MemoryDriftProbe::start`], then call [`MemoryDriftProbe::record`]
/// per epoch to emit `probe.dfgn` events.
pub struct MemoryDriftProbe {
    init: Option<Tensor>,
}

impl MemoryDriftProbe {
    /// Snapshots the model's memory table (when it has one and the probe
    /// is active). Inert — holds nothing — otherwise.
    pub fn start(cfg: &ProbeConfig, model: &dyn Forecaster) -> Self {
        if !enhancenet_telemetry::enabled() || !cfg.memory_drift {
            return Self { init: None };
        }
        let init = model.memory_id().map(|id| model.store().value(id).clone());
        Self { init }
    }

    /// True when a snapshot was taken (diagnostic/test hook).
    pub fn is_active(&self) -> bool {
        self.init.is_some()
    }

    /// Emits one `probe.dfgn` event: L2 distance of the current memory
    /// table from the initial snapshot.
    pub fn record(&self, epoch: usize, model: &dyn Forecaster) {
        if !enhancenet_telemetry::enabled() {
            return;
        }
        let (Some(init), Some(id)) = (self.init.as_ref(), model.memory_id()) else {
            return;
        };
        let _span = enhancenet_telemetry::span("probes.memory_drift");
        let cur = model.store().value(id);
        let drift = cur
            .data()
            .iter()
            .zip(init.data())
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt();
        enhancenet_telemetry::record_event(
            "probe.dfgn",
            &serde_json::json!({ "epoch": epoch, "memory_l2_from_init": drift }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::test_model::AffinePersistence;
    use enhancenet_data::traffic::{generate_traffic, TrafficConfig};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Telemetry is process-global; serialize probe tests against it.
    fn lock_telemetry() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
    }

    fn dataset() -> WindowDataset {
        let ds = generate_traffic(&TrafficConfig::tiny(4, 2));
        WindowDataset::from_series(&ds, 12, 12).unwrap()
    }

    #[test]
    fn error_attribution_emits_ranked_entities_and_horizon_curve() {
        let _g = lock_telemetry();
        enhancenet_telemetry::reset();
        enhancenet_telemetry::set_enabled(true);
        // [B=1, F=2, N=3]: entity 2 is the clear worst.
        let pred = Tensor::from_vec(vec![11.0, 10.0, 19.0, 11.0, 10.0, 15.0], &[1, 2, 3]);
        let truth = Tensor::from_vec(vec![10.0; 6], &[1, 2, 3]);
        let cfg = ProbeConfig { top_k_entities: 2, ..ProbeConfig::default() };
        record_error_attribution(&cfg, &pred, &truth);
        enhancenet_telemetry::set_enabled(false);
        assert_eq!(enhancenet_telemetry::event_count("probe.entity_error"), 2);
        assert_eq!(enhancenet_telemetry::event_count("probe.horizon_error"), 2);
        let entities = enhancenet_telemetry::events_of_kind("probe.entity_error");
        // Rank 0 is the worst entity (index 2, mean |err| 7).
        assert_eq!(entities[0]["rank"], 0);
        assert_eq!(entities[0]["entity"], 2);
        assert!((entities[0]["mae"].as_f64().unwrap() - 7.0).abs() < 1e-5);
        let horizons = enhancenet_telemetry::events_of_kind("probe.horizon_error");
        assert_eq!(horizons[0]["horizon"], 1);
        assert_eq!(horizons[1]["horizon"], 2);
        enhancenet_telemetry::reset();
    }

    #[test]
    fn probes_disabled_by_flag_emit_nothing() {
        let _g = lock_telemetry();
        enhancenet_telemetry::reset();
        enhancenet_telemetry::set_enabled(true);
        let pred = Tensor::ones(&[1, 2, 3]);
        let truth = Tensor::from_vec(vec![2.0; 6], &[1, 2, 3]);
        record_error_attribution(&ProbeConfig::disabled(), &pred, &truth);
        let model = AffinePersistence::new(12);
        let data = dataset();
        record_graph_diagnostics(&ProbeConfig::disabled(), 0, &model, &data);
        let drift = MemoryDriftProbe::start(&ProbeConfig::disabled(), &model);
        assert!(!drift.is_active());
        drift.record(0, &model);
        enhancenet_telemetry::set_enabled(false);
        assert_eq!(enhancenet_telemetry::event_count("probe.entity_error"), 0);
        assert_eq!(enhancenet_telemetry::event_count("probe.damgn"), 0);
        assert_eq!(enhancenet_telemetry::event_count("probe.dfgn"), 0);
        enhancenet_telemetry::reset();
    }

    #[test]
    fn graph_diagnostics_skip_models_without_damgn() {
        let _g = lock_telemetry();
        enhancenet_telemetry::reset();
        enhancenet_telemetry::set_enabled(true);
        let model = AffinePersistence::new(12);
        let data = dataset();
        record_graph_diagnostics(&ProbeConfig::default(), 3, &model, &data);
        enhancenet_telemetry::set_enabled(false);
        assert_eq!(enhancenet_telemetry::event_count("probe.damgn"), 0);
        enhancenet_telemetry::reset();
    }

    #[test]
    fn memory_drift_probe_inert_without_memory() {
        let _g = lock_telemetry();
        enhancenet_telemetry::reset();
        enhancenet_telemetry::set_enabled(true);
        let model = AffinePersistence::new(12);
        let drift = MemoryDriftProbe::start(&ProbeConfig::default(), &model);
        // AffinePersistence has no DFGN memory table.
        assert!(!drift.is_active());
        drift.record(0, &model);
        enhancenet_telemetry::set_enabled(false);
        assert_eq!(enhancenet_telemetry::event_count("probe.dfgn"), 0);
        enhancenet_telemetry::reset();
    }
}
