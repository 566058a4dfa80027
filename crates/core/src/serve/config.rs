//! Serving configuration: the [`ServeConfig`] knobs and the validating
//! [`ServeConfigBuilder`] that is the front door to the serving runtime.
//!
//! Construction mirrors `TrainConfig::builder()`: chain setters, then either
//! [`ServeConfigBuilder::build`] for a validated config value, or go
//! straight to [`ServeConfigBuilder::spawn_fleet`] to validate *and*
//! launch the service in one step.

use super::fleet::FleetService;
use super::tenant::TenantQuota;
use crate::error::EnhanceNetError;
use crate::forecaster::Forecaster;
use enhancenet_data::StandardScaler;
use std::time::Duration;

/// Serving policy knobs.
///
/// Fields are readable everywhere; a `ServeConfig` is built only through
/// [`ServeConfig::builder`], which validates before any thread spawns.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Largest batch one forward pass may serve (must be > 0).
    pub max_batch: usize,
    /// How long the worker waits for more requests once it holds one.
    /// `Duration::ZERO` (the default) batches only what is already queued,
    /// so a lone request pays no batching latency.
    pub max_wait: Duration,
    /// Bound of each request queue (must be > 0); a full queue degrades
    /// new requests immediately instead of building unbounded backlog.
    /// Fleet workers each own a queue of this capacity.
    pub queue_capacity: usize,
    /// Per-request deadline: how long a forecast call waits for the model
    /// before falling back to a persistence forecast.
    pub deadline: Duration,
    /// Feature index forecasts are reported in (raw scale).
    pub target_feature: usize,
    /// When set, the service binds an embedded
    /// [`enhancenet_telemetry::MetricsServer`] here (e.g.
    /// `"127.0.0.1:9898"`, port 0 for ephemeral) serving `/metrics`,
    /// `/healthz`, and `/readyz`. `None` (the default) runs without a
    /// listener.
    pub metrics_addr: Option<String>,
    /// Span of the rolling SLO window (must be long enough to give every
    /// slot at least one nanosecond).
    pub slo_window: Duration,
    /// Ring slots the SLO window is resolved into (must be > 0). More
    /// slots age traffic out more smoothly at slightly more report cost.
    pub slo_slots: usize,
    /// Deadline hit-rate objective in `(0, 1]`; the error-budget burn in
    /// [`enhancenet_telemetry::SloReport`] is measured against this target.
    pub slo_target: f64,
    /// Worker threads a [`FleetService`] shards requests across (must be
    /// > 0; the default 1 serves a single stream).
    pub workers: usize,
    /// Default per-tenant token-bucket quota applied to every tenant a
    /// [`FleetService`] creates. `None` (the default) serves tenants
    /// unthrottled.
    pub tenant_quota: Option<TenantQuota>,
}

impl Default for ServeConfig {
    /// The defaults [`ServeConfig::builder`] starts from.
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_wait: Duration::ZERO,
            queue_capacity: 64,
            deadline: Duration::from_millis(250),
            target_feature: 0,
            metrics_addr: None,
            slo_window: Duration::from_secs(60),
            slo_slots: 12,
            slo_target: 0.99,
            workers: 1,
            tenant_quota: None,
        }
    }
}

impl ServeConfig {
    /// Starts a builder seeded with the defaults above.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: Self::default() }
    }

    /// The model-independent validity checks behind
    /// [`ServeConfigBuilder::build`]. Model-dependent checks
    /// (`target_feature` vs. channel count) happen at spawn, where the
    /// model is known.
    fn validate(&self) -> Result<(), EnhanceNetError> {
        fn positive(value: usize, field: &'static str) -> Result<(), EnhanceNetError> {
            if value == 0 {
                return Err(EnhanceNetError::InvalidConfig { field, reason: "must be > 0".into() });
            }
            Ok(())
        }
        positive(self.max_batch, "max_batch")?;
        positive(self.queue_capacity, "queue_capacity")?;
        positive(self.workers, "workers")?;
        positive(self.slo_slots, "slo_slots")?;
        if self.slo_window.as_nanos() / self.slo_slots as u128 == 0 {
            return Err(EnhanceNetError::InvalidConfig {
                field: "slo_window",
                reason: format!("too short for {} slots", self.slo_slots),
            });
        }
        if !(self.slo_target > 0.0 && self.slo_target <= 1.0) {
            return Err(EnhanceNetError::InvalidConfig {
                field: "slo_target",
                reason: format!("must be in (0, 1], got {}", self.slo_target),
            });
        }
        if let Some(quota) = &self.tenant_quota {
            quota.validate()?;
        }
        Ok(())
    }
}

/// Validating builder for [`ServeConfig`]; see [`ServeConfig::builder`].
///
/// Setters never fail — all validation happens in one place at
/// [`ServeConfigBuilder::build`] (or the `spawn_fleet` shortcut), so a bad
/// combination of knobs is reported against the finished config, not the
/// call order.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets [`ServeConfig::max_batch`].
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Sets [`ServeConfig::max_wait`].
    pub fn max_wait(mut self, max_wait: Duration) -> Self {
        self.config.max_wait = max_wait;
        self
    }

    /// Sets [`ServeConfig::queue_capacity`].
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// Sets [`ServeConfig::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Sets [`ServeConfig::target_feature`].
    pub fn target_feature(mut self, target_feature: usize) -> Self {
        self.config.target_feature = target_feature;
        self
    }

    /// Sets [`ServeConfig::metrics_addr`].
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.metrics_addr = Some(addr.into());
        self
    }

    /// Sets [`ServeConfig::slo_window`].
    pub fn slo_window(mut self, window: Duration) -> Self {
        self.config.slo_window = window;
        self
    }

    /// Sets [`ServeConfig::slo_slots`].
    pub fn slo_slots(mut self, slots: usize) -> Self {
        self.config.slo_slots = slots;
        self
    }

    /// Sets [`ServeConfig::slo_target`].
    pub fn slo_target(mut self, target: f64) -> Self {
        self.config.slo_target = target;
        self
    }

    /// Sets [`ServeConfig::workers`] — the fleet's shard count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets [`ServeConfig::tenant_quota`] — the fleet's default per-tenant
    /// token bucket.
    pub fn tenant_quota(mut self, quota: TenantQuota) -> Self {
        self.config.tenant_quota = Some(quota);
        self
    }

    /// Validates and returns the finished config.
    pub fn build(self) -> Result<ServeConfig, EnhanceNetError> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Validates, then spawns a [`FleetService`] sharding requests across
    /// [`ServeConfig::workers`] threads over a shared snapshot of `model`.
    /// One stream is this with the default single worker, plus one
    /// [`FleetService::tenant`].
    ///
    /// `scaler` must be the scaler the model was trained with;
    /// [`crate::Trainer`] users take it from `WindowDataset::scaler`.
    pub fn spawn_fleet(
        self,
        model: Box<dyn Forecaster + Send>,
        scaler: StandardScaler,
    ) -> Result<FleetService, EnhanceNetError> {
        let config = self.build()?;
        FleetService::from_config(model.into(), scaler, config)
    }
}
