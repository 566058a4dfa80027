//! The one-line import for EnhanceNet users:
//!
//! ```ignore
//! use enhancenet::prelude::*;
//! ```
//!
//! Re-exports the redesigned public surface — the [`Forecaster`] trait and
//! its `predict` entry point, the validated [`TrainConfig`] builder and
//! [`Trainer`], the online [`ForecastService`] and multi-tenant
//! [`FleetService`] (spawned via [`ServeConfig::builder`]), plus the
//! dataset, scaling
//! and metric types those APIs trade in. Tape-level machinery
//! (`enhancenet_autodiff`, `ForwardCtx`) is deliberately *not* here: it is
//! only needed when implementing a new host model, not when using one.

pub use crate::damgn::{Damgn, DamgnConfig};
pub use crate::dfgn::{Dfgn, DfgnConfig};
pub use crate::error::EnhanceNetError;
pub use crate::forecaster::Forecaster;
pub use crate::probes::ProbeConfig;
pub use crate::serve::{
    DegradedCause, FleetService, Forecast, ForecastService, PendingForecast, RequestTiming,
    ServeConfig, ServeConfigBuilder, ShutdownMode, ShutdownReport, SnapshotPublisher, Tenant,
    TenantQuota, TenantReport,
};
pub use crate::trainer::{
    EpochTelemetry, EvalReport, TrainConfig, TrainConfigBuilder, TrainReport, Trainer,
};
pub use enhancenet_data::traffic::{generate_traffic, TrafficConfig};
pub use enhancenet_data::weather::{generate_weather, WeatherConfig};
pub use enhancenet_data::{
    Batch, BatchIterator, ChronoSplit, CorrelatedTimeSeries, DataError, SlidingWindow,
    StandardScaler, WindowDataset,
};
pub use enhancenet_nn::optim::LrSchedule;
pub use enhancenet_stats::metrics::{
    mae, mape, metrics_at_horizon, metrics_per_entity, metrics_per_horizon, rmse, HorizonMetrics,
};
pub use enhancenet_telemetry::SloReport;
