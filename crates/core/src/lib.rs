//! # enhancenet
//!
//! The paper's primary contribution: **EnhanceNet**, a pair of plugin neural
//! networks that enhance existing correlated-time-series forecasters
//! (Cirstea et al., *EnhanceNet: Plugin Neural Networks for Enhancing
//! Correlated Time Series Forecasting*, ICDE 2021).
//!
//! * [`Dfgn`] — the **Distinct Filter Generation Network** (§IV-C): each
//!   entity owns a small trainable memory vector; one shared two-hidden-
//!   layer MLP maps memories to entity-specific filters, so RNN/TCN hosts
//!   capture *distinct temporal dynamics* with a parameter count that stays
//!   nearly flat in the number of entities.
//! * [`Damgn`] — the **Dynamic Adjacency Matrix Generation Network** (§V-B):
//!   combines the distance-based adjacency `A`, a learned static adaptive
//!   graph `B = softmax(relu(B₁B₂ᵀ))` (Eq. 15), and a per-timestamp
//!   embedded-Gaussian attention graph `C_t` (Eq. 16) with learnable mixing
//!   weights (Eq. 13), so graph convolution sees *dynamic entity
//!   correlations*.
//! * [`gconv`] — graph convolution on the autodiff tape (Eq. 12/14),
//!   supporting static and per-timestamp (batched) adjacencies and k-hop
//!   diffusion.
//! * [`Forecaster`] + [`Trainer`] — the training/evaluation harness shared
//!   by every host model and baseline, reporting the paper's metrics at the
//!   3rd/6th/12th horizon plus parameter counts and runtimes.
//! * [`probes`] — model-health probes (per-entity/per-horizon error
//!   attribution, DAMGN λ/adjacency diagnostics, DFGN memory drift)
//!   emitted as structured telemetry events.
//!
//! * [`serve`] — the online serving runtime: sliding-window ingest,
//!   micro-batched inference on worker threads, deadlines with graceful
//!   degradation to persistence forecasts, and a sharded multi-tenant
//!   fleet with zero-downtime weight hot swap and per-tenant quotas.
//!
//! The host models themselves (RNN, TCN, GRNN, GTCN and their enhanced
//! variants) live in `enhancenet-models`; this crate holds everything that
//! is *the paper's own contribution* plus the harness.
//!
//! Most callers want [`prelude`]:
//!
//! ```ignore
//! use enhancenet::prelude::*;
//! ```

pub mod damgn;
pub mod dfgn;
pub mod error;
pub mod forecaster;
pub mod gconv;
pub mod prelude;
pub mod probes;
pub mod serve;
pub mod trainer;

pub use damgn::{Damgn, DamgnBinding, DamgnConfig, DamgnSparseBinding};
pub use dfgn::{
    gru_filter_dim, gru_filter_dim_general, split_gru_filters, split_gru_filters_general,
    split_tcn_filters, tcn_filter_dim, Dfgn, DfgnConfig, GeneratedGruFilters,
};
pub use error::EnhanceNetError;
pub use forecaster::{Forecaster, ForwardCtx};
pub use gconv::{graph_conv, GcSupport};
pub use probes::{MemoryDriftProbe, ProbeConfig};
pub use serve::{
    DegradedCause, FleetService, Forecast, PendingForecast, RequestTiming, ServeConfig,
    ServeConfigBuilder, ShutdownMode, ShutdownReport, SnapshotPublisher, Tenant, TenantQuota,
    TenantReport,
};
pub use trainer::{
    EpochTelemetry, EvalReport, TrainConfig, TrainConfigBuilder, TrainReport, Trainer,
};
