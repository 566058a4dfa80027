//! Online forecast serving: sliding-window state, micro-batching, graceful
//! degradation, and hot swap, around trained [`Forecaster`]s.
//!
//! The offline path (train → [`crate::Trainer::evaluate`]) assumes the whole
//! dataset is materialized. A deployed forecaster instead sees a stream of
//! raw observations and must answer "what happens over the next `F` steps?"
//! at any moment, within a latency budget. One runtime closes that gap:
//! [`FleetService`]. Requests are sharded across `K` worker threads by
//! tenant affinity, each worker owning private compiled plans of a
//! **shared model snapshot** (a tape arm answers shapes whose trace does
//! not compile). Each tenant ([`Tenant`]) ingests raw observations into its
//! own [`SlidingWindow`] and carries its own token-bucket quota
//! ([`TenantQuota`]) and rolling SLO window. A background trainer
//! hot-swaps weights with zero downtime through
//! [`FleetService::publisher`]; in-flight batches finish on the old
//! snapshot. Every failure mode (cold window, missed deadline, full queue,
//! worker panic, dry quota) degrades to a persistence forecast tagged with
//! its [`DegradedCause`] instead of erroring or hanging.
//!
//! Construction goes through the validating [`ServeConfig::builder`]
//! (mirroring `TrainConfig::builder`) and
//! [`ServeConfigBuilder::spawn_fleet`]. A single stream is the default
//! one-worker fleet plus one [`FleetService::tenant`]:
//!
//! ```ignore
//! let fleet = ServeConfig::builder().spawn_fleet(model, scaler)?;
//! let stream = fleet.tenant("sensors");
//! ```
//!
//! Lifecycle ends with [`FleetService::shutdown`], which takes a
//! [`ShutdownMode`] — [`ShutdownMode::Drain`] completes queued requests,
//! [`ShutdownMode::Now`] sheds them — and returns a typed
//! [`ShutdownReport`].
//!
//! Telemetry: counters `serve.request`, `serve.fallback` (plus per-cause
//! `serve.fallback.{cold,deadline,queue_full,panic,quota}`),
//! `serve.queue.rejected`, `serve.worker.panics`, `serve.shutdown.drained`,
//! `serve.shutdown.shed`, per-tenant aggregates `serve.tenant.requests` /
//! `serve.tenant.throttled` / `serve.tenant.degraded`, hot-swap
//! `serve.swap.published` / `serve.swap.adopted`; gauges
//! `serve.queue.depth`, `serve.window.fill`, `serve.slo.*`,
//! `serve.tenant.active`, `serve.swap.epoch`, `serve.fleet.workers`;
//! histograms `serve.batch.size`, `serve.latency_ns`, `serve.forward_ns`,
//! `serve.queue.wait_ns`; span `serve.batch`. Workers also count
//! `plan.cache.hits` / `plan.cache.misses` and, on the tape arm,
//! `plan.fallback`.
//!
//! [`Forecaster`]: crate::forecaster::Forecaster
//! [`SlidingWindow`]: enhancenet_data::SlidingWindow

mod config;
mod fleet;
mod reply;
mod snapshot;
mod tenant;
mod worker;

pub use config::{ServeConfig, ServeConfigBuilder};
pub use fleet::FleetService;
pub use reply::PendingForecast;
pub use snapshot::SnapshotPublisher;
pub use tenant::{Tenant, TenantQuota, TenantReport};

use enhancenet_tensor::Tensor;

/// Why a [`Forecast`] was served from the persistence fallback instead of
/// the model. Each cause also increments its own
/// `serve.fallback.{cold,deadline,queue_full,panic,quota}` counter, so a
/// scrape can tell a warming replica from an overloaded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradedCause {
    /// The sliding window has not buffered a full `[H, N, C]` history yet.
    ColdWindow,
    /// The model did not answer within [`ServeConfig::deadline`].
    Deadline,
    /// The request queue was at capacity when the request arrived.
    QueueFull,
    /// The worker panicked, answered with a model error, or is gone.
    WorkerPanic,
    /// The tenant's token-bucket quota was exhausted ([`TenantQuota`]);
    /// the request never reached the queue.
    QuotaExceeded,
}

impl DegradedCause {
    /// Stable lowercase tag (`cold_window`, `deadline`, `queue_full`,
    /// `panic`, `quota`) — what replies and event payloads are tagged with.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradedCause::ColdWindow => "cold_window",
            DegradedCause::Deadline => "deadline",
            DegradedCause::QueueFull => "queue_full",
            DegradedCause::WorkerPanic => "panic",
            DegradedCause::QuotaExceeded => "quota",
        }
    }

    /// The per-cause fallback counter this cause increments.
    pub fn counter_label(self) -> &'static str {
        match self {
            DegradedCause::ColdWindow => "serve.fallback.cold",
            DegradedCause::Deadline => "serve.fallback.deadline",
            DegradedCause::QueueFull => "serve.fallback.queue_full",
            DegradedCause::WorkerPanic => "serve.fallback.panic",
            DegradedCause::QuotaExceeded => "serve.fallback.quota",
        }
    }
}

/// Per-request latency attribution carried on every [`Forecast`].
///
/// `queue_wait_ns` and `forward_ns` are measured by the batch worker
/// (zero on fallback paths, which never reach it); `total_ns` is the
/// caller-observed wall time from request entry to reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTiming {
    /// Time the request sat queued before its batch was assembled.
    pub queue_wait_ns: u64,
    /// Duration of the batched forward pass that answered the request.
    pub forward_ns: u64,
    /// End-to-end latency observed by the forecast entry point.
    pub total_ns: u64,
}

/// One served forecast.
#[derive(Debug, Clone)]
pub struct Forecast {
    /// Raw-scale predictions `[F, N]` of the target feature.
    pub values: Tensor,
    /// `Some(cause)` when this is a fallback persistence forecast rather
    /// than a model forecast; `None` for a healthy model answer.
    pub degraded: Option<DegradedCause>,
    /// Newest observation timestamp the forecast is anchored at.
    pub anchor: Option<i64>,
    /// Monotonic id assigned at request entry; flows through queue, batch,
    /// and reply, so one request can be traced across log lines.
    pub request_id: u64,
    /// Where this request's latency went.
    pub timing: RequestTiming,
}

impl Forecast {
    /// True when this forecast came from the persistence fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

/// How a shutdown treats requests still queued when it begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Complete every queued request on the model before exiting (the
    /// default on drop). Bounded by queue depth, so drain time is at most
    /// `queue_capacity` forwards per worker.
    Drain,
    /// Shed queued requests immediately: each waiter gets
    /// [`crate::EnhanceNetError::ServiceStopped`] (which the forecast
    /// entry points surface as a degraded persistence forecast), and no
    /// further forward passes run.
    Now,
}

/// Typed accounting returned by [`FleetService::shutdown`]: what happened
/// to requests that were still queued when the shutdown began.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Requests answered by the model between the shutdown signal and
    /// worker exit ([`ShutdownMode::Drain`]).
    pub drained: u64,
    /// Requests shed with `ServiceStopped` instead of a forward pass
    /// ([`ShutdownMode::Now`]).
    pub shed: u64,
}

#[cfg(test)]
mod tests;
