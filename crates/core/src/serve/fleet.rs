//! [`FleetService`]: the sharded multi-worker serving runtime with
//! zero-downtime hot swap and per-tenant backpressure.
//!
//! Architecture (DESIGN §6h):
//!
//! * **Sharding** — `K` worker threads, each owning its own bounded request
//!   queue. A tenant is pinned to one shard round-robin at first use, so a
//!   tenant's requests always batch on the same worker, whose *private*
//!   plan-executor map stays warm for that tenant's window shape. Workers
//!   never share an executor, so there is no cross-worker mutex on the hot
//!   path (the model's own [`PlanCache`] would serialize them — see
//!   [`Forecaster::compile_eval_plan`]).
//! * **Hot swap** — workers execute plans compiled against the *currently
//!   published* [`ParamStore`] snapshot, loaded from a
//!   [`SnapshotCell`](super::snapshot::SnapshotCell) once per batch. A plan
//!   holds the values of the store it was traced from, so a worker that
//!   sees a new epoch drops its plans and compiles the next batch against
//!   the new snapshot. [`FleetService::publisher`] hands a background
//!   trainer a [`SnapshotPublisher`]; publishing swaps an `Arc` and bumps
//!   an epoch — in-flight batches finish on the old weights, the next
//!   batch adopts the new ones. No queue is paused, no request dropped.
//! * **Backpressure** — each tenant optionally carries a token bucket
//!   ([`TenantQuota`]); a bursting tenant is throttled at the door
//!   (degraded [`DegradedCause::QuotaExceeded`] persistence forecast)
//!   before its burst can occupy the shared queues, preserving the other
//!   tenants' deadline hit-rate. The queue's shed-on-full policy remains
//!   the global safety net behind it.
//!
//! [`PlanCache`]: enhancenet_autodiff::PlanCache
//! [`ParamStore`]: enhancenet_autodiff::ParamStore

use super::config::ServeConfig;
use super::reply::{PendingForecast, ReplySlot};
use super::snapshot::{Snapshot, SnapshotCell, SnapshotPublisher};
use super::tenant::{record_tenant_outcome, Tenant, TenantReport, TenantState, TokenBucket};
use super::worker::{self, BatchRequest, ShutdownState};
use super::{DegradedCause, Forecast, RequestTiming, ShutdownMode, ShutdownReport};
use crate::error::EnhanceNetError;
use crate::forecaster::Forecaster;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use enhancenet_autodiff::{Plan, PlanExecutor};
use enhancenet_data::{SlidingWindow, StandardScaler};
use enhancenet_telemetry::{MetricsServer, SloReport, SloWindow};
use enhancenet_tensor::Tensor;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Refreshes the `serve.slo.*` gauges from a rolling-window report; shared
/// by [`super::ForecastService`] and the fleet.
pub(crate) fn publish_slo_gauges(report: &SloReport) {
    enhancenet_telemetry::gauge("serve.slo.p50_ns", report.latency_p50_ns);
    enhancenet_telemetry::gauge("serve.slo.p95_ns", report.latency_p95_ns);
    enhancenet_telemetry::gauge("serve.slo.p99_ns", report.latency_p99_ns);
    enhancenet_telemetry::gauge("serve.slo.deadline_hit_rate", report.deadline_hit_rate);
    enhancenet_telemetry::gauge("serve.slo.degraded_rate", report.degraded_rate);
    enhancenet_telemetry::gauge("serve.slo.error_budget_burn", report.error_budget_burn);
    enhancenet_telemetry::gauge("serve.slo.window_requests", report.requests as f64);
}

/// One worker shard: its queue's sending half and the thread handle.
struct Shard {
    tx: Option<Sender<BatchRequest>>,
    worker: Option<JoinHandle<()>>,
}

/// A multi-tenant, multi-worker forecasting endpoint over a shared model
/// snapshot; spawn through
/// [`ServeConfig::builder`](super::ServeConfig::builder)`.workers(k).…spawn_fleet(model, scaler)`.
///
/// Interact per tenant: [`FleetService::tenant`] returns a [`Tenant`]
/// handle for ingest/forecast; [`FleetService::publisher`] returns the
/// hot-swap handle for a background trainer; [`FleetService::shutdown`]
/// drains or sheds the fleet. The raw [`FleetService::submit`] path takes
/// pre-scaled windows for benchmarks and fan-out frontends.
pub struct FleetService {
    shards: Vec<Shard>,
    scaler: StandardScaler,
    config: ServeConfig,
    input: [usize; 3],
    horizon: usize,
    next_request_id: AtomicU64,
    next_shard: AtomicUsize,
    tenants: Mutex<HashMap<String, Arc<Mutex<TenantState>>>>,
    snapshots: Arc<SnapshotCell>,
    publisher: SnapshotPublisher,
    shutdown: Arc<ShutdownState>,
    /// Fleet-wide rolling SLO window (tenants also keep their own).
    slo: Mutex<SloWindow>,
    live_workers: Arc<AtomicUsize>,
    metrics: Option<MetricsServer>,
}

impl FleetService {
    /// The spawn path behind [`super::ServeConfigBuilder::spawn_fleet`];
    /// assumes `config` already passed validation.
    ///
    /// Beyond the single-service checks, the model must be *plannable*:
    /// fleet workers serve exclusively through plans compiled against
    /// published snapshots (the tape path reads the model's own store and
    /// cannot see hot-swapped weights), so a model whose eval trace cannot
    /// compile is rejected up front with a typed
    /// [`EnhanceNetError::InvalidConfig`] rather than silently serving
    /// stale weights after a swap. The probe compile is a batch-1 plan of
    /// the epoch-0 snapshot, and every worker starts with it.
    pub(crate) fn from_config(
        model: Arc<dyn Forecaster + Send>,
        scaler: StandardScaler,
        config: ServeConfig,
    ) -> Result<Self, EnhanceNetError> {
        let input = model.input_shape().ok_or_else(|| EnhanceNetError::UnknownInputShape {
            model: model.name().to_string(),
        })?;
        if config.target_feature >= input[2] {
            return Err(EnhanceNetError::InvalidConfig {
                field: "target_feature",
                reason: format!("must be < {} features, got {}", input[2], config.target_feature),
            });
        }
        let snapshots = Arc::new(SnapshotCell::new(model.store()));
        // Probe-compile a batch-1 trace of the epoch-0 snapshot: fail fast
        // if this model can never serve hot-swapped weights.
        let probe = Tensor::zeros(&[1, input[0], input[1], input[2]]);
        let seed = match model.compile_eval_plan_on(&snapshots.load().store, &probe).0 {
            Ok(plan) => Arc::new(plan),
            Err(e) => {
                return Err(EnhanceNetError::InvalidConfig {
                    field: "model",
                    reason: format!("`{}` cannot be compiled for fleet serving: {e}", model.name()),
                })
            }
        };
        let horizon = model.horizon();
        let publisher = SnapshotPublisher::new(Arc::clone(&snapshots), model.store());
        let shutdown = Arc::new(ShutdownState::new());
        let live_workers = Arc::new(AtomicUsize::new(config.workers));
        let mut shards = Vec::with_capacity(config.workers);
        for index in 0..config.workers {
            let (tx, rx) = bounded(config.queue_capacity);
            let ctx = WorkerCtx {
                model: Arc::clone(&model),
                seed: Arc::clone(&seed),
                snapshots: Arc::clone(&snapshots),
                rx,
                max_batch: config.max_batch,
                max_wait: config.max_wait,
                shutdown: Arc::clone(&shutdown),
                live: Arc::clone(&live_workers),
            };
            let worker = std::thread::Builder::new()
                .name(format!("forecast-fleet-{index}"))
                .spawn(move || fleet_worker_loop(ctx))
                .expect("failed to spawn fleet worker thread");
            shards.push(Shard { tx: Some(tx), worker: Some(worker) });
        }
        let metrics = match &config.metrics_addr {
            Some(addr) => {
                let (live, workers) = (Arc::clone(&live_workers), config.workers);
                let probe: enhancenet_telemetry::ReadyProbe =
                    Arc::new(move || live.load(Ordering::Relaxed) == workers);
                Some(MetricsServer::bind(addr.as_str(), probe).map_err(|e| {
                    EnhanceNetError::InvalidConfig {
                        field: "metrics_addr",
                        reason: format!("cannot bind {addr}: {e}"),
                    }
                })?)
            }
            None => None,
        };
        let slo =
            Mutex::new(SloWindow::new(config.slo_window, config.slo_slots, config.slo_target));
        enhancenet_telemetry::gauge("serve.fleet.workers", config.workers as f64);
        enhancenet_telemetry::gauge("serve.swap.epoch", 0.0);
        Ok(Self {
            shards,
            scaler,
            config,
            input,
            horizon,
            next_request_id: AtomicU64::new(0),
            next_shard: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
            snapshots,
            publisher,
            shutdown,
            slo,
            live_workers,
            metrics,
        })
    }

    /// The `[H, N, C]` window shape every tenant's stream assembles.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input
    }

    /// Forecast horizon `F`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The serving policy this fleet was spawned with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Worker shard count.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads currently running (all of them, in a healthy fleet).
    pub fn workers_alive(&self) -> usize {
        self.live_workers.load(Ordering::Relaxed)
    }

    /// The epoch of the currently served snapshot (0 = spawn weights).
    pub fn epoch(&self) -> u64 {
        self.snapshots.epoch()
    }

    /// A [`SnapshotPublisher`] for hot-swapping weights from another
    /// thread; cloneable, and valid for the fleet's lifetime.
    pub fn publisher(&self) -> SnapshotPublisher {
        self.publisher.clone()
    }

    /// Address of the embedded metrics server, when
    /// [`ServeConfig::metrics_addr`] was set (resolves port 0). Ready ⇔
    /// every worker thread is alive.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::local_addr)
    }

    /// Fleet-wide rolling SLO statistics (across all tenants).
    pub fn slo_report(&self) -> SloReport {
        self.slo.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).report()
    }

    /// The handle for `name`'s stream, creating the tenant on first use:
    /// a fresh sliding window, a token bucket from
    /// [`ServeConfig::tenant_quota`], and a round-robin shard assignment
    /// that is stable for the fleet's lifetime.
    pub fn tenant(&self, name: &str) -> Tenant<'_> {
        let mut tenants = self.tenants.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let state = match tenants.entry(name.to_string()) {
            Entry::Occupied(entry) => Arc::clone(entry.get()),
            Entry::Vacant(entry) => {
                let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                let state = Arc::new(Mutex::new(TenantState {
                    name: name.to_string(),
                    shard,
                    buffer: SlidingWindow::new(self.input[0], self.input[1], self.input[2]),
                    bucket: self.config.tenant_quota.map(TokenBucket::new),
                    slo: SloWindow::new(
                        self.config.slo_window,
                        self.config.slo_slots,
                        self.config.slo_target,
                    ),
                    requests: 0,
                    throttled: 0,
                    degraded: 0,
                }));
                Arc::clone(entry.insert(state))
            }
        };
        enhancenet_telemetry::gauge("serve.tenant.active", tenants.len() as f64);
        drop(tenants);
        Tenant { fleet: self, state }
    }

    /// Reports for every tenant the fleet has seen, sorted by name.
    pub fn tenant_reports(&self) -> Vec<TenantReport> {
        let tenants = self.tenants.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut reports: Vec<TenantReport> = tenants
            .values()
            .map(|state| {
                let state = state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                TenantReport {
                    tenant: state.name.clone(),
                    shard: state.shard,
                    requests: state.requests,
                    throttled: state.throttled,
                    degraded: state.degraded,
                    slo: state.slo.report(),
                }
            })
            .collect();
        reports.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        reports
    }

    /// Submits a pre-scaled `[H, N, C]` window to shard
    /// `request_id % workers` without blocking; pair with
    /// [`PendingForecast::wait`]. The raw fan-out path for callers
    /// managing their own windows.
    pub fn submit(&self, scaled_window: &Tensor) -> Result<PendingForecast, EnhanceNetError> {
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        self.submit_to_shard(id as usize % self.shards.len(), scaled_window, id)
    }

    pub(crate) fn submit_to_shard(
        &self,
        shard: usize,
        scaled_window: &Tensor,
        id: u64,
    ) -> Result<PendingForecast, EnhanceNetError> {
        if scaled_window.shape() != self.input {
            return Err(EnhanceNetError::InputShape {
                expected: self.input.to_vec(),
                got: scaled_window.shape().to_vec(),
            });
        }
        let tx = self.shards[shard].tx.as_ref().ok_or(EnhanceNetError::ServiceStopped)?;
        enhancenet_telemetry::gauge("serve.queue.depth", tx.len() as f64);
        let (reply, slot) = ReplySlot::pair();
        let submitted = Instant::now();
        let request = BatchRequest { id, window: scaled_window.clone(), submitted, reply };
        match tx.try_send(request) {
            Ok(()) => Ok(PendingForecast { slot, submitted, id }),
            Err(TrySendError::Full(_)) => {
                enhancenet_telemetry::count("serve.queue.rejected", 1);
                Err(EnhanceNetError::Overloaded { capacity: self.config.queue_capacity })
            }
            Err(TrySendError::Disconnected(_)) => Err(EnhanceNetError::ServiceStopped),
        }
    }

    /// The forecast path behind [`Tenant::forecast`].
    pub(crate) fn tenant_forecast(
        &self,
        state: &Arc<Mutex<TenantState>>,
    ) -> Result<Forecast, EnhanceNetError> {
        enhancenet_telemetry::count("serve.request", 1);
        enhancenet_telemetry::count("serve.tenant.requests", 1);
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        // Hold the tenant lock only through admission + window assembly;
        // the wait for the worker parks outside it, so one tenant's slow
        // request never blocks its neighbors' ingest.
        let (shard, anchor, raw) = {
            let mut tenant = state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            tenant.requests += 1;
            let anchor = tenant.buffer.latest_timestamp();
            if let Some(bucket) = tenant.bucket.as_mut() {
                if !bucket.try_take() {
                    tenant.throttled += 1;
                    enhancenet_telemetry::count("serve.tenant.throttled", 1);
                    drop(tenant);
                    return self.tenant_fallback(
                        state,
                        id,
                        anchor,
                        started,
                        DegradedCause::QuotaExceeded,
                    );
                }
            }
            match tenant.buffer.window() {
                Some(raw) => (tenant.shard, anchor, raw),
                None => {
                    drop(tenant);
                    return self.tenant_fallback(
                        state,
                        id,
                        anchor,
                        started,
                        DegradedCause::ColdWindow,
                    );
                }
            }
        };
        let scaled = self.scaler.transform(&raw)?;
        let pending = match self.submit_to_shard(shard, &scaled, id) {
            Ok(pending) => pending,
            Err(EnhanceNetError::Overloaded { .. }) => {
                return self.tenant_fallback(state, id, anchor, started, DegradedCause::QueueFull);
            }
            Err(_) => {
                return self.tenant_fallback(
                    state,
                    id,
                    anchor,
                    started,
                    DegradedCause::WorkerPanic,
                );
            }
        };
        match pending.wait_reply(self.config.deadline) {
            Ok(reply) => {
                let values = self.scaler.inverse_feature(&reply.values, self.config.target_feature);
                let total_ns = started.elapsed().as_nanos() as u64;
                enhancenet_telemetry::observe("serve.latency_ns", total_ns as f64);
                self.record_outcome(total_ns, false);
                record_tenant_outcome(state, total_ns, self.config.deadline.as_nanos(), false);
                Ok(Forecast {
                    values,
                    degraded: None,
                    anchor,
                    request_id: id,
                    timing: RequestTiming {
                        queue_wait_ns: reply.queue_wait_ns,
                        forward_ns: reply.forward_ns,
                        total_ns,
                    },
                })
            }
            Err(EnhanceNetError::DeadlineExceeded { .. }) => {
                self.tenant_fallback(state, id, anchor, started, DegradedCause::Deadline)
            }
            Err(_) => self.tenant_fallback(state, id, anchor, started, DegradedCause::WorkerPanic),
        }
    }

    fn tenant_fallback(
        &self,
        state: &Arc<Mutex<TenantState>>,
        id: u64,
        anchor: Option<i64>,
        started: Instant,
        cause: DegradedCause,
    ) -> Result<Forecast, EnhanceNetError> {
        let values = {
            let tenant = state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            tenant.buffer.persistence_forecast(self.horizon, self.config.target_feature).ok_or(
                EnhanceNetError::NotReady { have: tenant.buffer.len(), need: self.input[0] },
            )?
        };
        enhancenet_telemetry::count("serve.fallback", 1);
        enhancenet_telemetry::count(cause.counter_label(), 1);
        let total_ns = started.elapsed().as_nanos() as u64;
        enhancenet_telemetry::observe("serve.latency_ns", total_ns as f64);
        self.record_outcome(total_ns, true);
        record_tenant_outcome(state, total_ns, self.config.deadline.as_nanos(), true);
        Ok(Forecast {
            values,
            degraded: Some(cause),
            anchor,
            request_id: id,
            timing: RequestTiming { queue_wait_ns: 0, forward_ns: 0, total_ns },
        })
    }

    /// Fleet-wide outcome recording; tenants record separately.
    fn record_outcome(&self, total_ns: u64, degraded: bool) {
        let deadline_hit = u128::from(total_ns) <= self.config.deadline.as_nanos();
        let report = {
            let mut slo = self.slo.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            slo.record(total_ns as f64, deadline_hit, degraded);
            if !enhancenet_telemetry::enabled() {
                return;
            }
            slo.report()
        };
        publish_slo_gauges(&report);
    }

    /// Stops every worker and joins them. [`ShutdownMode::Drain`] answers
    /// all queued requests on the current snapshot first;
    /// [`ShutdownMode::Now`] sheds them as `ServiceStopped`. Dropping the
    /// fleet without calling this drains implicitly.
    pub fn shutdown(mut self, mode: ShutdownMode) -> ShutdownReport {
        self.stop(mode);
        self.shutdown.report()
    }

    fn stop(&mut self, mode: ShutdownMode) {
        self.shutdown.begin(mode);
        for shard in &mut self.shards {
            drop(shard.tx.take());
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
        drop(self.metrics.take());
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        self.stop(ShutdownMode::Drain);
    }
}

/// Everything one fleet worker thread owns.
struct WorkerCtx {
    model: Arc<dyn Forecaster + Send>,
    /// The spawn probe's batch-1 plan of the epoch-0 snapshot.
    seed: Arc<Plan>,
    snapshots: Arc<SnapshotCell>,
    rx: Receiver<BatchRequest>,
    max_batch: usize,
    max_wait: std::time::Duration,
    shutdown: Arc<ShutdownState>,
    live: Arc<AtomicUsize>,
}

/// Decrements the live-worker count when the worker exits — even by panic.
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The fleet worker loop: assemble a batch, load the current snapshot,
/// execute a worker-private compiled plan against it.
///
/// Plan executors are keyed by batched input shape and scoped to the
/// snapshot epoch they were compiled under: the map starts with the spawn
/// probe's epoch-0 plan, a hot swap clears it (counted once per worker as
/// `serve.swap.adopted`), and the next batch per shape compiles against
/// the new snapshot. Hits and misses feed the same `plan.cache.*` counters
/// as the single-service path, so the CI metric contract holds across both
/// runtimes.
fn fleet_worker_loop(ctx: WorkerCtx) {
    let _guard = LiveGuard(Arc::clone(&ctx.live));
    let mut batch_x = Tensor::default();
    let mut pred = Tensor::default();
    let mut epoch = 0;
    let mut execs: HashMap<Vec<usize>, PlanExecutor> = HashMap::new();
    execs.insert(ctx.seed.input_shape().to_vec(), PlanExecutor::new(Arc::clone(&ctx.seed)));
    while let Some(batch) = worker::next_batch(&ctx.rx, ctx.max_batch, ctx.max_wait) {
        match ctx.shutdown.mode() {
            Some(ShutdownMode::Now) => worker::shed_batch(batch, &ctx.shutdown),
            mode => {
                let snapshot = ctx.snapshots.load();
                if snapshot.epoch != epoch {
                    execs.clear();
                    epoch = snapshot.epoch;
                    enhancenet_telemetry::count("serve.swap.adopted", 1);
                }
                let n = batch.len() as u64;
                worker::serve_batch(
                    |x, out| run_on_snapshot(&*ctx.model, &snapshot, &mut execs, x, out),
                    batch,
                    &mut batch_x,
                    &mut pred,
                );
                if mode == Some(ShutdownMode::Drain) {
                    ctx.shutdown.note_drained(n);
                    enhancenet_telemetry::count("serve.shutdown.drained", n);
                }
            }
        }
    }
}

/// Executes one batched forward for a fleet worker: look up the plan for
/// this batch shape, or compile it against the snapshot store, and run it.
fn run_on_snapshot(
    model: &dyn Forecaster,
    snapshot: &Snapshot,
    execs: &mut HashMap<Vec<usize>, PlanExecutor>,
    x: &Tensor,
    out: &mut Tensor,
) -> Result<(), EnhanceNetError> {
    let exec = match execs.entry(x.shape().to_vec()) {
        Entry::Occupied(entry) => {
            enhancenet_telemetry::count("plan.cache.hits", 1);
            entry.into_mut()
        }
        Entry::Vacant(entry) => {
            enhancenet_telemetry::count("plan.cache.misses", 1);
            let (compiled, _traced) = model.compile_eval_plan_on(&snapshot.store, x);
            match compiled {
                Ok(plan) => entry.insert(PlanExecutor::new(plan)),
                // Probed plannable at spawn; a shape-dependent compile
                // failure degrades this batch instead of killing the
                // worker.
                Err(_) => return Err(EnhanceNetError::ServiceStopped),
            }
        }
    };
    exec.run(x, out);
    Ok(())
}
