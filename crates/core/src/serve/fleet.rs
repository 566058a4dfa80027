//! [`FleetService`]: the serving runtime — sharded workers over a shared
//! model snapshot, with zero-downtime hot swap and per-tenant backpressure.
//! A single stream is a fleet with one worker and one tenant.
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
//! * **Tape arm** — a batch shape whose trace does not compile (no
//!   [`Graph::input`] leaf, as in `ArimaBaseline`) is answered by an eval
//!   forward traced over the same snapshot store, counted as
//!   `plan.fallback`. The worker remembers the failed compile until the
//!   next epoch, so hot-swapped weights reach the tape too.
//! * **Backpressure** — each tenant optionally carries a token bucket
//!   ([`TenantQuota`]); a bursting tenant is throttled at the door
//!   (degraded [`DegradedCause::QuotaExceeded`] persistence forecast)
//!   before its burst can occupy the shared queues, preserving the other
//!   tenants' deadline hit-rate. The queue's shed-on-full policy remains
//!   the global safety net behind it.
//!
//! [`PlanCache`]: enhancenet_autodiff::PlanCache
//! [`ParamStore`]: enhancenet_autodiff::ParamStore
//! [`Graph::input`]: enhancenet_autodiff::Graph::input

use super::config::ServeConfig;
use super::reply::{PendingForecast, ReplySlot};
use super::snapshot::{Snapshot, SnapshotCell, SnapshotPublisher};
use super::tenant::{Tenant, TenantReport, TenantState, TokenBucket};
use super::worker::{self, BatchReply, BatchRequest, ShutdownState};
use super::{DegradedCause, Forecast, RequestTiming, ShutdownMode, ShutdownReport};
use crate::error::EnhanceNetError;
use crate::forecaster::{Forecaster, ForwardCtx};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use enhancenet_autodiff::{Graph, ParamStore, Plan, PlanExecutor};
use enhancenet_data::{SlidingWindow, StandardScaler};
use enhancenet_telemetry::{MetricsServer, SloReport, SloWindow};
use enhancenet_tensor::{Tensor, TensorRng};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Refreshes the `serve.slo.*` gauges from a rolling-window report.
fn publish_slo_gauges(report: &SloReport) {
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
/// [`ServeConfig::builder`](super::ServeConfig::builder)`.…spawn_fleet(model, scaler)`.
/// [`ServeConfig::workers`] defaults to 1, so one stream is
/// `spawn_fleet(model, scaler)?` plus one [`FleetService::tenant`].
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
    /// Tenants whose window cannot assemble yet; `/readyz` waits for 0.
    cold_tenants: Arc<AtomicUsize>,
    metrics: Option<MetricsServer>,
}

impl FleetService {
    /// The spawn path behind [`super::ServeConfigBuilder::spawn_fleet`];
    /// assumes `config` already passed validation and performs only the
    /// model-dependent checks.
    ///
    /// Fails with [`EnhanceNetError::UnknownInputShape`] when the model
    /// does not report its `[H, N, C]` input shape (needed to size the
    /// sliding windows), or [`EnhanceNetError::InvalidConfig`] for an
    /// out-of-range `target_feature` or an unbindable
    /// [`ServeConfig::metrics_addr`]. Every worker starts with the spawn
    /// probe's batch-1 compile of the epoch-0 snapshot (one
    /// `plan.cache.misses`); a model whose trace does not compile is
    /// served on the tape arm.
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
        let seed_shape = [1, input[0], input[1], input[2]];
        enhancenet_telemetry::count("plan.cache.misses", 1);
        let seed = model
            .compile_eval_plan_on(&snapshots.load().store, &Tensor::zeros(&seed_shape))
            .0
            .ok()
            .map(Arc::new);
        let horizon = model.horizon();
        let publisher = SnapshotPublisher::new(Arc::clone(&snapshots), model.store());
        let shutdown = Arc::new(ShutdownState::new());
        let live_workers = Arc::new(AtomicUsize::new(config.workers));
        let cold_tenants = Arc::new(AtomicUsize::new(0));
        let mut shards = Vec::with_capacity(config.workers);
        for index in 0..config.workers {
            let (tx, rx) = bounded(config.queue_capacity);
            let ctx = WorkerCtx {
                model: Arc::clone(&model),
                seed_shape,
                seed: seed.clone(),
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
                let (live, cold) = (Arc::clone(&live_workers), Arc::clone(&cold_tenants));
                let workers = config.workers;
                let probe: enhancenet_telemetry::ReadyProbe = Arc::new(move || {
                    live.load(Ordering::Relaxed) == workers && cold.load(Ordering::Relaxed) == 0
                });
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
            cold_tenants,
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
    /// [`ServeConfig::metrics_addr`] was set (resolves port 0). `/readyz`
    /// is ready ⇔ every worker thread is alive and every tenant's window
    /// is warm.
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
                self.cold_tenants.fetch_add(1, Ordering::Relaxed);
                let state = Arc::new(Mutex::new(TenantState {
                    name: name.to_string(),
                    shard,
                    buffer: SlidingWindow::new(self.input[0], self.input[1], self.input[2]),
                    warm: false,
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
            .map(|state| state.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).report())
            .collect();
        reports.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        reports
    }

    /// Keeps the readiness count and the `serve.window.fill` gauge in step
    /// with a tenant's window after every mutation.
    pub(crate) fn refresh_window(&self, tenant: &mut TenantState) {
        let warm = tenant.buffer.is_ready();
        if warm != tenant.warm {
            tenant.warm = warm;
            if warm {
                self.cold_tenants.fetch_sub(1, Ordering::Relaxed);
            } else {
                self.cold_tenants.fetch_add(1, Ordering::Relaxed);
            }
        }
        enhancenet_telemetry::gauge(
            "serve.window.fill",
            tenant.buffer.len() as f64 / self.input[0] as f64,
        );
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
        state: &Mutex<TenantState>,
    ) -> Result<Forecast, EnhanceNetError> {
        enhancenet_telemetry::count("serve.request", 1);
        enhancenet_telemetry::count("serve.tenant.requests", 1);
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let (anchor, answer) = self.ask_model(state, id)?;
        let (values, degraded, timing) = match answer {
            Ok(reply) => {
                let values = self.scaler.inverse_feature(&reply.values, self.config.target_feature);
                let timing = RequestTiming {
                    queue_wait_ns: reply.queue_wait_ns,
                    forward_ns: reply.forward_ns,
                    total_ns: 0,
                };
                (values, None, timing)
            }
            Err(cause) => {
                let values = {
                    let tenant = state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                    let persisted = tenant
                        .buffer
                        .persistence_forecast(self.horizon, self.config.target_feature);
                    persisted.ok_or(EnhanceNetError::NotReady {
                        have: tenant.buffer.len(),
                        need: self.input[0],
                    })?
                };
                enhancenet_telemetry::count("serve.fallback", 1);
                enhancenet_telemetry::count(cause.counter_label(), 1);
                (values, Some(cause), RequestTiming::default())
            }
        };
        let total_ns = started.elapsed().as_nanos() as u64;
        enhancenet_telemetry::observe("serve.latency_ns", total_ns as f64);
        self.record_outcome(state, total_ns, degraded.is_some());
        let timing = RequestTiming { total_ns, ..timing };
        Ok(Forecast { values, degraded, anchor, request_id: id, timing })
    }

    /// Admission, window assembly and the model round trip for one
    /// request: the window's anchor plus the model's reply, or the cause
    /// to degrade with. The tenant lock is held only through admission and
    /// window assembly; the wait for the worker parks outside it, so one
    /// tenant's slow request never blocks its neighbors' ingest.
    fn ask_model(
        &self,
        state: &Mutex<TenantState>,
        id: u64,
    ) -> Result<(Option<i64>, Result<BatchReply, DegradedCause>), EnhanceNetError> {
        let (shard, anchor, raw) = {
            let mut tenant = state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            tenant.requests += 1;
            let anchor = tenant.buffer.latest_timestamp();
            if let Some(bucket) = tenant.bucket.as_mut() {
                if !bucket.try_take() {
                    tenant.throttled += 1;
                    enhancenet_telemetry::count("serve.tenant.throttled", 1);
                    return Ok((anchor, Err(DegradedCause::QuotaExceeded)));
                }
            }
            let Some(raw) = tenant.buffer.window() else {
                return Ok((anchor, Err(DegradedCause::ColdWindow)));
            };
            (tenant.shard, anchor, raw)
        };
        let scaled = self.scaler.transform(&raw)?;
        let answer = match self.submit_to_shard(shard, &scaled, id) {
            Ok(pending) => pending.wait_reply(self.config.deadline).map_err(|e| match e {
                EnhanceNetError::DeadlineExceeded { .. } => DegradedCause::Deadline,
                _ => DegradedCause::WorkerPanic,
            }),
            Err(EnhanceNetError::Overloaded { .. }) => Err(DegradedCause::QueueFull),
            Err(_) => Err(DegradedCause::WorkerPanic),
        };
        Ok((anchor, answer))
    }

    /// Feeds one request outcome into the tenant's and the fleet's rolling
    /// SLO windows, and refreshes the `serve.slo.*` gauges from the
    /// fleet's. Deadline attainment is judged on latency alone — a fast
    /// fallback still "hit" its deadline; degradation is its own rate.
    fn record_outcome(&self, state: &Mutex<TenantState>, total_ns: u64, degraded: bool) {
        let deadline_hit = u128::from(total_ns) <= self.config.deadline.as_nanos();
        {
            let mut tenant = state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            tenant.slo.record(total_ns as f64, deadline_hit, degraded);
            if degraded {
                tenant.degraded += 1;
                enhancenet_telemetry::count("serve.tenant.degraded", 1);
            }
        }
        let mut slo = self.slo.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        slo.record(total_ns as f64, deadline_hit, degraded);
        if enhancenet_telemetry::enabled() {
            let report = slo.report();
            drop(slo);
            publish_slo_gauges(&report);
        }
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
    /// `[1, H, N, C]`: the batch shape the spawn probe compiled.
    seed_shape: [usize; 4],
    /// The spawn probe's plan of the epoch-0 snapshot; `None` when the
    /// model's trace does not compile.
    seed: Option<Arc<Plan>>,
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
/// probe's epoch-0 result, a hot swap clears it (counted once per worker as
/// `serve.swap.adopted`), and the next batch per shape compiles against
/// the new snapshot. A `None` entry is a shape whose compile failed; its
/// batches run on the tape arm until the next epoch.
fn fleet_worker_loop(ctx: WorkerCtx) {
    let _guard = LiveGuard(Arc::clone(&ctx.live));
    let mut batch_x = Tensor::default();
    let mut pred = Tensor::default();
    let mut epoch = 0;
    let mut execs: HashMap<[usize; 4], Option<PlanExecutor>> = HashMap::new();
    execs.insert(ctx.seed_shape, ctx.seed.clone().map(PlanExecutor::new));
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
/// this batch shape, or compile it against the snapshot store, and run it;
/// a shape that does not compile runs on the tape over the same store. The
/// batch that finds its shape uncompilable is answered from the compile
/// request's traced prediction, so no batch pays two forwards.
fn run_on_snapshot(
    model: &dyn Forecaster,
    snapshot: &Snapshot,
    execs: &mut HashMap<[usize; 4], Option<PlanExecutor>>,
    x: &Tensor,
    out: &mut Tensor,
) {
    // A stack key, so warm lookups stay allocation-free.
    let key: [usize; 4] = x.shape().try_into().expect("batches stack to [B, H, N, C]");
    let exec = match execs.entry(key) {
        Entry::Occupied(entry) => {
            if entry.get().is_some() {
                enhancenet_telemetry::count("plan.cache.hits", 1);
            }
            entry.into_mut()
        }
        Entry::Vacant(entry) => {
            enhancenet_telemetry::count("plan.cache.misses", 1);
            let (compiled, traced) = model.compile_eval_plan_on(&snapshot.store, x);
            let Ok(plan) = compiled else {
                entry.insert(None);
                enhancenet_telemetry::count("plan.fallback", 1);
                out.copy_from(&traced);
                return;
            };
            entry.insert(Some(PlanExecutor::new(plan)))
        }
    };
    match exec {
        Some(exec) => exec.run(x, out),
        None => {
            enhancenet_telemetry::count("plan.fallback", 1);
            run_tape(model, &snapshot.store, x, out);
        }
    }
}

/// The tape arm: one eval forward over `store`, traced for this batch.
fn run_tape(model: &dyn Forecaster, store: &ParamStore, x: &Tensor, out: &mut Tensor) {
    // The eval context draws nothing from the RNG (dropout off, no teacher
    // forcing), so a fixed seed keeps the trace deterministic.
    let mut rng = TensorRng::seed(0);
    let mut ctx = ForwardCtx::eval(&mut rng);
    let mut g = Graph::new();
    let pred = model.forward_on(&mut g, store, x, &mut ctx);
    out.copy_from(g.value(pred));
}
