use super::reply::ReplySlot;
use super::worker::BatchReply;
use super::*;
use crate::error::EnhanceNetError;
use crate::forecaster::test_model::AffinePersistence;
use crate::forecaster::{Forecaster, ForwardCtx};
use enhancenet_autodiff::{Graph, ParamStore, Plan, PlanError, Var};
use enhancenet_data::StandardScaler;
use enhancenet_tensor::{Tensor, TensorRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const H: usize = 5;
const N: usize = 3;
const C: usize = 1;
const F: usize = 4;

fn scaler() -> StandardScaler {
    let mut rng = TensorRng::seed(11);
    let history = rng.normal(&[40, N, C], 50.0, 10.0);
    StandardScaler::fit(&history, 30).unwrap()
}

fn fleet(builder: ServeConfigBuilder) -> FleetService {
    let model = AffinePersistence::new(F).with_input_shape(H, N, C);
    builder.spawn_fleet(Box::new(model), scaler()).unwrap()
}

/// Ingests `steps` rows where entity `e` at step `t` reads `base + t + e`.
fn feed(tenant: &Tenant<'_>, steps: usize, base: f32) {
    for t in 0..steps {
        for e in 0..N {
            tenant.ingest(t as i64, e, &[base + t as f32 + e as f32]).unwrap();
        }
    }
}

/// The raw `[H, N, C]` window `feed(tenant, H, base)` leaves buffered.
fn fed_window(base: f32) -> Tensor {
    let data = (0..H).flat_map(|t| (0..N).map(move |e| base + t as f32 + e as f32)).collect();
    Tensor::from_vec(data, &[H, N, C])
}

/// `model`'s offline raw-scale forecast over `feed(_, H, base)`'s window.
fn offline(model: &dyn Forecaster, base: f32) -> Tensor {
    let sc = scaler();
    sc.inverse_feature(&model.predict(&sc.transform(&fed_window(base)).unwrap()).unwrap(), 0)
}

#[test]
fn served_forecast_matches_offline_predict() {
    let svc = fleet(ServeConfig::builder());
    let stream = svc.tenant("stream");
    feed(&stream, H, 40.0);
    let served = stream.forecast().unwrap();
    assert!(!served.is_degraded());
    assert_eq!(served.degraded, None);
    assert_eq!(served.anchor, Some(H as i64 - 1));
    assert_eq!(served.values.shape(), &[F, N]);

    // The offline path over the same observations, scaled the same way.
    let model = AffinePersistence::new(F).with_input_shape(H, N, C);
    assert_eq!(served.values.data(), offline(&model, 40.0).data());
}

#[test]
fn empty_service_reports_not_ready() {
    let svc = fleet(ServeConfig::builder());
    match svc.tenant("stream").forecast() {
        Err(EnhanceNetError::NotReady { have: 0, need }) => assert_eq!(need, H),
        other => panic!("expected NotReady, got {other:?}"),
    }
}

#[test]
fn warming_buffer_serves_degraded_persistence() {
    let svc = fleet(ServeConfig::builder());
    let stream = svc.tenant("stream");
    stream.ingest(0, 0, &[42.0]).unwrap();
    assert!(!stream.is_ready());
    let f = stream.forecast().unwrap();
    assert_eq!(f.degraded, Some(DegradedCause::ColdWindow));
    assert!(f.is_degraded());
    assert_eq!(f.values.shape(), &[F, N]);
    assert_eq!(f.values.at(&[0, 0]), 42.0);
    assert_eq!(f.values.at(&[F - 1, 0]), 42.0);
    // Entities never observed persist their fill value.
    assert_eq!(f.values.at(&[0, 1]), 0.0);
}

#[test]
fn request_ids_are_monotonic_and_timing_populated() {
    let svc = fleet(ServeConfig::builder());
    let stream = svc.tenant("stream");
    feed(&stream, H, 40.0);
    let a = stream.forecast().unwrap();
    let b = stream.forecast().unwrap();
    assert!(b.request_id > a.request_id, "ids must grow: {} then {}", a.request_id, b.request_id);
    for f in [&a, &b] {
        assert!(f.timing.total_ns > 0);
        assert!(
            f.timing.queue_wait_ns + f.timing.forward_ns <= f.timing.total_ns,
            "attribution exceeds wall time: {:?}",
            f.timing
        );
        assert!(f.timing.forward_ns > 0, "model path must attribute forward time");
    }
}

#[test]
fn slo_report_tracks_outcomes() {
    let svc = fleet(ServeConfig::builder());
    let stream = svc.tenant("stream");
    stream.ingest(0, 0, &[42.0]).unwrap();
    let _ = stream.forecast().unwrap(); // cold-window fallback
    feed(&stream, H, 40.0);
    let _ = stream.forecast().unwrap(); // healthy
    let report = svc.slo_report();
    assert_eq!(report.requests, 2);
    assert!((report.degraded_rate - 0.5).abs() < 1e-12);
    // Both answered far inside the 250 ms default deadline.
    assert_eq!(report.deadline_hit_rate, 1.0);
    assert_eq!(report.error_budget_burn, 0.0);
    assert!(report.latency_p50_ns > 0.0);
    assert_eq!(report.window, svc.config().slo_window);
}

/// A model that sleeps in `forward`, simulating an overloaded backend. It
/// refuses compilation, so the fleet serves every batch on the tape arm
/// and every batch pays the sleep; its refusal still traces (and sleeps),
/// returning the real prediction as the compile contract requires.
struct SlowModel {
    inner: AffinePersistence,
    sleep: Duration,
}

impl Forecaster for SlowModel {
    fn name(&self) -> &str {
        "slow"
    }
    fn store(&self) -> &ParamStore {
        self.inner.store()
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }
    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
    fn input_shape(&self) -> Option<[usize; 3]> {
        self.inner.input_shape()
    }
    fn forward_on(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var {
        std::thread::sleep(self.sleep);
        self.inner.forward_on(g, store, x, ctx)
    }
    fn compile_eval_plan_on(
        &self,
        store: &ParamStore,
        batched: &Tensor,
    ) -> (Result<Plan, PlanError>, Tensor) {
        std::thread::sleep(self.sleep);
        (Err(PlanError::NoInput), self.inner.compile_eval_plan_on(store, batched).1)
    }
}

#[test]
fn missed_deadline_degrades_without_hanging() {
    let model = SlowModel {
        inner: AffinePersistence::new(F).with_input_shape(H, N, C),
        sleep: Duration::from_millis(200),
    };
    let svc = ServeConfig::builder()
        .deadline(Duration::from_millis(5))
        .spawn_fleet(Box::new(model), scaler())
        .unwrap();
    let stream = svc.tenant("stream");
    feed(&stream, H, 40.0);
    let started = Instant::now();
    let f = stream.forecast().unwrap();
    assert_eq!(f.degraded, Some(DegradedCause::Deadline));
    assert!(
        started.elapsed() < Duration::from_millis(150),
        "forecast blocked past its deadline: {:?}",
        started.elapsed()
    );
    // The miss shows up in the rolling SLO window.
    let report = svc.slo_report();
    assert!(report.deadline_hit_rate < 1.0);
    assert!(report.error_budget_burn > 0.0);
    svc.shutdown(ShutdownMode::Drain);
}

#[test]
fn overloaded_queue_degrades_with_queue_full_cause() {
    let model = SlowModel {
        inner: AffinePersistence::new(F).with_input_shape(H, N, C),
        sleep: Duration::from_millis(300),
    };
    let svc = ServeConfig::builder()
        .max_batch(1)
        .queue_capacity(1)
        .deadline(Duration::from_millis(5))
        .spawn_fleet(Box::new(model), scaler())
        .unwrap();
    let stream = svc.tenant("stream");
    feed(&stream, H, 40.0);
    // Occupy the worker with one request and fill the 1-deep queue with
    // another; the next forecast cannot enqueue and must degrade.
    let window = Tensor::zeros(&[H, N, C]);
    let _busy = svc.submit(&window).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // let the worker take it
    let _queued = svc.submit(&window).unwrap();
    let f = stream.forecast().unwrap();
    assert_eq!(f.degraded, Some(DegradedCause::QueueFull));
    svc.shutdown(ShutdownMode::Drain);
}

#[test]
fn wait_deadline_includes_queue_time() {
    // A pending forecast whose worker never answers: the deadline clock
    // started at submission, so by the time the caller gets around to
    // waiting, most of the budget is already spent and `wait` must
    // return almost immediately instead of granting a fresh full budget.
    let (_handle, slot) = ReplySlot::pair();
    let pending = PendingForecast { slot, submitted: Instant::now(), id: 0 };
    let deadline = Duration::from_millis(50);
    std::thread::sleep(Duration::from_millis(120));
    let waited = Instant::now();
    match pending.wait(deadline) {
        Err(EnhanceNetError::DeadlineExceeded { deadline: d }) => assert_eq!(d, deadline),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        waited.elapsed() < deadline,
        "wait granted a fresh budget after the deadline had lapsed in the queue: {:?}",
        waited.elapsed()
    );

    // A reply that landed within budget is still collectable even when
    // the caller polls late — lapsed budget drops to a non-blocking poll,
    // not an unconditional error.
    let (handle, slot) = ReplySlot::pair();
    let pending = PendingForecast { slot, submitted: Instant::now(), id: 1 };
    assert_eq!(pending.request_id(), 1);
    handle.send(Ok(BatchReply { values: Tensor::zeros(&[F, N]), queue_wait_ns: 0, forward_ns: 0 }));
    std::thread::sleep(Duration::from_millis(60));
    assert!(pending.wait(deadline).is_ok(), "delivered reply must survive a late wait");
}

/// A model whose forward panics, simulating a poisoned worker. It refuses
/// compilation without tracing (a trace would panic at spawn), so its
/// traced value is a placeholder; the single-window batches below all hit
/// the spawn probe's cached refusal and reach the panicking tape forward.
struct PanickyModel {
    inner: AffinePersistence,
}

impl Forecaster for PanickyModel {
    fn name(&self) -> &str {
        "panicky"
    }
    fn store(&self) -> &ParamStore {
        self.inner.store()
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }
    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
    fn input_shape(&self) -> Option<[usize; 3]> {
        self.inner.input_shape()
    }
    fn forward_on(
        &self,
        _g: &mut Graph,
        _store: &ParamStore,
        _x: &Tensor,
        _ctx: &mut ForwardCtx,
    ) -> Var {
        panic!("injected model failure");
    }
    fn compile_eval_plan_on(
        &self,
        _store: &ParamStore,
        _batched: &Tensor,
    ) -> (Result<Plan, PlanError>, Tensor) {
        (Err(PlanError::NoInput), Tensor::default())
    }
}

#[test]
fn worker_panic_degrades_and_service_survives() {
    let model = PanickyModel { inner: AffinePersistence::new(F).with_input_shape(H, N, C) };
    let svc = ServeConfig::builder().spawn_fleet(Box::new(model), scaler()).unwrap();
    let stream = svc.tenant("stream");
    feed(&stream, H, 40.0);
    let first = stream.forecast().unwrap();
    assert_eq!(first.degraded, Some(DegradedCause::WorkerPanic));
    // The worker survived the panic and still answers.
    assert_eq!(svc.workers_alive(), 1);
    let second = stream.forecast().unwrap();
    assert_eq!(second.degraded, Some(DegradedCause::WorkerPanic));
    svc.shutdown(ShutdownMode::Drain);
}

#[test]
fn full_queue_rejects_submissions() {
    let model = SlowModel {
        inner: AffinePersistence::new(F).with_input_shape(H, N, C),
        sleep: Duration::from_millis(100),
    };
    let svc = ServeConfig::builder()
        .max_batch(1)
        .queue_capacity(1)
        .spawn_fleet(Box::new(model), scaler())
        .unwrap();
    let window = Tensor::zeros(&[H, N, C]);
    let pendings: Vec<_> = (0..8).map(|_| svc.submit(&window)).collect();
    let rejected = pendings
        .iter()
        .filter(|p| matches!(p, Err(EnhanceNetError::Overloaded { capacity: 1 })))
        .count();
    assert!(rejected >= 1, "a 1-deep queue must reject an 8-burst");
    // Accepted requests still complete.
    for pending in pendings.into_iter().flatten() {
        assert!(pending.wait(Duration::from_secs(5)).is_ok());
    }
}

#[test]
fn micro_batch_replies_match_sequential_submissions() {
    let svc = fleet(ServeConfig::builder().max_batch(4).max_wait(Duration::from_millis(25)));
    let mut rng = TensorRng::seed(7);
    let windows: Vec<Tensor> = (0..4).map(|_| rng.normal(&[H, N, C], 0.0, 1.0)).collect();
    let pendings: Vec<PendingForecast> = windows.iter().map(|w| svc.submit(w).unwrap()).collect();
    let model = AffinePersistence::new(F).with_input_shape(H, N, C);
    for (window, pending) in windows.iter().zip(pendings) {
        let batched = pending.wait(Duration::from_secs(5)).unwrap();
        let solo = model.predict(window).unwrap();
        assert_eq!(batched.shape(), &[F, N]);
        assert_eq!(batched.data(), solo.data(), "batched reply diverged from solo predict");
    }
}

#[test]
fn submit_validates_window_shape() {
    let svc = fleet(ServeConfig::builder());
    match svc.submit(&Tensor::zeros(&[H, N + 1, C])) {
        Err(EnhanceNetError::InputShape { expected, got }) => {
            assert_eq!(expected, vec![H, N, C]);
            assert_eq!(got, vec![H, N + 1, C]);
        }
        other => panic!("expected InputShape, got {other:?}"),
    }
}

#[test]
fn builder_validation_is_typed() {
    // Invalid knobs fail at `build`, before any thread spawns.
    for (builder, field) in [
        (ServeConfig::builder().max_batch(0), "max_batch"),
        (ServeConfig::builder().queue_capacity(0), "queue_capacity"),
        (ServeConfig::builder().workers(0), "workers"),
        (ServeConfig::builder().slo_slots(0), "slo_slots"),
        (ServeConfig::builder().slo_target(0.0), "slo_target"),
        (ServeConfig::builder().slo_target(1.5), "slo_target"),
        (ServeConfig::builder().slo_window(Duration::from_nanos(1)), "slo_window"),
        (ServeConfig::builder().tenant_quota(TenantQuota::per_second(0.0)), "tenant_quota"),
        (
            ServeConfig::builder().tenant_quota(TenantQuota::per_second(5.0).with_burst(0.5)),
            "tenant_quota",
        ),
    ] {
        match builder.build() {
            Err(EnhanceNetError::InvalidConfig { field: f, .. }) if f == field => {}
            other => panic!("expected InvalidConfig for {field}, got {:?}", other.err()),
        }
    }
    // A model without a declared input shape cannot be served.
    let bare = AffinePersistence::new(F);
    match ServeConfig::builder().spawn_fleet(Box::new(bare), scaler()) {
        Err(EnhanceNetError::UnknownInputShape { .. }) => {}
        other => panic!("expected UnknownInputShape, got {:?}", other.err()),
    }
    // Model-dependent checks run at spawn: target feature out of range.
    let model = AffinePersistence::new(F).with_input_shape(H, N, C);
    match ServeConfig::builder().target_feature(C).spawn_fleet(Box::new(model), scaler()) {
        Err(EnhanceNetError::InvalidConfig { field: "target_feature", .. }) => {}
        other => panic!("expected InvalidConfig, got {:?}", other.err()),
    }
    // An unbindable metrics address fails construction, typed.
    let model = AffinePersistence::new(F).with_input_shape(H, N, C);
    match ServeConfig::builder().metrics_addr("256.0.0.1:0").spawn_fleet(Box::new(model), scaler())
    {
        Err(EnhanceNetError::InvalidConfig { field: "metrics_addr", .. }) => {}
        other => panic!("expected InvalidConfig, got {:?}", other.err()),
    }
}

#[test]
fn shutdown_drain_completes_queued_requests() {
    let model = SlowModel {
        inner: AffinePersistence::new(F).with_input_shape(H, N, C),
        sleep: Duration::from_millis(20),
    };
    let svc = ServeConfig::builder()
        .max_batch(1)
        .queue_capacity(16)
        .spawn_fleet(Box::new(model), scaler())
        .unwrap();
    let window = Tensor::zeros(&[H, N, C]);
    let pendings: Vec<PendingForecast> = (0..4).map(|_| svc.submit(&window).unwrap()).collect();
    let report = svc.shutdown(ShutdownMode::Drain);
    // Every queued request was answered on the model before exit. The
    // first may have been picked up before the shutdown signal landed, so
    // only a lower bound below the total is guaranteed.
    assert_eq!(report.shed, 0);
    assert!(report.drained >= 3, "expected >= 3 drained, got {report:?}");
    for pending in pendings {
        assert!(pending.wait(Duration::from_secs(5)).is_ok(), "drained reply must be delivered");
    }
}

#[test]
fn embedded_metrics_server_scrapes_and_reports_readiness() {
    use std::io::{Read as _, Write as _};

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    }

    let svc = fleet(ServeConfig::builder().metrics_addr("127.0.0.1:0"));
    let addr = svc.metrics_addr().expect("metrics server must be bound");
    assert_eq!(svc.workers_alive(), 1);
    // Cold window: live but not ready.
    let stream = svc.tenant("stream");
    assert!(http_get(addr, "/healthz").starts_with("HTTP/1.1 200"));
    assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 503"));
    feed(&stream, H, 40.0);
    assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 200"));
    // A second, cold tenant makes the fleet not ready again.
    let late = svc.tenant("late");
    assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 503"));
    feed(&late, H, 90.0);
    assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 200"));
    // Evicting a tenant's history turns its window cold again.
    late.evict_before(H as i64);
    assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 503"));
    drop(late);
    let _ = stream.forecast().unwrap();
    let scrape = http_get(addr, "/metrics");
    // The scrape may race other telemetry tests resetting the global
    // store, so only assert the exposition shape, not specific series.
    assert!(scrape.starts_with("HTTP/1.1 200"));
    assert!(scrape.contains("text/plain; version=0.0.4"));
    svc.shutdown(ShutdownMode::Drain);
}

// ---- several workers and tenants ----

#[test]
fn fleet_serves_tenants_matching_offline_predict() {
    let svc = fleet(ServeConfig::builder().workers(2));
    assert_eq!(svc.workers(), 2);
    assert_eq!(svc.workers_alive(), 2);
    assert_eq!(svc.epoch(), 0);
    let a = svc.tenant("acme");
    let b = svc.tenant("babel");
    feed(&a, H, 40.0);
    feed(&b, H, 90.0);
    // Tenants land on distinct round-robin shards.
    assert_ne!(a.shard(), b.shard());
    // Re-acquiring a tenant keeps its shard and state.
    assert_eq!(svc.tenant("acme").shard(), a.shard());

    let fa = a.forecast().unwrap();
    let fb = b.forecast().unwrap();
    assert!(!fa.is_degraded() && !fb.is_degraded());
    // Different streams produce different forecasts...
    assert_ne!(fa.values.data(), fb.values.data());
    // ...and each matches the offline predict over its own window.
    let model = AffinePersistence::new(F).with_input_shape(H, N, C);
    assert_eq!(fa.values.data(), offline(&model, 40.0).data());
    assert_eq!(fb.values.data(), offline(&model, 90.0).data());
    svc.shutdown(ShutdownMode::Drain);
}

#[test]
fn fleet_quota_throttles_bursting_tenant_only() {
    let svc = fleet(
        ServeConfig::builder()
            .workers(2)
            // 2 tokens, refilling at 1 per 1000 s: effectively a hard cap
            // so the test is timing-independent.
            .tenant_quota(TenantQuota { rate: 0.001, burst: 2.0 }),
    );
    let bursty = svc.tenant("bursty");
    let quiet = svc.tenant("quiet");
    feed(&bursty, H, 40.0);
    feed(&quiet, H, 40.0);
    let outcomes: Vec<Forecast> = (0..5).map(|_| bursty.forecast().unwrap()).collect();
    let throttled =
        outcomes.iter().filter(|f| f.degraded == Some(DegradedCause::QuotaExceeded)).count();
    assert_eq!(throttled, 3, "2-token bucket must throttle 3 of 5 burst requests");
    // Throttled requests degrade — they do not error — and carry the tag.
    let report = bursty.report();
    assert_eq!(report.requests, 5);
    assert_eq!(report.throttled, 3);
    assert_eq!(report.degraded, 3);
    // The quiet tenant's bucket is untouched by its neighbor's burst.
    let f = quiet.forecast().unwrap();
    assert!(!f.is_degraded(), "quiet tenant throttled by neighbor's burst");
    assert_eq!(quiet.report().throttled, 0);
    svc.shutdown(ShutdownMode::Drain);
}

#[test]
fn fleet_hot_swap_changes_forecasts_at_next_batch() {
    let svc = fleet(ServeConfig::builder().workers(2));
    let tenant = svc.tenant("acme");
    feed(&tenant, H, 40.0);
    let before = tenant.forecast().unwrap();
    assert!(!before.is_degraded());

    // Train-side: a fresh instance of the same architecture with shifted
    // weights, published as a snapshot.
    let mut trained = AffinePersistence::new(F).with_input_shape(H, N, C);
    for id in trained.store().ids().collect::<Vec<_>>() {
        let v = trained.store().value(id).clone();
        trained.store_mut().value_mut(id).copy_from(&v.map(|x| x * 3.0 + 0.25));
    }
    let publisher = svc.publisher();
    assert_eq!(publisher.epoch(), 0);
    let epoch = publisher.publish(trained.store()).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(svc.epoch(), 1);

    let after = tenant.forecast().unwrap();
    assert!(!after.is_degraded(), "swap must not degrade requests");
    assert_ne!(before.values.data(), after.values.data(), "new weights must change forecasts");
    // Bitwise parity with the offline predict on the new weights.
    assert_eq!(
        after.values.data(),
        offline(&trained, 40.0).data(),
        "post-swap serve must match offline predict"
    );
    svc.shutdown(ShutdownMode::Drain);
}

#[test]
fn publisher_rejects_mismatched_store_layout() {
    let svc = fleet(ServeConfig::builder());
    let publisher = svc.publisher();
    let mut wrong = ParamStore::new();
    wrong.add("lonely", Tensor::scalar(1.0));
    match publisher.publish(&wrong) {
        Err(EnhanceNetError::InvalidConfig { field: "snapshot", .. }) => {}
        other => panic!("expected InvalidConfig, got {:?}", other.err()),
    }
    assert_eq!(svc.epoch(), 0, "a rejected publish must leave the epoch untouched");
    svc.shutdown(ShutdownMode::Drain);
}

/// An input-less model: it bakes the window into a trace constant, so its
/// trace never compiles, but it reads its weights from `store` like any
/// host.
struct TapeOnly {
    inner: AffinePersistence,
}

impl Forecaster for TapeOnly {
    fn name(&self) -> &str {
        "tape-only"
    }
    fn store(&self) -> &ParamStore {
        self.inner.store()
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }
    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
    fn input_shape(&self) -> Option<[usize; 3]> {
        self.inner.input_shape()
    }
    fn forward_on(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var {
        // The training branch slices the window into a constant instead of
        // marking an input leaf; without a teacher it is still an eval
        // forward.
        let mut constant_ctx = ForwardCtx {
            training: true,
            teacher: None,
            teacher_forcing_prob: 0.0,
            rng: &mut *ctx.rng,
        };
        self.inner.forward_on(g, store, x, &mut constant_ctx)
    }
}

/// An unplannable host that counts its forward passes.
struct CountingTapeOnly {
    inner: TapeOnly,
    forwards: Arc<AtomicUsize>,
}

impl Forecaster for CountingTapeOnly {
    fn name(&self) -> &str {
        "counting-tape-only"
    }
    fn store(&self) -> &ParamStore {
        self.inner.store()
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }
    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
    fn input_shape(&self) -> Option<[usize; 3]> {
        self.inner.input_shape()
    }
    fn forward_on(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var {
        self.forwards.fetch_add(1, Ordering::SeqCst);
        self.inner.forward_on(g, store, x, ctx)
    }
}

#[test]
fn unplannable_model_runs_one_forward_per_batch() {
    let tape_only = || TapeOnly { inner: AffinePersistence::new(F).with_input_shape(H, N, C) };
    let forwards = Arc::new(AtomicUsize::new(0));
    let model = CountingTapeOnly { inner: tape_only(), forwards: Arc::clone(&forwards) };
    let svc = ServeConfig::builder().spawn_fleet(Box::new(model), scaler()).unwrap();
    let stream = svc.tenant("stream");
    feed(&stream, H, 40.0);
    // Epoch 0 starts from the spawn probe's cached refusal; a publish
    // clears it, so epoch 1's first batch compiles, fails, and must be
    // answered from that trace rather than a second forward.
    for epoch in 0..2 {
        if epoch == 1 {
            assert_eq!(svc.publisher().publish(tape_only().store()).unwrap(), 1);
        }
        for request in 0..3 {
            let before = forwards.load(Ordering::SeqCst);
            assert!(!stream.forecast().unwrap().is_degraded());
            let ran = forwards.load(Ordering::SeqCst) - before;
            assert_eq!(ran, 1, "epoch {epoch} request {request} ran {ran} forwards");
        }
    }
    svc.shutdown(ShutdownMode::Drain);
}

#[test]
fn unplannable_model_serves_on_the_tape_and_sees_hot_swaps() {
    let tape_only = || TapeOnly { inner: AffinePersistence::new(F).with_input_shape(H, N, C) };
    let probe = Tensor::zeros(&[1, H, N, C]);
    assert!(matches!(tape_only().compile_eval_plan(&probe).0, Err(PlanError::NoInput)));

    let svc = ServeConfig::builder().spawn_fleet(Box::new(tape_only()), scaler()).unwrap();
    let stream = svc.tenant("stream");
    feed(&stream, H, 40.0);
    let before = stream.forecast().unwrap();
    assert!(!before.is_degraded());
    assert_eq!(before.values.data(), offline(&tape_only(), 40.0).data());

    let mut trained = tape_only();
    for id in trained.store().ids().collect::<Vec<_>>() {
        let v = trained.store().value(id).clone();
        trained.store_mut().value_mut(id).copy_from(&v.map(|x| x * 3.0 + 0.25));
    }
    assert_eq!(svc.publisher().publish(trained.store()).unwrap(), 1);
    let after = stream.forecast().unwrap();
    assert!(!after.is_degraded(), "swap must not degrade requests");
    assert_ne!(before.values.data(), after.values.data(), "new weights must change forecasts");
    assert_eq!(
        after.values.data(),
        offline(&trained, 40.0).data(),
        "the tape arm must serve the published weights"
    );
    drop(stream);
    svc.shutdown(ShutdownMode::Drain);
}

#[test]
fn fleet_shutdown_now_sheds_as_degraded_forecasts() {
    let model = SlowModel {
        inner: AffinePersistence::new(F).with_input_shape(H, N, C),
        sleep: Duration::from_millis(50),
    };
    let svc = ServeConfig::builder()
        .workers(1)
        .max_batch(1)
        .queue_capacity(16)
        .spawn_fleet(Box::new(model), scaler())
        .unwrap();
    let window = Tensor::zeros(&[H, N, C]);
    let pendings: Vec<PendingForecast> = (0..6).map(|_| svc.submit(&window).unwrap()).collect();
    let report = svc.shutdown(ShutdownMode::Now);
    assert!(report.shed >= 4, "expected most of the queue shed, got {report:?}");
    assert_eq!(report.drained, 0);
    let shed = pendings
        .iter()
        .filter(|p| matches!(p.wait(Duration::from_secs(5)), Err(EnhanceNetError::ServiceStopped)))
        .count();
    assert_eq!(shed as u64, report.shed);
}

#[test]
fn fleet_wait_parks_without_burning_cpu() {
    // Regression for the busy-poll fix: a waiter parked on an unanswered
    // slot must block on the condvar (microseconds of CPU), not spin. We
    // can't measure CPU portably here, so assert the observable contract:
    // the wait returns within a tight margin of the deadline despite no
    // reply ever arriving, and an immediate wake on delivery.
    let (_handle, slot) = ReplySlot::pair();
    let pending = PendingForecast { slot, submitted: Instant::now(), id: 0 };
    let started = Instant::now();
    let _ = pending.wait(Duration::from_millis(40));
    let elapsed = started.elapsed();
    assert!(elapsed >= Duration::from_millis(35), "returned before the deadline: {elapsed:?}");
    assert!(elapsed < Duration::from_millis(500), "overslept the deadline: {elapsed:?}");
}
