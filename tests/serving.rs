//! End-to-end serving-path coverage: raw observations streamed through a
//! single-worker [`FleetService`] tenant must produce exactly the forecasts
//! the offline [`Forecaster::predict`] path produces on the same windows,
//! and every failure mode must degrade to a persistence forecast instead
//! of hanging or panicking.

use enhancenet::prelude::*;
use enhancenet::ForwardCtx;
use enhancenet_autodiff::{Graph, ParamStore, Plan, PlanError, Var};
use enhancenet_models::{GruSeq2Seq, ModelDims, TemporalMode};
use enhancenet_tensor::Tensor;
use std::time::{Duration, Instant};

const H: usize = 12;
const F: usize = 12;
const N: usize = 8;

fn dims() -> ModelDims {
    ModelDims { num_entities: N, in_features: 1, hidden: 8, input_len: H, output_len: F }
}

/// Same constructor arguments → bit-identical parameters, so a twin model
/// stands in for "the same trained model" on the offline path.
fn model() -> GruSeq2Seq {
    GruSeq2Seq::rnn(dims(), 1, TemporalMode::Shared, 3)
}

#[test]
fn streamed_forecasts_match_offline_predict_bitwise() {
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    let data = WindowDataset::from_series(&series, H, F).unwrap();
    let (n, c) = (series.num_entities(), series.num_features());

    let service =
        ServeConfig::builder().spawn_fleet(Box::new(model()), data.scaler.clone()).unwrap();
    let stream = service.tenant("stream");
    let offline = model();

    let mut compared = 0;
    for t in 0..60 {
        let row = &series.values.data()[t * n * c..(t + 1) * n * c];
        stream.ingest_row(t as i64, row).unwrap();
        if !stream.is_ready() {
            continue;
        }
        let served = stream.forecast().unwrap();
        assert!(!served.is_degraded(), "model answered within deadline at t={t}");
        assert_eq!(served.anchor, Some(t as i64));

        // Offline: the same H raw rows, scaled with the same scaler.
        let raw = series.values.slice_axis(0, t + 1 - H, t + 1);
        let scaled = data.scaler.transform(&raw).unwrap();
        let expected = data.scaler.inverse_feature(&offline.predict(&scaled).unwrap(), 0);
        assert_eq!(
            served.values.data(),
            expected.data(),
            "served forecast diverged from offline predict at t={t}"
        );
        compared += 1;
    }
    assert!(compared >= 40, "only {compared} forecasts compared");
    service.shutdown(ShutdownMode::Drain);
}

/// A host whose forward pass is far slower than the serving deadline. It
/// refuses compilation, so every batch runs the slow forward on the tape;
/// its refusal still traces (and sleeps), returning the real prediction as
/// the compile contract requires.
struct SlowModel {
    inner: GruSeq2Seq,
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
fn missed_deadline_returns_degraded_persistence_not_an_error() {
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    let data = WindowDataset::from_series(&series, H, F).unwrap();
    let (n, c) = (series.num_entities(), series.num_features());

    let slow = SlowModel { inner: model(), sleep: Duration::from_millis(300) };
    let service = ServeConfig::builder()
        .deadline(Duration::from_millis(5))
        .spawn_fleet(Box::new(slow), data.scaler.clone())
        .unwrap();
    let stream = service.tenant("stream");
    for t in 0..H {
        let row = &series.values.data()[t * n * c..(t + 1) * n * c];
        stream.ingest_row(t as i64, row).unwrap();
    }

    let started = Instant::now();
    let forecast = stream.forecast().expect("degraded forecast, not an error");
    assert_eq!(
        forecast.degraded,
        Some(DegradedCause::Deadline),
        "a missed deadline must be marked degraded with its cause"
    );
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "forecast blocked past its deadline: {:?}",
        started.elapsed()
    );

    // The fallback is a persistence forecast: each entity's last raw
    // observation repeated across the horizon.
    assert_eq!(forecast.values.shape(), &[F, N]);
    for e in 0..N {
        let last = series.values.at(&[H - 1, e, 0]);
        for f in 0..F {
            assert_eq!(forecast.values.at(&[f, e]), last);
        }
    }
    service.shutdown(ShutdownMode::Drain);
}

#[test]
fn warming_service_degrades_instead_of_erroring() {
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    let data = WindowDataset::from_series(&series, H, F).unwrap();
    let (n, c) = (series.num_entities(), series.num_features());
    let service =
        ServeConfig::builder().spawn_fleet(Box::new(model()), data.scaler.clone()).unwrap();
    let stream = service.tenant("stream");
    // Fewer rows than the window needs: degraded persistence, never a hang.
    for t in 0..H / 2 {
        let row = &series.values.data()[t * n * c..(t + 1) * n * c];
        stream.ingest_row(t as i64, row).unwrap();
        let forecast = stream.forecast().unwrap();
        assert_eq!(forecast.degraded, Some(DegradedCause::ColdWindow));
        assert_eq!(forecast.values.shape(), &[F, N]);
    }
    service.shutdown(ShutdownMode::Drain);
}

#[test]
fn live_scrape_exposes_slo_and_fallback_series() {
    use std::io::{Read as _, Write as _};

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    }

    // This test owns the process-global telemetry switch; the other tests
    // in this binary never read the global registry, so flipping it here
    // is safe even under the parallel test runner.
    enhancenet_telemetry::set_enabled(true);
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    let data = WindowDataset::from_series(&series, H, F).unwrap();
    let (n, c) = (series.num_entities(), series.num_features());
    let service = ServeConfig::builder()
        .metrics_addr("127.0.0.1:0")
        .spawn_fleet(Box::new(model()), data.scaler.clone())
        .unwrap();
    let addr = service.metrics_addr().expect("ephemeral metrics port bound");
    let stream = service.tenant("stream");

    // Not ready while the window is cold; forecasts degrade but count.
    assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 503"));
    let mut ids = Vec::new();
    for t in 0..2 * H {
        let row = &series.values.data()[t * n * c..(t + 1) * n * c];
        stream.ingest_row(t as i64, row).unwrap();
        ids.push(stream.forecast().unwrap().request_id);
    }
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "request ids must be strictly increasing");
    assert!(http_get(addr, "/readyz").starts_with("HTTP/1.1 200"));
    assert!(http_get(addr, "/healthz").starts_with("HTTP/1.1 200"));

    let scrape = http_get(addr, "/metrics");
    for family in [
        "serve_request",
        "serve_fallback_cold",
        "serve_queue_depth",
        "serve_window_fill",
        "serve_slo_p99_ns",
        "serve_slo_deadline_hit_rate",
        "serve_slo_error_budget_burn",
        "serve_latency_ns_count",
        "serve_queue_wait_ns_count",
    ] {
        assert!(scrape.contains(family), "scrape is missing {family}:\n{scrape}");
    }

    // The rolling window saw every request; the cold-window half degraded.
    let report = service.slo_report();
    assert_eq!(report.requests, 2 * H as u64);
    assert!(report.degraded_rate > 0.0 && report.degraded_rate < 1.0);
    service.shutdown(ShutdownMode::Drain);
    enhancenet_telemetry::set_enabled(false);
}
