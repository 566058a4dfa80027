//! Hot swap under load: publishing new weights to a running
//! [`FleetService`] must be invisible to tenants — zero degraded
//! forecasts attributable to the swap — and every post-swap answer must
//! match the offline [`Forecaster::predict`] on the new weights bit for
//! bit, exactly as every pre-swap answer matches the old weights. The
//! contract is checked on every host family: shared filters, DFGN
//! filters, dense and top-k DAMGN, and the baselines.

use enhancenet::prelude::*;
use enhancenet_graph::{
    build_supports_csr, gaussian_kernel_adjacency, AdjacencyConfig, SupportKind,
};
use enhancenet_models::{
    GraphMode, GruSeq2Seq, LstmSeq2Seq, ModelDims, Stgcn, TemporalMode, WaveNet, WaveNetConfig,
};
use enhancenet_tensor::{CsrMatrix, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const H: usize = 12;
const F: usize = 12;
const N: usize = 8;

/// Builds one host family from a seed. Same constructor arguments →
/// bit-identical parameters: seed 3 is "the model the fleet was launched
/// with", seed 4 is "the retrained weights" (same architecture, so the
/// snapshot layout contract holds).
type Host = fn(&Tensor, u64) -> Box<dyn Forecaster + Send>;

fn dims() -> ModelDims {
    ModelDims { num_entities: N, in_features: 1, hidden: 8, input_len: H, output_len: F }
}

fn small_wavenet() -> WaveNetConfig {
    WaveNetConfig { dilations: vec![1, 2, 4, 8], kernel: 2, end_hidden: 16, dropout: 0.3 }
}

const HOSTS: [(&str, Host); 9] = [
    ("RNN", |_, seed| Box::new(GruSeq2Seq::rnn(dims(), 1, TemporalMode::Shared, seed))),
    ("D-RNN", |_, seed| Box::new(GruSeq2Seq::paper_d_rnn(dims(), 1, seed))),
    ("D-DA-GRNN", |a, seed| Box::new(GruSeq2Seq::paper_d_da_grnn(dims(), 1, a, seed))),
    ("TCN", |_, seed| Box::new(WaveNet::paper_tcn(dims(), seed))),
    ("D-DA-GTCN", |a, seed| Box::new(WaveNet::paper_d_da_gtcn(dims(), a, seed))),
    ("Graph WaveNet", |a, seed| Box::new(WaveNet::paper_adaptive_baseline(dims(), a, seed))),
    ("LSTM", |_, seed| Box::new(LstmSeq2Seq::new(dims(), 1, seed))),
    ("STGCN", |a, seed| Box::new(Stgcn::new(dims(), 2, a, seed))),
    ("top-k D-DA-GTCN", |a, seed| {
        let bases = build_supports_csr(&CsrMatrix::from_dense(a), SupportKind::DoubleTransition);
        Box::new(WaveNet::gtcn_sparse(
            dims(),
            small_wavenet(),
            TemporalMode::Distinct(DfgnConfig::default()),
            GraphMode::paper_dynamic_topk(3),
            bases,
            seed,
        ))
    }),
];

/// Sets the background thread's stop flag when dropped. Created before the
/// foreground assertions, so a failing one stops the hammer as the panic
/// unwinds, and `thread::scope` can join it instead of hanging.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn hot_swap_under_load_is_invisible_and_bitwise_correct() {
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    let data = WindowDataset::from_series(&series, H, F).unwrap();
    let adjacency = gaussian_kernel_adjacency(&series.distances, AdjacencyConfig::default());
    for (host, build) in HOSTS {
        hot_swap_is_bitwise(host, |seed| build(&adjacency, seed), &series, &data);
    }
}

fn hot_swap_is_bitwise(
    host: &str,
    model: impl Fn(u64) -> Box<dyn Forecaster + Send>,
    series: &CorrelatedTimeSeries,
    data: &WindowDataset,
) {
    let (n, c) = (series.num_entities(), series.num_features());

    // Generous deadline: this test asserts *zero* degraded responses, so
    // scheduler hiccups on a loaded runner must not masquerade as swap
    // fallout.
    let fleet = ServeConfig::builder()
        .workers(2)
        .deadline(Duration::from_secs(10))
        .spawn_fleet(model(3), data.scaler.clone())
        .unwrap();
    let old = model(3);
    let new = model(4);
    let publisher = fleet.publisher();

    let swap_at = 30;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop_hammer = StopOnDrop(&stop);
        // Background load: a second tenant hammering its (static) window
        // through the whole run, including the swap instant.
        let hammer = scope.spawn(|| {
            let tenant = fleet.tenant("hammer");
            for t in 0..H {
                let row = &series.values.data()[t * n * c..(t + 1) * n * c];
                tenant.ingest_row(t as i64, row).unwrap();
            }
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let forecast = tenant.forecast().expect("forecasts never error");
                assert!(
                    !forecast.is_degraded(),
                    "{host}: hammer tenant degraded mid-run: {:?}",
                    forecast.degraded
                );
                served += 1;
            }
            served
        });

        // Foreground stream: every answer compared bitwise against the
        // offline predict on whichever weights are live.
        let tenant = fleet.tenant("stream");
        let mut compared_old = 0;
        let mut compared_new = 0;
        for t in 0..60 {
            if t == swap_at {
                assert_eq!(fleet.epoch(), 0);
                let epoch = publisher.publish(new.store()).unwrap();
                assert_eq!(epoch, 1);
                assert_eq!(fleet.epoch(), 1);
            }
            let row = &series.values.data()[t * n * c..(t + 1) * n * c];
            tenant.ingest_row(t as i64, row).unwrap();
            if !tenant.is_ready() {
                continue;
            }
            let served = tenant.forecast().unwrap();
            assert!(!served.is_degraded(), "{host}: degraded at t={t}: {:?}", served.degraded);

            let raw = series.values.slice_axis(0, t + 1 - H, t + 1);
            let scaled = data.scaler.transform(&raw).unwrap();
            let live = if t < swap_at { &old } else { &new };
            let expected = data.scaler.inverse_feature(&live.predict(&scaled).unwrap(), 0);
            assert_eq!(
                served.values.data(),
                expected.data(),
                "{host}: served diverged from offline predict on the live weights at t={t}"
            );
            if t >= swap_at {
                // The swap visibly changed the answers: the old weights
                // would have said something else for the same window.
                let stale = data.scaler.inverse_feature(&old.predict(&scaled).unwrap(), 0);
                assert_ne!(
                    served.values.data(),
                    stale.data(),
                    "{host}: swap never took effect at t={t}"
                );
                compared_new += 1;
            } else {
                compared_old += 1;
            }
        }
        assert!(compared_old >= 15, "{host}: only {compared_old} pre-swap forecasts compared");
        assert!(compared_new >= 25, "{host}: only {compared_new} post-swap forecasts compared");

        drop(stop_hammer);
        let served = hammer.join().expect("hammer thread ran");
        assert!(served > 0, "{host}: background tenant never got a forecast through");
    });

    // No tenant saw ANY degradation or throttling across the swap, and a
    // drain shutdown completes with nothing shed.
    for report in fleet.tenant_reports() {
        assert_eq!(report.degraded, 0, "{host}: tenant {} degraded", report.tenant);
        assert_eq!(report.throttled, 0, "{host}: tenant {} throttled", report.tenant);
        assert_eq!(report.slo.degraded_rate, 0.0);
    }
    let shutdown = fleet.shutdown(ShutdownMode::Drain);
    assert_eq!(shutdown.shed, 0, "{host}: drain shutdown must not shed");
}

#[test]
fn non_finite_snapshot_is_rejected_and_the_old_weights_keep_serving() {
    let series = generate_traffic(&TrafficConfig::tiny(N, 2));
    let data = WindowDataset::from_series(&series, H, F).unwrap();
    let (n, c) = (series.num_entities(), series.num_features());
    let model = |seed| GruSeq2Seq::paper_d_rnn(dims(), 1, seed);
    let fleet = ServeConfig::builder()
        .workers(2)
        .deadline(Duration::from_secs(10))
        .spawn_fleet(Box::new(model(3)), data.scaler.clone())
        .unwrap();
    let old = model(3);
    let tenant = fleet.tenant("stream");
    for t in 0..H {
        tenant.ingest_row(t as i64, &series.values.data()[t * n * c..(t + 1) * n * c]).unwrap();
    }
    let before = tenant.forecast().unwrap();
    assert!(!before.is_degraded());

    let mut poisoned = model(4);
    let id = poisoned.store().ids().nth(1).expect("D-RNN has parameters");
    poisoned.store_mut().value_mut(id).data_mut()[0] = f32::NAN;
    match fleet.publisher().publish(poisoned.store()) {
        Err(EnhanceNetError::InvalidConfig { field: "snapshot", .. }) => {}
        other => panic!("a NaN snapshot must be rejected, got {other:?}"),
    }
    assert_eq!(fleet.epoch(), 0, "a rejected publish must not advance the epoch");

    let served = tenant.forecast().unwrap();
    assert!(!served.is_degraded(), "degraded after a rejected publish: {:?}", served.degraded);
    let scaled = data.scaler.transform(&series.values.slice_axis(0, 0, H)).unwrap();
    let expected = data.scaler.inverse_feature(&old.predict(&scaled).unwrap(), 0);
    assert_eq!(served.values.data(), expected.data(), "served weights changed");
    assert_eq!(served.values.data(), before.values.data());
    fleet.shutdown(ShutdownMode::Drain);
}
