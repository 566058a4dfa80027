//! Hot swap under load: publishing new weights to a running
//! [`FleetService`] must be invisible to tenants — zero degraded
//! forecasts attributable to the swap — and every post-swap answer must
//! match the offline [`Forecaster::predict`] on the new weights bit for
//! bit, exactly as every pre-swap answer matches the old weights.

use enhancenet::prelude::*;
use enhancenet_models::{GruSeq2Seq, ModelDims, TemporalMode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const H: usize = 12;
const F: usize = 12;
const N: usize = 8;

/// Same constructor arguments → bit-identical parameters: seed 3 is "the
/// model the fleet was launched with", seed 4 is "the retrained weights"
/// (same architecture, so the snapshot layout contract holds).
fn model(seed: u64) -> GruSeq2Seq {
    let dims =
        ModelDims { num_entities: N, in_features: 1, hidden: 8, input_len: H, output_len: F };
    GruSeq2Seq::rnn(dims, 1, TemporalMode::Shared, seed)
}

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
    let (n, c) = (series.num_entities(), series.num_features());

    // Generous deadline: this test asserts *zero* degraded responses, so
    // scheduler hiccups on a loaded runner must not masquerade as swap
    // fallout.
    let fleet = ServeConfig::builder()
        .workers(2)
        .deadline(Duration::from_secs(10))
        .spawn_fleet(Box::new(model(3)), data.scaler.clone())
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
                    "hammer tenant degraded mid-run: {:?}",
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
            assert!(!served.is_degraded(), "degraded at t={t}: {:?}", served.degraded);

            let raw = series.values.slice_axis(0, t + 1 - H, t + 1);
            let scaled = data.scaler.transform(&raw).unwrap();
            let live = if t < swap_at { &old } else { &new };
            let expected = data.scaler.inverse_feature(&live.predict(&scaled).unwrap(), 0);
            assert_eq!(
                served.values.data(),
                expected.data(),
                "served diverged from offline predict on the live weights at t={t}"
            );
            if t >= swap_at {
                // The swap visibly changed the answers: the old weights
                // would have said something else for the same window.
                let stale = data.scaler.inverse_feature(&old.predict(&scaled).unwrap(), 0);
                assert_ne!(served.values.data(), stale.data(), "swap never took effect at t={t}");
                compared_new += 1;
            } else {
                compared_old += 1;
            }
        }
        assert!(compared_old >= 15, "only {compared_old} pre-swap forecasts compared");
        assert!(compared_new >= 25, "only {compared_new} post-swap forecasts compared");

        drop(stop_hammer);
        let served = hammer.join().expect("hammer thread ran");
        assert!(served > 0, "background tenant never got a forecast through");
    });

    // No tenant saw ANY degradation or throttling across the swap, and a
    // drain shutdown completes with nothing shed.
    for report in fleet.tenant_reports() {
        assert_eq!(report.degraded, 0, "tenant {} degraded", report.tenant);
        assert_eq!(report.throttled, 0, "tenant {} throttled", report.tenant);
        assert_eq!(report.slo.degraded_rate, 0.0);
    }
    let shutdown = fleet.shutdown(ShutdownMode::Drain);
    assert_eq!(shutdown.shed, 0, "drain shutdown must not shed");
}
