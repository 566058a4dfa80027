//! Online forecast serving: wrap a trained model in a single-worker
//! [`FleetService`], stream raw observations into one tenant's sliding
//! window, and read 12-step forecasts back — including the
//! graceful-degradation path while the window is still warming up.
//!
//! ```sh
//! cargo run --release --example online_serving
//! ```
//!
//! With live observability — bind an embedded Prometheus endpoint and keep
//! replaying traffic so it can be scraped under load:
//!
//! ```sh
//! cargo run --release --example online_serving -- \
//!     --metrics-addr 127.0.0.1:9898 --serve-secs 10 &
//! curl -s http://127.0.0.1:9898/metrics | grep serve_slo
//! ```
//!
//! `--telemetry-out <path>` additionally dumps the full telemetry
//! registry (training epochs, `serve.*` SLO metrics, `plan.*`
//! compiled-plan counters) as JSONL on exit, for
//! `scripts/bench_summary --check`.

use enhancenet::prelude::*;
use enhancenet_models::{GruSeq2Seq, ModelDims};
use std::time::{Duration, Instant};

fn parse_args() -> (Option<String>, u64, Option<std::path::PathBuf>) {
    let mut metrics_addr = None;
    let mut serve_secs = 0u64;
    let mut telemetry_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-addr" => {
                metrics_addr = Some(args.next().expect("--metrics-addr needs host:port"));
            }
            "--serve-secs" => {
                serve_secs = args
                    .next()
                    .expect("--serve-secs needs a number")
                    .parse()
                    .expect("--serve-secs must be an integer");
            }
            "--telemetry-out" => {
                telemetry_out = Some(std::path::PathBuf::from(
                    args.next().expect("--telemetry-out needs a path"),
                ));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: online_serving [--metrics-addr host:port] [--serve-secs N] \
                     [--telemetry-out path]"
                );
                std::process::exit(2);
            }
        }
    }
    (metrics_addr, serve_secs, telemetry_out)
}

fn main() {
    let (metrics_addr, serve_secs, telemetry_out) = parse_args();
    if metrics_addr.is_some() || telemetry_out.is_some() {
        // A scrape of a disabled registry would be empty; live exposition
        // (or a JSONL dump) implies live recording.
        enhancenet_telemetry::set_enabled(true);
    }

    // Train a small DFGN-enhanced GRU offline, exactly as in `quickstart`.
    let series = generate_traffic(&TrafficConfig::tiny(16, 5));
    let (n, c) = (series.num_entities(), series.num_features());
    let data = WindowDataset::from_series(&series, 12, 12).expect("series is long enough");
    let config = TrainConfig::builder()
        .epochs(4)
        .batch_size(8)
        .max_batches_per_epoch(Some(20))
        .max_eval_batches(Some(10))
        .build()
        .expect("training config is valid");
    let trainer = Trainer::new(config);
    let dims =
        ModelDims { num_entities: 16, in_features: 1, hidden: 12, input_len: 12, output_len: 12 };
    let mut model = GruSeq2Seq::paper_d_rnn(dims, 2, 7);
    println!("training {} offline ...", model.name());
    trainer.train(&mut model, &data);

    // Hand the model (and the scaler it was trained with) to the service.
    // The model moves behind a worker thread that serves micro-batches; the
    // tenant handle keeps the sliding-window state and the raw-scale API.
    let mut builder = ServeConfig::builder();
    if let Some(addr) = metrics_addr {
        builder = builder.metrics_addr(addr);
    }
    let service = builder
        .spawn_fleet(Box::new(model), data.scaler.clone())
        .expect("model reports its input shape and the metrics address binds");
    let stream = service.tenant("sensors");
    println!(
        "serving: window {:?}, horizon {}, deadline {:?}",
        service.input_shape(),
        service.horizon(),
        ServeConfig::default().deadline
    );
    if let Some(addr) = service.metrics_addr() {
        println!("metrics: http://{addr}/metrics  (also /healthz, /readyz)");
    }

    // Replay the held-out tail of the series as a live feed. The first
    // `H - 1` steps are not enough history: the service degrades to a
    // persistence forecast (tagged with its cause) instead of failing.
    let start = series.num_steps() - 24;
    let mut degraded_count = 0;
    for (step, t) in (start..series.num_steps()).enumerate() {
        let row = &series.values.data()[t * n * c..(t + 1) * n * c];
        stream.ingest_row(t as i64, row).expect("row has N*C values");
        let forecast = stream.forecast().expect("history exists once ingested");
        if forecast.is_degraded() {
            degraded_count += 1;
        }
        if step % 6 == 5 {
            println!(
                "t={t:>4}  id={:<3}  degraded={:<5}  next-step speeds: {:.1} / {:.1} / {:.1} km/h",
                forecast.request_id,
                forecast.is_degraded(),
                forecast.values.at(&[0, 0]),
                forecast.values.at(&[0, 1]),
                forecast.values.at(&[0, 2]),
            );
        }
    }
    println!(
        "\n{} of 24 responses were degraded persistence forecasts (warm-up); \
         the rest came from the model within the deadline.",
        degraded_count
    );

    // Optionally keep the feed looping so an external scraper sees the
    // service under steady load (used by the CI smoke job).
    if serve_secs > 0 {
        println!("replaying traffic for {serve_secs}s so /metrics can be scraped under load ...");
        let until = Instant::now() + Duration::from_secs(serve_secs);
        let mut t = series.num_steps() as i64;
        while Instant::now() < until {
            let src = (t as usize) % series.num_steps();
            let row = &series.values.data()[src * n * c..(src + 1) * n * c];
            stream.ingest_row(t, row).expect("row has N*C values");
            let _ = stream.forecast().expect("history exists once ingested");
            t += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let slo = service.slo_report();
    println!(
        "SLO over the last {:?}: {} requests, p50 {:.2} ms, p99 {:.2} ms, \
         deadline hit-rate {:.3} (target {}), degraded rate {:.3}, budget burn {:.2}",
        slo.window,
        slo.requests,
        slo.latency_p50_ns / 1e6,
        slo.latency_p99_ns / 1e6,
        slo.deadline_hit_rate,
        slo.target,
        slo.degraded_rate,
        slo.error_budget_burn,
    );
    let report = service.shutdown(ShutdownMode::Drain);
    println!("shutdown: drained {} queued requests, shed {}", report.drained, report.shed);

    // Dump everything recorded (training epochs, serve.* SLO metrics, the
    // plan.* cache/compile telemetry) after the worker has drained, so the
    // JSONL carries the full serving story. CI gates on this artifact:
    // `bench_summary --check` plus a nonzero `plan.cache.hits`.
    if let Some(path) = telemetry_out {
        enhancenet_telemetry::write_jsonl(&path).expect("telemetry JSONL is writable");
        println!("telemetry written to {}", path.display());
    }
}
