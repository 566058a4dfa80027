//! Multi-tenant fleet load generator: replays bursty traffic against a
//! [`FleetService`] SLO, hot-swaps weights mid-run, and reports per-tenant
//! quota/SLO outcomes plus a per-worker scaling table.
//!
//! ```sh
//! cargo run --release -p enhancenet-bench --bin load_gen -- \
//!     --workers 2 --secs 2 --telemetry-out target/fleet_load.jsonl \
//!     --report-out target/fleet_load_report.json --check
//! ```
//!
//! Three phases:
//!
//! 1. **Scaling sweep** — one unthrottled tenant per worker tight-looping
//!    forecasts for `--scaling-secs` at each fleet size in `--scaling`.
//!    Aggregate throughput vs worker count documents where the machine's
//!    core budget caps the fleet: on a single-core host every row pins
//!    near 1.0x (the single-core ceiling); on an M-core host throughput
//!    tracks min(workers, M).
//! 2. **Burst scenario** — a `steady` tenant paced at half its quota and a
//!    `bursty` tenant firing 2x-overload bursts share one fleet. The token
//!    bucket throttles the bursts to degraded persistence forecasts
//!    (never errors) before they reach the shared queues, so the steady
//!    tenant's deadline hit-rate stays above the SLO target. Halfway
//!    through, fresh weights are published through the
//!    [`SnapshotPublisher`]; in-flight requests finish on the old
//!    snapshot and workers adopt the new one at the next batch boundary.
//! 3. **Parity probe** — a fresh tenant forecast after the swap must match
//!    the offline `predict` on the new weights bit for bit.
//!
//! `--telemetry-out` dumps the `serve.tenant.*` / `serve.swap.*` /
//! `serve.slo.*` telemetry as JSONL for `scripts/bench_summary --check`
//! (CI turns it into `BENCH_fleet_load.json`); `--report-out` writes this
//! binary's own scenario report as JSON. `--check` exits non-zero unless
//! the swap landed, quotas isolated the burst, and the steady tenant held
//! its SLO.

use enhancenet::prelude::*;
use enhancenet_models::{GruSeq2Seq, ModelDims};
use enhancenet_tensor::{Tensor, TensorRng};
use std::time::{Duration, Instant};

/// Problem size: small enough that one forecast is tens of microseconds,
/// so the generator saturates workers from a handful of client threads.
const N: usize = 8;
const C: usize = 1;
const H: usize = 12;
const F: usize = 12;

fn dims() -> ModelDims {
    ModelDims { num_entities: N, in_features: C, hidden: 8, input_len: H, output_len: F }
}

/// D-RNN: per-entity DFGN filters, so the post-swap parity probe covers a
/// host whose served plan folds parameter-derived values.
fn host(seed: u64) -> GruSeq2Seq {
    GruSeq2Seq::paper_d_rnn(dims(), 1, seed)
}

fn scaler() -> StandardScaler {
    let mut rng = TensorRng::seed(17);
    let history = rng.normal(&[64, N, C], 50.0, 8.0);
    StandardScaler::fit(&history, 48).expect("history is non-degenerate")
}

/// Deterministic raw observation row (`N * C` values) at step `t`.
fn row(t: i64) -> Vec<f32> {
    (0..N * C).map(|e| 50.0 + e as f32 + (t as f32 * 0.37).sin() * 5.0).collect()
}

fn warm(tenant: &Tenant<'_>) {
    for t in 0..H as i64 {
        tenant.ingest_row(t, &row(t)).expect("row has N*C values");
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct ClientStats {
    requests: u64,
    healthy: u64,
    degraded: u64,
    errors: u64,
}

impl ClientStats {
    fn absorb(&mut self, forecast: Result<Forecast, EnhanceNetError>) {
        self.requests += 1;
        match forecast {
            Ok(f) if f.is_degraded() => self.degraded += 1,
            Ok(_) => self.healthy += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// Tight-loops forecasts on one tenant until `until`, ingesting a fresh
/// row every 64 requests to keep the window moving like live traffic.
fn tight_loop(fleet: &FleetService, name: &str, until: Instant) -> ClientStats {
    let tenant = fleet.tenant(name);
    warm(&tenant);
    let mut stats = ClientStats::default();
    let mut t = H as i64;
    while Instant::now() < until {
        stats.absorb(tenant.forecast());
        if stats.requests % 64 == 0 {
            tenant.ingest_row(t, &row(t)).expect("row has N*C values");
            t += 1;
        }
    }
    stats
}

/// Phase 1: aggregate throughput at each fleet size, one tenant per worker.
fn scaling_sweep(points: &[usize], secs: f64) -> Vec<(usize, f64)> {
    points
        .iter()
        .map(|&workers| {
            let fleet = ServeConfig::builder()
                .workers(workers)
                .deadline(Duration::from_secs(5))
                .spawn_fleet(Box::new(host(1)), scaler())
                .expect("fleet config is valid and the GRU host is plannable");
            let started = Instant::now();
            let until = started + Duration::from_secs_f64(secs);
            let stats: Vec<ClientStats> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|i| {
                        let fleet = &fleet;
                        let name = format!("t{i}");
                        scope.spawn(move || tight_loop(fleet, &name, until))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread ran")).collect()
            });
            let elapsed = started.elapsed().as_secs_f64();
            fleet.shutdown(ShutdownMode::Drain);
            let total: u64 = stats.iter().map(|s| s.requests).sum();
            (workers, total as f64 / elapsed)
        })
        .collect()
}

/// Phase 2 client: paced at `rate` requests/sec (absolute schedule, no
/// drift), staying under its quota.
fn steady_client(fleet: &FleetService, rate: f64, until: Instant) -> ClientStats {
    let tenant = fleet.tenant("steady");
    warm(&tenant);
    let mut stats = ClientStats::default();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut t = H as i64;
    loop {
        let next = start + interval * (stats.requests as u32 + 1);
        if next >= until {
            return stats;
        }
        stats.absorb(tenant.forecast());
        if stats.requests % 16 == 0 {
            tenant.ingest_row(t, &row(t)).expect("row has N*C values");
            t += 1;
        }
        if let Some(pause) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(pause);
        }
    }
}

/// Phase 2 client: idles, then fires `burst` back-to-back requests — 2x
/// the token bucket's capacity, so roughly half of every burst throttles.
fn bursty_client(fleet: &FleetService, burst: usize, until: Instant) -> ClientStats {
    let tenant = fleet.tenant("bursty");
    warm(&tenant);
    let mut stats = ClientStats::default();
    let mut t = H as i64;
    while Instant::now() < until {
        std::thread::sleep(Duration::from_millis(150));
        for _ in 0..burst {
            stats.absorb(tenant.forecast());
        }
        tenant.ingest_row(t, &row(t)).expect("row has N*C values");
        t += 1;
    }
    stats
}

struct Args {
    workers: usize,
    secs: f64,
    scaling: Vec<usize>,
    scaling_secs: f64,
    telemetry_out: Option<std::path::PathBuf>,
    report_out: Option<std::path::PathBuf>,
    check: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        workers: 2,
        secs: 2.0,
        scaling: vec![1, 2, 4],
        scaling_secs: 1.0,
        telemetry_out: None,
        report_out: None,
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--workers" => parsed.workers = value("--workers").parse().expect("--workers: usize"),
            "--secs" => parsed.secs = value("--secs").parse().expect("--secs: seconds"),
            "--scaling" => {
                parsed.scaling = value("--scaling")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().expect("--scaling: comma-separated worker counts"))
                    .collect();
            }
            "--scaling-secs" => {
                parsed.scaling_secs =
                    value("--scaling-secs").parse().expect("--scaling-secs: secs");
            }
            "--telemetry-out" => {
                parsed.telemetry_out = Some(value("--telemetry-out").into());
            }
            "--report-out" => parsed.report_out = Some(value("--report-out").into()),
            "--check" => parsed.check = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: load_gen [--workers K] [--secs S] [--scaling 1,2,4] \
                     [--scaling-secs S] [--telemetry-out path] [--report-out path] [--check]"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn slo_json(slo: &SloReport) -> serde_json::Value {
    serde_json::json!({
        "requests": slo.requests,
        "latency_p50_ms": slo.latency_p50_ns / 1e6,
        "latency_p99_ms": slo.latency_p99_ns / 1e6,
        "deadline_hit_rate": slo.deadline_hit_rate,
        "degraded_rate": slo.degraded_rate,
        "error_budget_burn": slo.error_budget_burn,
        "target": slo.target,
    })
}

fn main() {
    let args = parse_args();
    if args.telemetry_out.is_some() {
        enhancenet_telemetry::set_enabled(true);
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let quota = TenantQuota::per_second(400.0).with_burst(64.0);
    let slo_target = 0.95;

    // Phase 1: per-worker scaling.
    println!("fleet scaling ({cores} core(s)), {:.1}s per point:", args.scaling_secs);
    let scaling = scaling_sweep(&args.scaling, args.scaling_secs);
    let base = scaling.first().map(|&(_, t)| t).unwrap_or(1.0);
    for &(workers, per_sec) in &scaling {
        println!("  workers={workers:<2} {per_sec:>12.0} forecasts/s  {:>6.2}x", per_sec / base);
    }
    if cores == 1 {
        println!(
            "  single-core ceiling: every fleet size shares one core, so aggregate \
             throughput stays near the 1-worker rate; per-worker scaling needs cores"
        );
    }

    // Phase 2: burst scenario with mid-run hot swap.
    let fleet = ServeConfig::builder()
        .workers(args.workers)
        .queue_capacity(256)
        .slo_window(Duration::from_secs(30))
        .slo_target(slo_target)
        .tenant_quota(quota)
        .spawn_fleet(Box::new(host(1)), scaler())
        .expect("fleet config is valid and the GRU host is plannable");
    let swapped = host(2);
    let publisher = fleet.publisher();

    let started = Instant::now();
    let until = started + Duration::from_secs_f64(args.secs);
    let (steady, bursty, epoch) = std::thread::scope(|scope| {
        let steady = scope.spawn(|| steady_client(&fleet, quota.rate * 0.5, until));
        let bursty = scope.spawn(|| bursty_client(&fleet, quota.burst as usize * 2, until));
        std::thread::sleep(Duration::from_secs_f64(args.secs * 0.5));
        let epoch = publisher.publish(swapped.store()).expect("same architecture, same layout");
        println!("published snapshot epoch {epoch} at t+{:.2}s", started.elapsed().as_secs_f64());
        (
            steady.join().expect("steady client ran"),
            bursty.join().expect("bursty client ran"),
            epoch,
        )
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Phase 3: a post-swap forecast must match offline predict on the new
    // weights bit for bit.
    let parity = fleet.tenant("parity");
    warm(&parity);
    let served = parity.forecast().expect("window is warm");
    let sc = scaler();
    let raw = Tensor::from_vec((0..H as i64).flat_map(row).collect(), &[H, N, C]);
    let offline = sc.inverse_feature(
        &swapped.predict(&sc.transform(&raw).expect("scaler fits the window")).expect("predicts"),
        0,
    );
    let parity_ok = !served.is_degraded() && served.values.data() == offline.data();

    let reports = fleet.tenant_reports();
    let fleet_slo = fleet.slo_report();
    let shutdown = fleet.shutdown(ShutdownMode::Drain);

    let total = steady.requests + bursty.requests;
    println!(
        "\nburst scenario: {} workers, {:.1}s, {} forecasts ({:.0}/s aggregate)",
        args.workers,
        elapsed,
        total,
        total as f64 / elapsed,
    );
    println!(
        "{:>8} {:>6} {:>9} {:>10} {:>9} {:>9} {:>8}",
        "tenant", "shard", "requests", "throttled", "degraded", "hit_rate", "p99_ms"
    );
    for r in &reports {
        println!(
            "{:>8} {:>6} {:>9} {:>10} {:>9} {:>9.3} {:>8.2}",
            r.tenant,
            r.shard,
            r.requests,
            r.throttled,
            r.degraded,
            r.slo.deadline_hit_rate,
            r.slo.latency_p99_ns / 1e6,
        );
    }
    println!(
        "swap: epoch {epoch}, post-swap parity {}; shutdown drained {} shed {}",
        if parity_ok { "ok" } else { "MISMATCH" },
        shutdown.drained,
        shutdown.shed,
    );

    let report = serde_json::json!({
        "schema": "enhancenet-fleet-load-v1",
        "cores": cores,
        "scenario": {
            "workers": args.workers,
            "secs": args.secs,
            "quota": { "rate": quota.rate, "burst": quota.burst },
            "slo_target": slo_target,
        },
        "throughput": { "forecasts": total, "per_sec": total as f64 / elapsed },
        "scaling": scaling
            .iter()
            .map(|&(workers, per_sec)| serde_json::json!({
                "workers": workers,
                "per_sec": per_sec,
                "speedup": per_sec / base,
            }))
            .collect::<Vec<_>>(),
        "swap": { "epoch": epoch, "parity_bitwise": parity_ok },
        "clients": {
            "steady": { "requests": steady.requests, "healthy": steady.healthy,
                        "degraded": steady.degraded, "errors": steady.errors },
            "bursty": { "requests": bursty.requests, "healthy": bursty.healthy,
                        "degraded": bursty.degraded, "errors": bursty.errors },
        },
        "tenants": reports
            .iter()
            .map(|r| serde_json::json!({
                "tenant": r.tenant.clone(),
                "shard": r.shard,
                "requests": r.requests,
                "throttled": r.throttled,
                "degraded": r.degraded,
                "slo": slo_json(&r.slo),
            }))
            .collect::<Vec<_>>(),
        "fleet_slo": slo_json(&fleet_slo),
        "shutdown": { "drained": shutdown.drained, "shed": shutdown.shed },
    });
    enhancenet_telemetry::record_event("fleet_load", &report);
    if let Some(path) = &args.report_out {
        std::fs::write(path, format!("{:#}\n", report)).expect("report path is writable");
        println!("report written to {}", path.display());
    }
    if let Some(path) = &args.telemetry_out {
        enhancenet_telemetry::write_jsonl(path).expect("telemetry JSONL is writable");
        println!("telemetry written to {}", path.display());
    }

    if args.check {
        let steady_report = reports.iter().find(|r| r.tenant == "steady").expect("steady ran");
        let bursty_report = reports.iter().find(|r| r.tenant == "bursty").expect("bursty ran");
        let mut failures = Vec::new();
        let mut expect = |ok: bool, what: String| {
            if !ok {
                failures.push(what);
            }
        };
        expect(epoch == 1, format!("hot swap must publish epoch 1, got {epoch}"));
        expect(parity_ok, "post-swap forecast must match offline predict bitwise".into());
        expect(
            steady.errors == 0 && bursty.errors == 0,
            format!(
                "overload must degrade, never error (steady {} / bursty {} errors)",
                steady.errors, bursty.errors
            ),
        );
        expect(bursty_report.throttled > 0, "2x-overload bursts must trip the token bucket".into());
        expect(
            steady_report.throttled == 0,
            format!("steady tenant under quota throttled {} times", steady_report.throttled),
        );
        expect(
            steady_report.slo.deadline_hit_rate >= slo_target,
            format!(
                "steady tenant hit-rate {:.3} fell below the {slo_target} target",
                steady_report.slo.deadline_hit_rate
            ),
        );
        if enhancenet_telemetry::enabled() {
            let adopted = enhancenet_telemetry::counter_value("serve.swap.adopted");
            expect(adopted > 0, "no worker adopted the published snapshot".into());
            expect(
                enhancenet_telemetry::counter_value("serve.tenant.throttled") > 0,
                "serve.tenant.throttled counter never moved".into(),
            );
        }
        if failures.is_empty() {
            println!("check: OK");
        } else {
            for f in &failures {
                eprintln!("check: FAIL — {f}");
            }
            std::process::exit(1);
        }
    }
}
