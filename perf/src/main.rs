//! `perf`: the end-to-end benchmark of the EnhanceNet reproduction.
//!
//! ```sh
//! # one run of one workload (what BENCHMARK.json's command runs)
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- \
//!     --workload la-dynamic --seed 1 --seconds 25 --trace 0
//! # every workload, R fresh processes each, with medians and spreads
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- \
//!     --runs 10 --seed 101 --out target/perf_runs.json
//! # classify two such files against BENCHMARK.json's bounds
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- \
//!     --compare base.json new.json
//! ```
//!
//! A run prints `workload metric value unit` per metric, then, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. It
//! exits 1 when a correctness check failed. README.md defines every
//! workload and metric.

mod layers;
mod pass;
mod runs;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use pass::{Pass, PhaseLengths};
use serde_json::{json, Value};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Spans;
use workload::{derive, Workload, WORKLOADS};

const USAGE: &str = "usage:
  perf --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]
  perf --runs R [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  perf --compare BASE.json NEW.json";

/// (name, unit) of every end-to-end metric, in report order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("idle_p50_ms", "ms"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("capacity_per_s", "1/s"),
    ("train_windows_per_s", "1/s"),
    ("val_mae", "raw"),
    ("peak_rss_mb", "MB"),
];

/// (name, unit) of every per-layer metric of the traced run, in report
/// order. README.md maps each to the end-to-end metric it should move.
const PER_LAYER: [(&str, &str); 30] = [
    ("serve.queue_wait_ms", "ms"),
    ("serve.forward_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.ingest_us", "us"),
    ("serve.publish_ms", "ms"),
    ("serve.spawn_s", "s"),
    ("serve.batch_size_mean", "requests"),
    ("plan.compile_ms", "ms"),
    ("plan.execute_ms", "ms"),
    ("plan.execute_b8_per_window_ms", "ms"),
    ("plan.tape_ms", "ms"),
    ("plan.cache.misses", "count"),
    ("dfgn.generate_ms", "ms"),
    ("damgn.static_b_ms", "ms"),
    ("damgn.dynamic_c_ms", "ms"),
    ("damgn.topk_pattern_ms", "ms"),
    ("damgn.topk.builds", "count"),
    ("autodiff.forward_ms", "ms"),
    ("autodiff.backward_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("trainer.epoch_s", "s"),
    ("trainer.unattributed_share", "share"),
    ("data.batch_ms", "ms"),
    ("data.scaler_us", "us"),
    ("data.generate_s", "s"),
    ("gen.lateness_p90_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.train_overhead_pct", "%"),
];

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<String>,
    pub runs: Option<usize>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25,
        trace: false,
        out: None,
        runs: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--runs" => args.runs = Some(number(value()?)?.max(1) as usize),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if workload::find(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; one of {}", names.join(", ")));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return runs::compare(base, new);
    }
    match (&args.workload, args.runs) {
        (Some(name), None) => {
            run_one(workload::find(name).expect("validated in parse_args"), &args)
        }
        _ => runs::run_many(&args),
    }
}

fn end_to_end(w: &Workload, pass: &Pass, failures: &mut Vec<String>) -> Vec<(&'static str, f64)> {
    let load = &pass.load.latency_ms;
    let p95 = percentile(load, 0.95);
    match p95 {
        None => failures.push(format!("load: {} samples cannot support p95", load.len())),
        Some(p) if p > w.latency_limit_ms => failures
            .push(format!("load: p95 {p:.3} ms exceeds the {} ms limit", w.latency_limit_ms)),
        Some(_) => {}
    }
    let values = [
        median(&pass.setup_s),
        median(&pass.idle.latency_ms),
        median(load),
        p95,
        // Closed-loop callers each keep one call in flight, so the rate
        // they sustain is callers / call time; the median call time keeps
        // a burst of outside interference from moving it.
        median(&pass.capacity.latency_ms).map(|call_ms| serve::CALLERS as f64 * 1e3 / call_ms),
        Some(pass.train.windows_per_s),
        Some(pass.train.val_mae),
        Some(peak_rss_mb()),
    ];
    END_TO_END.iter().zip(values).map(|(&(name, _), v)| (name, v.unwrap_or(f64::NAN))).collect()
}

/// Per-layer values from the traced pass's spans and counters, compared
/// against the untraced pass where the metric is a tracing overhead.
fn per_layer(
    w: &Workload,
    plain: &Pass,
    traced: &Pass,
    spans: &Spans,
) -> BTreeMap<&'static str, f64> {
    let p50 = |name: &str| median(&spans.durations(name)).unwrap_or(f64::NAN);
    let train = &traced.train;
    let epoch_s = median(&train.epoch_s).unwrap_or(f64::NAN);
    // Busy time the layer measurements account for in one epoch, against
    // the wall time both shards had.
    let windows = median(&train.windows_per_epoch.iter().map(|&w| w as f64).collect::<Vec<_>>())
        .unwrap_or(0.0);
    let batches = windows / w.train.batch as f64;
    let busy_ms = windows * (p50("autodiff.forward") + p50("autodiff.backward"))
        + batches * (p50("optim.step") + p50("data.batch"));
    let load_p50 = |pass: &Pass| median(&pass.load.latency_ms).unwrap_or(f64::NAN);
    let lateness: Vec<f64> = [&traced.warm, &traced.idle, &traced.load]
        .iter()
        .flat_map(|phase| phase.lateness_ms.iter().copied())
        .collect();
    let mut values = traced.counters.clone();
    values.extend([
        ("serve.queue_wait_ms", p50("serve.queue_wait")),
        ("serve.forward_ms", p50("serve.forward")),
        ("serve.overhead_ms", median(&spans.self_times("serve.forecast")).unwrap_or(f64::NAN)),
        ("serve.submit_us", p50("serve.submit") * 1e3),
        ("serve.wait_ms", p50("serve.wait")),
        ("serve.ingest_us", p50("serve.ingest") * 1e3),
        ("serve.publish_ms", p50("serve.publish")),
        ("serve.spawn_s", p50("serve.spawn") / 1e3),
        ("plan.compile_ms", p50("plan.compile")),
        ("plan.execute_ms", p50("plan.execute")),
        ("plan.execute_b8_per_window_ms", p50("plan.execute_b8") / 8.0),
        ("plan.tape_ms", p50("plan.tape")),
        ("dfgn.generate_ms", p50("dfgn.generate")),
        ("damgn.static_b_ms", p50("damgn.static_b")),
        ("damgn.dynamic_c_ms", p50("damgn.dynamic_c")),
        ("damgn.topk_pattern_ms", p50("damgn.topk_pattern")),
        ("autodiff.forward_ms", p50("autodiff.forward")),
        ("autodiff.backward_ms", p50("autodiff.backward")),
        ("optim.step_ms", p50("optim.step")),
        ("trainer.epoch_s", epoch_s),
        ("trainer.unattributed_share", 1.0 - busy_ms / 1e3 / (epoch_s * train::SHARDS as f64)),
        ("data.batch_ms", p50("data.batch")),
        ("data.scaler_us", p50("data.scaler") * 1e3),
        ("data.generate_s", p50("data.generate") / 1e3),
        ("gen.lateness_p90_ms", percentile(&lateness, 0.9).unwrap_or(f64::NAN)),
        ("trace.overhead_pct", (load_p50(traced) / load_p50(plain) - 1.0) * 100.0),
        (
            "trace.train_overhead_pct",
            (plain.train.windows_per_s / train.windows_per_s - 1.0) * 100.0,
        ),
        ("trace.spans", spans.len() as f64),
    ]);
    values
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let started = Instant::now();
    let plain = pass::run(w, args.seed, args.seconds, !args.trace, false);
    let mut failures = plain.failures.clone();
    let e2e = end_to_end(w, &plain, &mut failures);
    let (mut attempted, mut failed) = (plain.attempted, plain.failed);
    let mut layer_values = BTreeMap::new();
    let mut table = Vec::new();
    if args.trace {
        let mut traced = pass::run(w, args.seed, args.seconds, false, true);
        failures.extend(traced.failures.iter().cloned());
        attempted += traced.attempted;
        failed += traced.failed;
        let mut spans = std::mem::take(&mut traced.spans);
        let inputs = w.generate(args.seed);
        layers::measure(w, &inputs, derive(args.seed, 2), &mut spans);
        layer_values = per_layer(w, &plain, &traced, &spans);
        table = spans.table();
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layer_values.get(name).copied().unwrap_or(f64::NAN)))
            .collect()
    } else {
        e2e.iter().zip(END_TO_END).map(|(&(name, v), (_, unit))| (name, unit, v)).collect()
    };
    let correct = failures.is_empty() && metrics.iter().all(|(_, _, v)| v.is_finite());
    for (name, unit, value) in &metrics {
        println!("{} {name} {value} {unit}", w.name);
    }
    for f in &failures {
        eprintln!("{}: check failed: {f}", w.name);
    }
    let mut metric_json = serde_json::Map::new();
    for (name, unit, value) in &metrics {
        metric_json.insert(name.to_string(), json!({"value": *value, "unit": *unit}));
    }
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metric_json),
    });
    if let Some(path) = &args.out {
        let named = |(name, value): (&&str, &f64)| json!({"name": *name, "value": *value});
        let detail = json!({
            "schema": "enhancenet-perf-run-v1",
            "workload": w.name,
            "result": result.clone(),
            "end_to_end": e2e.iter().map(|(n, v)| named((n, v))).collect::<Vec<_>>(),
            "per_layer": layer_values.iter().map(named).collect::<Vec<_>>(),
            "layers": table.iter().map(trace::LayerRow::json).collect::<Vec<_>>(),
            "failures": failures.clone(),
            "provenance": provenance(w, args, &plain, started.elapsed().as_secs_f64()),
        });
        if let Err(e) = write_json(path, &detail) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn provenance(w: &Workload, args: &Args, pass: &Pass, wall_s: f64) -> Value {
    let lengths = PhaseLengths::new(w, args.seconds);
    let phase = |ph: &serve::PhaseOut, planned_s: f64, arrivals: Value| {
        json!({
            "planned_s": planned_s,
            "measured_s": ph.secs,
            "arrivals": arrivals,
            "completed_per_s": ph.healthy as f64 / ph.secs,
            "attempted": ph.attempted,
            "succeeded": ph.healthy,
            "failed": ph.failed,
        })
    };
    let open = |a: workload::Arrivals| json!({"burst": a.burst, "period_ms": a.period.as_secs_f64() * 1e3, "per_s": a.per_second()});
    let plan = w.train;
    json!({
        "nproc": nproc(),
        "simd": enhancenet_tensor::kernel::selected_kernel().name(),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "fleet": {"workers": serve::WORKERS, "max_batch": 8, "queue_capacity": 256},
        "rounds": pass::ROUNDS,
        "phases": {
            "warm": phase(&pass.warm, lengths.warm, open(w.load)),
            "idle": phase(&pass.idle, lengths.idle, open(w.idle)),
            "load": phase(&pass.load, lengths.load, open(w.load)),
            "capacity": phase(&pass.capacity, lengths.capacity, json!({"closed_loop_callers": serve::CALLERS})),
        },
        "train": {
            "shards": train::SHARDS,
            "batch": plan.batch,
            "epochs_per_round": plan.epochs,
            "batches_per_epoch": plan.batches,
            "eval_batches": plan.eval_batches,
            "attempted": pass.train.steps,
            "failed": pass.train.diverged,
        },
        "attempted": pass.attempted,
        "failed": pass.failed,
    })
}

pub fn write_json(path: &str, value: &Value) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(value).expect("JSON values serialize");
    std::fs::write(path, text + "\n")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (never above it); `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

    fn listed(manifest: &Value, key: &str, field: &str) -> Vec<String> {
        let entries = manifest[key].as_array().expect("BENCHMARK.json lists arrays");
        entries.iter().map(|e| e[field].as_str().expect("string field").to_string()).collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_binary_reports() {
        let manifest = serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses");
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        let units =
            |list: &[(&str, &str)]| list.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
        assert_eq!(listed(&manifest, "end_to_end", "name"), names(&END_TO_END));
        assert_eq!(listed(&manifest, "end_to_end", "unit"), units(&END_TO_END));
        assert_eq!(listed(&manifest, "per_layer", "name"), names(&PER_LAYER));
        assert_eq!(listed(&manifest, "per_layer", "unit"), units(&PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed(&manifest, "workloads", "name"), workloads);
    }
}
