//! `--runs`: every workload in fresh child processes, summarised; and
//! `--compare`: two such summaries classified with BENCHMARK.json's bounds.

use crate::stats::{self, median, Better, Verdict};
use crate::workload::{self, Workload, WORKLOADS};
use crate::Args;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

pub fn run_many(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let runs = args.runs.unwrap_or(1);
    let chosen: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workload::find(name).expect("validated in parse_args")],
        None => WORKLOADS.iter().collect(),
    };
    let mut all_ok = true;
    let mut by_workload = serde_json::Map::new();
    for w in chosen {
        let mut results = Vec::new();
        for r in 0..runs {
            let seed = args.seed + r as u64;
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output();
            let parsed = output.ok().and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout);
                let last = stdout.lines().last()?.to_string();
                Some((o.status.success(), serde_json::from_str(&last).ok()?))
            });
            match parsed {
                Some((ok, result)) => {
                    all_ok &= ok;
                    eprintln!("{} seed {seed}: {}", w.name, if ok { "ok" } else { "FAILED" });
                    results.push(result);
                }
                None => {
                    all_ok = false;
                    eprintln!("{} seed {seed}: no result", w.name);
                }
            }
        }
        summarize(w.name, &results);
        by_workload.insert(w.name.to_string(), Value::Array(results));
    }
    if let Some(path) = &args.out {
        let doc = json!({
            "schema": "enhancenet-perf-runs-v1",
            "nproc": crate::nproc(),
            "simd": enhancenet_tensor::kernel::selected_kernel().name(),
            "commit": crate::commit(),
            "first_seed": args.seed,
            "runs": runs,
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads": Value::Object(by_workload),
        });
        if let Err(e) = crate::write_json(path, &doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Metric name → values across a workload's runs, in run order.
fn series(results: &[Value]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in results {
        let Some(metrics) = r.get("metrics").and_then(Value::as_object) else { continue };
        for (name, m) in metrics.iter() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry(name.clone()).or_default().push(v);
            }
        }
    }
    out
}

fn summarize(workload: &str, results: &[Value]) {
    println!("{workload}: {} run(s)", results.len());
    println!("  {:<32} {:>14} {:>14} {:>14} {:>8}", "metric", "median", "q1", "q3", "spread");
    for (name, values) in series(results) {
        let med = median(&values).unwrap_or(f64::NAN);
        let (q1, q3) = stats::quartiles(&values).unwrap_or((med, med));
        let spread = stats::spread(&values).map_or("-".into(), |s| format!("{s:.3}"));
        println!("  {name:<32} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8}");
    }
}

pub fn compare(base: &str, new: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new, bench) = match (load(base), load(new), load("BENCHMARK.json")) {
        (Ok(b), Ok(n), Ok(m)) => (b, n, m),
        (b, n, m) => {
            for e in [b.err(), n.err(), m.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    let bounds: Vec<(String, Better, f64)> = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let better = Better::parse(m.get("better")?.as_str()?)?;
            Some((name, better, m.get("bound")?.as_f64()?))
        })
        .collect();
    let workloads = |doc: &Value| doc.get("workloads").and_then(Value::as_object).cloned();
    let (Some(base_w), Some(new_w)) = (workloads(&base), workloads(&new)) else {
        eprintln!("both files must come from `perf --runs R --out FILE`");
        return ExitCode::from(2);
    };
    let mut regressed = false;
    for (name, base_runs) in base_w.iter() {
        let Some(new_runs) = new_w.get(name) else { continue };
        let b = series(base_runs.as_array().map_or(&[], Vec::as_slice));
        let n = series(new_runs.as_array().map_or(&[], Vec::as_slice));
        let row: Vec<String> = bounds
            .iter()
            .filter_map(|(metric, better, bound)| {
                let verdict = stats::classify(b.get(metric)?, n.get(metric)?, *better, *bound);
                regressed |= verdict == Verdict::Regressed;
                Some(format!("{metric}={}", verdict.as_str()))
            })
            .collect();
        println!("{name:<14} {}", row.join(" "));
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
