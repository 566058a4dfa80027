//! One pass over a workload: set-up, then rounds of training and serving
//! phases, then the correctness checks.

use crate::serve::{self, PhaseOut, Swaps};
use crate::trace::{self, Spans};
use crate::train::{self, TrainOut};
use crate::workload::{derive, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Serving phases get these shares of `--seconds`; training runs its own
/// fixed recipe on top. After the warm-up, a pass makes [`ROUNDS`] rounds
/// of training, idle, load and capacity segments, each phase getting an
/// equal slice, and pools each phase's samples: outside interference that
/// lasts seconds then slows a little of every phase instead of all of one.
const WARM_SHARE: f64 = 0.05;
const IDLE_SHARE: f64 = 0.15;
const LOAD_SHARE: f64 = 0.5;
const CAPACITY_SHARE: f64 = 0.2;
pub const ROUNDS: usize = 3;
/// Phases are lengthened until they hold this many requests, so the
/// median and p95 always have ten samples beyond them.
const MIN_IDLE_REQUESTS: f64 = 30.0;
const MIN_LOAD_REQUESTS: f64 = 220.0;
/// A pass that repeats its set-up does so at least [`SETUPS`] times and
/// until [`SETUP_BUDGET_S`] have passed (at most [`MAX_SETUPS`]).
const SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 25;
/// An open-loop phase is invalid when more than 5 % of its bursts, and
/// more than ten, started over 1 ms late: the schedule, not the system,
/// would be setting the latency. (With 200 or more bursts this is "p95
/// lateness over 1 ms"; shorter phases keep the ten-sample floor.)
const MAX_LATENESS_MS: f64 = 1.0;
const MAX_LATE_SHARE: f64 = 0.05;
const MAX_LATE_FLOOR: usize = 10;
const MAX_FAILED_SHARE: f64 = 0.01;

/// Total length (s) of each phase in one pass.
pub struct PhaseLengths {
    pub warm: f64,
    pub idle: f64,
    pub load: f64,
    pub capacity: f64,
}

impl PhaseLengths {
    pub fn new(w: &Workload, seconds: u64) -> Self {
        let s = seconds as f64;
        Self {
            warm: (WARM_SHARE * s).max(1.0),
            idle: (IDLE_SHARE * s).max(MIN_IDLE_REQUESTS / w.idle.per_second()),
            load: (LOAD_SHARE * s).max(MIN_LOAD_REQUESTS / w.load.per_second()),
            capacity: CAPACITY_SHARE * s,
        }
    }
}

pub struct Pass {
    /// Seconds of every set-up.
    pub setup_s: Vec<f64>,
    pub train: TrainOut,
    pub warm: PhaseOut,
    pub idle: PhaseOut,
    pub load: PhaseOut,
    pub capacity: PhaseOut,
    pub spans: Spans,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Library telemetry copied at the end of a traced pass.
    pub counters: BTreeMap<&'static str, f64>,
}

/// Runs one pass. `repeat_setup` sets up repeatedly (see [`SETUPS`]) and
/// keeps the last set-up for the phases; `traced` records spans and turns
/// the library's telemetry on.
pub fn run(w: &Workload, seed: u64, seconds: u64, repeat_setup: bool, traced: bool) -> Pass {
    if traced {
        enhancenet_telemetry::reset();
        enhancenet_telemetry::set_enabled(true);
    }
    let mut spans = Spans::new(traced);
    let model_seed = derive(seed, 2);
    let mut setup_s = Vec::new();
    let mut stack = None;
    let first = Instant::now();
    for n in 1..=MAX_SETUPS {
        // The previous set-up's fleet drains and joins before the next
        // one starts, so set-ups never overlap.
        drop(stack.take());
        let group = trace::group();
        let started = Instant::now();
        let inputs = spans.time("data.generate", Some("setup"), group, || w.generate(seed));
        let model =
            spans.time("model.build", Some("setup"), group, || w.build(&inputs, model_seed));
        let served = serve::spawn(w, &inputs, model, seed, &mut spans, group);
        let ready = Instant::now();
        spans.record("setup", None, group, started, ready);
        setup_s.push(ready.duration_since(started).as_secs_f64());
        stack = Some((inputs, served));
        if !repeat_setup || (n >= SETUPS && first.elapsed().as_secs_f64() >= SETUP_BUDGET_S) {
            break;
        }
    }
    let (inputs, mut served) = stack.expect("at least one set-up");

    // Offline references: the spawn weights, plus the second set the
    // workload hot-swaps to.
    let mut sets = vec![w.build(&inputs, model_seed)];
    if w.hot_swap {
        sets.push(w.build(&inputs, derive(seed, 4)));
    }
    let mut swaps = Swaps { sets: &sets, live: vec![0] };

    let lengths = PhaseLengths::new(w, seconds);
    let segment = |total: f64| total / ROUNDS as f64;
    let mut warm = serve::warm_batches(&served);
    let warm_seed = derive(seed, 6);
    warm.absorb(serve::open_loop(
        &served,
        w.load,
        lengths.warm,
        warm_seed,
        None,
        &mut swaps,
        false,
    ));
    let (mut idle, mut load, mut capacity) =
        (PhaseOut::default(), PhaseOut::default(), PhaseOut::default());
    let mut reports = Vec::new();
    for round in 0..ROUNDS as u64 {
        let r = derive(seed, 16 + round);
        reports.push(train::train(w, &mut spans));
        let secs = segment(lengths.idle);
        idle.absorb(serve::open_loop(
            &served,
            w.idle,
            secs,
            derive(r, 1),
            None,
            &mut swaps,
            traced,
        ));
        let secs = segment(lengths.load);
        let swap_at = w.hot_swap.then(|| Duration::from_secs_f64(secs / 2.0));
        load.absorb(serve::open_loop(
            &served,
            w.load,
            secs,
            derive(r, 2),
            swap_at,
            &mut swaps,
            traced,
        ));
        let epoch = served.fleet.publisher().epoch();
        let secs = segment(lengths.capacity);
        capacity.absorb(serve::closed_loop(&mut served, &inputs, secs, epoch, traced));
    }
    let train = train::summarize(w, &reports);
    let mut republished = PhaseOut::default();
    if traced {
        // Republish the live weights (every host stays correct across an
        // identical swap), then forecast once per caller so every worker
        // adopts the new snapshot.
        for _ in 0..3 {
            let set = *swaps.live.last().expect("epoch 0 is live");
            spans.time("serve.publish", None, trace::group(), || swaps.publish(&served.fleet, set));
        }
        let epoch = served.fleet.publisher().epoch();
        republished = serve::closed_loop(&mut served, &inputs, 0.0, epoch, true);
    }
    served.fleet.shutdown(enhancenet::ShutdownMode::Drain);
    let counters = if traced { telemetry_counters() } else { BTreeMap::new() };

    let mut failures = Vec::new();
    if !train.losses_finite {
        failures.push("training produced a non-finite loss or validation MAE".into());
    }
    if !train.reproducible {
        failures.push("training rounds of one recipe reached different validation MAEs".into());
    }
    let (mut attempted, mut failed) = (train.steps, train.diverged);
    let mut probes = Vec::new();
    let phases = [
        ("warm", &mut warm),
        ("idle", &mut idle),
        ("load", &mut load),
        ("capacity", &mut capacity),
        ("republished", &mut republished),
    ];
    for (name, phase) in phases {
        attempted += phase.attempted;
        failed += phase.failed;
        probes.append(&mut phase.probes);
        spans.absorb(std::mem::take(&mut phase.spans));
        let late = phase.lateness_ms.iter().filter(|&&l| l > MAX_LATENESS_MS).count();
        let bursts = phase.lateness_ms.len();
        if late > MAX_LATE_FLOOR && late as f64 > MAX_LATE_SHARE * bursts as f64 {
            failures.push(format!(
                "{name}: {late} of {bursts} bursts started over {MAX_LATENESS_MS} ms late"
            ));
        }
    }
    failures.extend(serve::verify(&probes, &inputs, &sets, &swaps.live));
    if failed as f64 > MAX_FAILED_SHARE * attempted as f64 {
        failures.push(format!("{failed} of {attempted} operations failed"));
    }
    Pass {
        setup_s,
        train,
        warm,
        idle,
        load,
        capacity,
        spans,
        failures,
        attempted,
        failed,
        counters,
    }
}

/// Copies the library counters the per-layer table reports, then turns
/// telemetry off again.
fn telemetry_counters() -> BTreeMap<&'static str, f64> {
    let count = |name: &str| enhancenet_telemetry::counter_value(name) as f64;
    let mut counters = BTreeMap::new();
    let batch_sizes = enhancenet_telemetry::histogram_summary("serve.batch.size");
    let mean_batch = batch_sizes.map_or(0.0, |h| h.sum / h.count.max(1) as f64);
    counters.insert("serve.batch_size_mean", mean_batch);
    for name in
        ["plan.cache.misses", "damgn.topk.builds", "serve.swap.published", "serve.swap.adopted"]
    {
        counters.insert(name, count(name));
    }
    let dispatches = ["avx2", "neon", "scalar"]
        .iter()
        .map(|k| count(&format!("tensor.kernel.dispatch.{k}")))
        .sum();
    counters.insert("tensor.kernel.dispatches", dispatches);
    enhancenet_telemetry::set_enabled(false);
    counters
}
