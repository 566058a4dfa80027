//! Training phase: `Trainer::train` with two data-parallel shards on the
//! workload's fixed recipe (series, initial weights and schedule all come
//! from [`TRAIN_SEED`]), once per round.

use crate::stats::median;
use crate::trace::{self, Spans};
use crate::workload::{derive, Workload, TRAIN_SEED};
use enhancenet::prelude::*;

/// Shards of the data-parallel trainer: one per core of the reference
/// host (the fleet's two workers sit idle while training runs).
pub const SHARDS: usize = 2;

/// Trains the recipe once, from scratch.
pub fn train(w: &Workload, spans: &mut Spans) -> TrainReport {
    let plan = w.train;
    let inputs = w.generate(TRAIN_SEED);
    let mut model = w.build(&inputs, derive(TRAIN_SEED, 2));
    let config = TrainConfig::builder()
        .epochs(plan.epochs)
        .batch_size(plan.batch)
        .max_batches_per_epoch(Some(plan.batches))
        .max_eval_batches(Some(plan.eval_batches))
        .data_parallel(SHARDS)
        .seed(derive(TRAIN_SEED, 5))
        .build()
        .expect("workload train plans are valid");
    spans.time("trainer.train", None, trace::group(), || {
        Trainer::new(config).train(&mut *model, &inputs.data)
    })
}

#[derive(Debug, Default)]
pub struct TrainOut {
    /// Median windows-in-applied-updates per epoch second over every epoch
    /// but the run's first (which warms caches and allocators).
    pub windows_per_s: f64,
    /// Raw-scale validation MAE after the recipe's final epoch.
    pub val_mae: f64,
    /// Seconds and windows of every measured epoch.
    pub epoch_s: Vec<f64>,
    pub windows_per_epoch: Vec<usize>,
    pub steps: u64,
    /// Steps whose update was skipped (non-finite loss).
    pub diverged: u64,
    pub losses_finite: bool,
    /// Every round reached bitwise the same validation MAE.
    pub reproducible: bool,
}

/// Pools the rounds of one pass.
pub fn summarize(w: &Workload, rounds: &[TrainReport]) -> TrainOut {
    let plan = w.train;
    let measured: Vec<&EpochTelemetry> =
        rounds.iter().flat_map(|r| &r.epoch_telemetry).skip(1).collect();
    let rates: Vec<f64> = measured.iter().map(|e| e.windows as f64 / f64::from(e.secs)).collect();
    let applied: usize = rounds.iter().flat_map(|r| &r.epoch_telemetry).map(|e| e.windows).sum();
    let steps = (rounds.len() * plan.epochs * plan.batches) as u64;
    let final_mae = |r: &TrainReport| r.val_mae.last().copied().unwrap_or(f32::NAN);
    let val_mae = rounds.first().map_or(f32::NAN, final_mae);
    TrainOut {
        windows_per_s: median(&rates).unwrap_or(f64::NAN),
        val_mae: f64::from(val_mae),
        epoch_s: measured.iter().map(|e| f64::from(e.secs)).collect(),
        windows_per_epoch: measured.iter().map(|e| e.windows).collect(),
        steps,
        diverged: steps - (applied / plan.batch) as u64,
        losses_finite: rounds
            .iter()
            .all(|r| r.train_loss.iter().chain(&r.val_mae).all(|v| v.is_finite())),
        reproducible: rounds.iter().all(|r| final_mae(r).to_bits() == val_mae.to_bits()),
    }
}
