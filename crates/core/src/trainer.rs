//! The shared training and evaluation harness.
//!
//! Implements the paper's training setup (§VI-A "Model Configurations"):
//! Adam, the RNN/TCN learning-rate schedules, gradient clipping, scheduled
//! sampling for encoder–decoder models, masked-MAE loss, best-on-validation
//! checkpointing, and the runtime accounting of Table V (seconds per
//! training epoch, milliseconds per 12-step prediction).

pub(crate) mod parallel;

use crate::error::EnhanceNetError;
use crate::forecaster::{Forecaster, ForwardCtx};
use crate::probes::{self, MemoryDriftProbe, ProbeConfig};
use enhancenet_autodiff::Graph;
use enhancenet_data::{BatchIterator, WindowDataset};
use enhancenet_nn::optim::{clip_grad_norm, Adam, LrSchedule, Optimizer};
use enhancenet_nn::sched::ScheduledSampler;
use enhancenet_stats::metrics::{metrics_at_horizon, HorizonMetrics};
use enhancenet_tensor::{Tensor, TensorRng};
use std::ops::Range;
use std::time::Instant;

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum epochs (paper: 100).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule (paper: step decay for RNNs, constant for
    /// TCNs).
    pub schedule: LrSchedule,
    /// Global gradient-norm clip (traffic models commonly use 5.0).
    pub clip_norm: f32,
    /// Scheduled-sampling τ (inverse-sigmoid decay).
    pub sampler_tau: f32,
    /// Cap on train batches per epoch (scaled-down experiments); `None`
    /// consumes the whole split.
    pub max_batches_per_epoch: Option<usize>,
    /// Cap on evaluation batches; `None` evaluates the whole split.
    pub max_eval_batches: Option<usize>,
    /// Early-stopping patience in epochs (`None` disables).
    pub patience: Option<usize>,
    /// Seed for shuffling, dropout and sampling.
    pub seed: u64,
    /// Sharded data-parallel training: `Some(k)` fans each mini-batch out
    /// over `k` scoped worker threads (`parallel::ShardEngine`); `None`
    /// keeps the single-graph serial path. Results are bit-identical for
    /// every `Some(k)` — the shard count is a pure throughput knob — though
    /// the sharded and serial paths are distinct numeric trajectories
    /// (per-window tapes vs one batched tape).
    pub data_parallel: Option<usize>,
    /// Print one line per epoch.
    pub verbose: bool,
    /// Which model-health probes fire (error attribution at evaluation,
    /// per-epoch DAMGN/DFGN diagnostics). Probes additionally require the
    /// global telemetry switch, so the default all-on config costs nothing
    /// in ordinary runs.
    pub probes: ProbeConfig,
}

impl TrainConfig {
    /// Starts a validated configuration build. Defaults follow the paper's
    /// setup (§VI-A): 100 epochs, batch 64, constant 0.01 learning rate,
    /// clip 5.0, sampling τ = 40, no batch caps, no early stopping.
    pub fn builder() -> TrainConfigBuilder {
        TrainConfigBuilder::default()
    }

    /// A small default suitable for scaled-down experiments and tests:
    /// capped at 20 train / 10 eval batches per epoch.
    ///
    /// Delegates to [`TrainConfig::builder`]; panics if `epochs` or
    /// `batch_size` is zero (pass user-supplied values through the builder
    /// instead to get a typed error).
    pub fn quick(epochs: usize, batch_size: usize) -> Self {
        Self::builder()
            .epochs(epochs)
            .batch_size(batch_size)
            .max_batches_per_epoch(Some(20))
            .max_eval_batches(Some(10))
            .build()
            .expect("quick config must be valid")
    }
}

/// Builder for [`TrainConfig`] — the validated construction path.
/// [`TrainConfigBuilder::build`] rejects configurations that would
/// previously have failed deep inside the training loop (zero epochs or
/// batch size, non-finite clip norm) with a typed
/// [`EnhanceNetError::InvalidConfig`].
#[derive(Debug, Clone)]
pub struct TrainConfigBuilder {
    config: TrainConfig,
}

impl Default for TrainConfigBuilder {
    fn default() -> Self {
        Self {
            config: TrainConfig {
                epochs: 100,
                batch_size: 64,
                schedule: LrSchedule::Constant(0.01),
                clip_norm: 5.0,
                sampler_tau: 40.0,
                max_batches_per_epoch: None,
                max_eval_batches: None,
                patience: None,
                seed: 1,
                data_parallel: None,
                verbose: false,
                probes: ProbeConfig::default(),
            },
        }
    }
}

impl TrainConfigBuilder {
    /// Maximum epochs (must end up > 0).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Mini-batch size (must end up > 0).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Learning-rate schedule.
    pub fn schedule(mut self, schedule: LrSchedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Global gradient-norm clip (must end up finite and > 0).
    pub fn clip_norm(mut self, clip_norm: f32) -> Self {
        self.config.clip_norm = clip_norm;
        self
    }

    /// Scheduled-sampling τ.
    pub fn sampler_tau(mut self, sampler_tau: f32) -> Self {
        self.config.sampler_tau = sampler_tau;
        self
    }

    /// Cap on train batches per epoch (`None` consumes the whole split).
    pub fn max_batches_per_epoch(mut self, cap: Option<usize>) -> Self {
        self.config.max_batches_per_epoch = cap;
        self
    }

    /// Cap on evaluation batches (`None` evaluates the whole split).
    pub fn max_eval_batches(mut self, cap: Option<usize>) -> Self {
        self.config.max_eval_batches = cap;
        self
    }

    /// Early-stopping patience in epochs (`None` disables).
    pub fn patience(mut self, patience: Option<usize>) -> Self {
        self.config.patience = patience;
        self
    }

    /// Seed for shuffling, dropout and sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables sharded data-parallel training over `shards` worker threads
    /// (must end up ≥ 1; values beyond 256 are rejected as configuration
    /// mistakes). `data_parallel(1)` runs the shard engine serially and is
    /// bit-identical to every higher shard count.
    pub fn data_parallel(mut self, shards: usize) -> Self {
        self.config.data_parallel = Some(shards);
        self
    }

    /// Print one line per epoch.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.config.verbose = verbose;
        self
    }

    /// Which model-health probes fire.
    pub fn probes(mut self, probes: ProbeConfig) -> Self {
        self.config.probes = probes;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<TrainConfig, EnhanceNetError> {
        let cfg = self.config;
        if cfg.epochs == 0 {
            return Err(EnhanceNetError::InvalidConfig {
                field: "epochs",
                reason: "must be > 0".into(),
            });
        }
        if cfg.batch_size == 0 {
            return Err(EnhanceNetError::InvalidConfig {
                field: "batch_size",
                reason: "must be > 0".into(),
            });
        }
        if !cfg.clip_norm.is_finite() || cfg.clip_norm <= 0.0 {
            return Err(EnhanceNetError::InvalidConfig {
                field: "clip_norm",
                reason: format!("must be finite and > 0, got {}", cfg.clip_norm),
            });
        }
        if !cfg.sampler_tau.is_finite() || cfg.sampler_tau <= 0.0 {
            return Err(EnhanceNetError::InvalidConfig {
                field: "sampler_tau",
                reason: format!("must be finite and > 0, got {}", cfg.sampler_tau),
            });
        }
        if let Some(shards) = cfg.data_parallel {
            if shards == 0 || shards > 256 {
                return Err(EnhanceNetError::InvalidConfig {
                    field: "data_parallel",
                    reason: format!("shard count must be in 1..=256, got {shards}"),
                });
            }
        }
        Ok(cfg)
    }
}

/// Structured per-epoch telemetry: one record per training epoch, also
/// emitted as an `"epoch"` event on the global telemetry sink.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EpochTelemetry {
    /// 0-indexed epoch number.
    pub epoch: usize,
    /// Wall-clock seconds this epoch's training loop took.
    pub secs: f32,
    /// Windows (samples) processed by the training loop this epoch.
    pub windows: usize,
    /// Training throughput: `windows / secs`.
    pub windows_per_sec: f32,
    /// Mean pre-clip global gradient norm over this epoch's updates
    /// (0 when every batch diverged and no update ran).
    pub grad_norm: f32,
    /// Mean training loss (masked MAE, scaled space).
    pub train_loss: f32,
    /// Validation MAE in the raw scale.
    pub val_mae: f32,
    /// Learning rate in effect.
    pub lr: f32,
    /// True when the epoch consumed the whole training split (not cut
    /// short by `max_batches_per_epoch`). Only full epochs feed
    /// [`TrainReport::secs_per_epoch`].
    pub full_epoch: bool,
    /// True when this epoch set a new best validation MAE.
    pub best: bool,
}

/// Per-epoch and summary results of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Validation MAE (raw scale) per epoch.
    pub val_mae: Vec<f32>,
    /// Epoch whose weights were kept (best validation MAE).
    pub best_epoch: usize,
    /// Mean wall-clock seconds per training epoch — Table V's "T (s)".
    ///
    /// Averaged over **completed full epochs** only (epochs that consumed
    /// the whole training split); epochs truncated by
    /// `max_batches_per_epoch` would under-report the paper's metric. When
    /// every epoch was truncated (scaled-down runs) the mean over all
    /// epochs is reported instead.
    pub secs_per_epoch: f32,
    /// Total trainable parameters — Tables I/II's "# Para".
    pub num_parameters: usize,
    /// One structured record per epoch (timings, throughput, grad norms,
    /// losses) — the data behind the `--telemetry-out` JSONL.
    pub epoch_telemetry: Vec<EpochTelemetry>,
}

/// Evaluation results on one split.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Metrics at each requested (1-indexed) horizon.
    pub horizons: Vec<(usize, HorizonMetrics)>,
    /// Metrics averaged over every horizon step.
    pub overall: HorizonMetrics,
    /// Mean milliseconds to forecast F steps for a single window — Table
    /// V's "P (ms)".
    pub pred_ms: f32,
    /// Per-window MAE samples (raw scale), kept for the t-tests of §VI-B3.
    pub window_mae: Vec<f32>,
}

/// Mean seconds per epoch over completed **full** epochs (Table V's
/// protocol); epochs truncated by `max_batches_per_epoch` don't represent
/// a full pass over the training split. Falls back to the mean over all
/// epochs when none ran to completion (scaled-down runs), and to 0 when
/// no epoch ran at all.
fn secs_per_full_epoch(epochs: &[EpochTelemetry]) -> f32 {
    let mean = |records: &[&EpochTelemetry]| {
        records.iter().map(|e| e.secs as f64).sum::<f64>() / records.len() as f64
    };
    let full: Vec<&EpochTelemetry> = epochs.iter().filter(|e| e.full_epoch).collect();
    if !full.is_empty() {
        mean(&full) as f32
    } else if !epochs.is_empty() {
        mean(&epochs.iter().collect::<Vec<_>>()) as f32
    } else {
        0.0
    }
}

/// Missing-data mask from raw targets: zero readings are missing (the
/// traffic-dataset convention) and non-finite readings are corrupt sensor
/// values; both mask out of the loss. The finiteness check matters: NaN
/// satisfies `v != 0.0`, so without it a single bad reading put weight 1 on
/// a NaN target and poisoned the whole batch's masked MAE.
pub(crate) fn missing_mask(y_raw: &Tensor) -> Tensor {
    y_raw.map(|v| if v.is_finite() && v != 0.0 { 1.0 } else { 0.0 })
}

/// Scaled targets with non-finite entries zeroed. Masking alone does not
/// recover from a NaN target (`NaN · 0 = NaN` inside the masked loss, and a
/// NaN fed back by teacher forcing corrupts the forward pass), so the bad
/// entries are replaced by a harmless 0 — the mask already excludes them
/// from the loss and its gradients.
pub(crate) fn sanitized_targets(y_scaled: &Tensor) -> Tensor {
    y_scaled.map(|v| if v.is_finite() { v } else { 0.0 })
}

/// Drives training and evaluation of any [`Forecaster`].
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on the dataset's training split, checkpointing on
    /// validation MAE and restoring the best weights before returning.
    pub fn train(&self, model: &mut dyn Forecaster, data: &WindowDataset) -> TrainReport {
        let cfg = &self.config;
        let mut rng = TensorRng::seed(cfg.seed);
        let mut optimizer = Adam::new();
        let mut sampler = ScheduledSampler::new(cfg.sampler_tau);

        let mut train_loss = Vec::with_capacity(cfg.epochs);
        let mut val_mae = Vec::with_capacity(cfg.epochs);
        let mut epoch_telemetry: Vec<EpochTelemetry> = Vec::with_capacity(cfg.epochs);
        let mut best = (f32::INFINITY, 0usize, model.store().snapshot());

        // `verbose` progress lines route through the telemetry echo sink so
        // the process has a single stderr reporter; restore the previous
        // echo state on the way out.
        let prev_echo = enhancenet_telemetry::echo_enabled();
        if cfg.verbose {
            enhancenet_telemetry::set_echo(true);
        }

        // Model-health probes: snapshot the DFGN memory table (if any)
        // before the first update so drift is measured from init.
        let drift_probe = MemoryDriftProbe::start(&cfg.probes, model);

        // Sharded data-parallel engine (tentpole): per-window tapes fanned
        // out over scoped workers, reduced in fixed window order so the
        // shard count never changes the math (see `trainer::parallel`).
        let mut engine =
            cfg.data_parallel.map(|k| parallel::ShardEngine::new(k, model.store(), cfg.batch_size));
        // Counts every batch drawn (diverged ones included) across the
        // whole run; part of each window's RNG-stream derivation, so it
        // must advance identically for every shard count.
        let mut global_batch = 0u64;

        for epoch in 0..cfg.epochs {
            let _epoch_span = enhancenet_telemetry::span("trainer.epoch");
            let lr = cfg.schedule.lr_at(epoch);
            let started = Instant::now();
            let mut loss_sum = 0.0f64;
            let mut windows = 0usize;
            let mut grad_norm_sum = 0.0f64;
            let mut updates = 0usize;
            let mut truncated = false;
            let iter =
                BatchIterator::shuffled(data, data.split.train.clone(), cfg.batch_size, &mut rng);
            for (batch_idx, batch) in iter.enumerate() {
                if let Some(cap) = cfg.max_batches_per_epoch {
                    if batch_idx >= cap {
                        truncated = true;
                        break;
                    }
                }
                let tf_prob = sampler.teacher_forcing_prob();
                let step_start = enhancenet_telemetry::enabled().then(Instant::now);
                // Mask from the raw targets (zero or non-finite = missing
                // reading), targets sanitized so a NaN reading cannot poison
                // the tape or the teacher-forced decoder.
                let mask = missing_mask(&batch.y_raw);
                let target = sanitized_targets(&batch.y_scaled);
                // Applied update: `Some((loss, pre-clip grad norm))`;
                // `None` marks a diverged (non-finite loss) batch whose
                // update was skipped.
                let applied = match engine.as_mut() {
                    Some(eng) => {
                        let loss_val = eng.train_batch(
                            &*model,
                            &batch,
                            &target,
                            &mask,
                            tf_prob,
                            cfg.seed,
                            global_batch,
                        );
                        if loss_val.is_finite() {
                            let _timer = enhancenet_telemetry::span("trainer.optimizer");
                            model.store_mut().zero_grad();
                            eng.reduce_into(model.store_mut());
                            let norm = clip_grad_norm(model.store_mut(), cfg.clip_norm);
                            optimizer.step(model.store_mut(), lr);
                            Some((loss_val, norm))
                        } else {
                            None
                        }
                    }
                    None => {
                        let mut g = Graph::new();
                        let pred = {
                            let _timer = enhancenet_telemetry::span("trainer.forward");
                            let mut ctx = ForwardCtx::train(&mut rng, &target, tf_prob);
                            model.forward(&mut g, &batch.x, &mut ctx)
                        };
                        let loss = g.masked_mae(pred, &target, &mask);
                        let loss_val = g.value(loss).item();
                        if loss_val.is_finite() {
                            g.backward(loss);
                            let _timer = enhancenet_telemetry::span("trainer.optimizer");
                            model.store_mut().zero_grad();
                            g.write_grads(model.store_mut());
                            let norm = clip_grad_norm(model.store_mut(), cfg.clip_norm);
                            optimizer.step(model.store_mut(), lr);
                            Some((loss_val, norm))
                        } else {
                            None
                        }
                    }
                };
                sampler.advance();
                global_batch += 1;
                match applied {
                    Some((loss_val, norm)) => {
                        // Throughput and loss accounting cover applied
                        // updates only: a diverged batch did no useful work,
                        // so counting its windows would inflate
                        // `windows_per_sec`, and a skipped `loss_sum` entry
                        // must not deflate the mean via the divisor.
                        windows += batch.starts.len();
                        grad_norm_sum += norm as f64;
                        updates += 1;
                        loss_sum += loss_val as f64;
                        enhancenet_telemetry::observe("trainer.grad_norm", norm as f64);
                        if let Some(t0) = step_start {
                            enhancenet_telemetry::observe(
                                "trainer.step_ns",
                                t0.elapsed().as_nanos() as f64,
                            );
                        }
                    }
                    None => {
                        // Divergence guard: skip the update, keep training.
                        enhancenet_telemetry::count("trainer.diverged_batches", 1);
                    }
                }
            }
            let secs = started.elapsed().as_secs_f64();
            let mean_loss = if updates > 0 { (loss_sum / updates as f64) as f32 } else { f32::NAN };
            train_loss.push(mean_loss);

            // Validation MAE in the raw scale.
            let val = {
                let _timer = enhancenet_telemetry::span("trainer.validation");
                self.quick_mae(model, data, data.split.val.clone(), &mut rng)
            };
            // Per-epoch model-health probes (no-ops unless telemetry is on
            // and the model carries the relevant plugin).
            probes::record_graph_diagnostics(&cfg.probes, epoch, model, data);
            drift_probe.record(epoch, model);
            val_mae.push(val);
            let is_best = val < best.0;
            let record = EpochTelemetry {
                epoch,
                secs: secs as f32,
                windows,
                windows_per_sec: if secs > 0.0 { (windows as f64 / secs) as f32 } else { 0.0 },
                grad_norm: if updates > 0 { (grad_norm_sum / updates as f64) as f32 } else { 0.0 },
                train_loss: mean_loss,
                val_mae: val,
                lr,
                full_epoch: !truncated,
                best: is_best,
            };
            enhancenet_telemetry::record_event("epoch", &record);
            enhancenet_telemetry::echo(&format!(
                "[{}] epoch {epoch}: loss {mean_loss:.4}, val MAE {val:.4}, lr {lr:.5}, \
                 {:.1} windows/s",
                model.name(),
                record.windows_per_sec
            ));
            epoch_telemetry.push(record);
            if is_best {
                best = (val, epoch, model.store().snapshot());
                enhancenet_telemetry::record_event(
                    "best_epoch",
                    &serde_json::json!({"epoch": epoch, "val_mae": val}),
                );
            } else if let Some(p) = cfg.patience {
                if epoch >= best.1 + p {
                    enhancenet_telemetry::record_event(
                        "early_stop",
                        &serde_json::json!({"epoch": epoch, "best_epoch": best.1, "patience": p}),
                    );
                    break;
                }
            }
        }
        if cfg.verbose {
            enhancenet_telemetry::set_echo(prev_echo);
        }
        model.store_mut().restore(&best.2);
        TrainReport {
            best_epoch: best.1,
            secs_per_epoch: secs_per_full_epoch(&epoch_telemetry),
            num_parameters: model.num_parameters(),
            train_loss,
            val_mae,
            epoch_telemetry,
        }
    }

    /// Mean raw-scale MAE over (a capped number of) batches from `range`.
    ///
    /// Shard-aware: with `data_parallel(k)` the per-window eval forwards
    /// fan out over `k` workers and reassemble in window order
    /// ([`parallel::eval_predictions`]), so validation MAE — like training —
    /// is bit-identical for every shard count.
    fn quick_mae(
        &self,
        model: &dyn Forecaster,
        data: &WindowDataset,
        range: Range<usize>,
        rng: &mut TensorRng,
    ) -> f32 {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for (i, batch) in BatchIterator::sequential(data, range, self.config.batch_size).enumerate()
        {
            if let Some(cap) = self.config.max_eval_batches {
                if i >= cap {
                    break;
                }
            }
            let pred_scaled = match self.config.data_parallel {
                Some(k) => parallel::eval_predictions(model, &batch, k),
                None => {
                    let mut g = Graph::new();
                    let pred = {
                        let mut ctx = ForwardCtx::eval(rng);
                        model.forward(&mut g, &batch.x, &mut ctx)
                    };
                    g.value(pred).clone()
                }
            };
            let pred_raw = data.scaler.inverse_feature(&pred_scaled, data.target_feature);
            sum += enhancenet_stats::metrics::mae(&pred_raw, &batch.y_raw) as f64;
            count += 1;
        }
        if count == 0 {
            f32::INFINITY
        } else {
            (sum / count as f64) as f32
        }
    }

    /// Raw-scale forecast for a single window: returns `[F, N]` in the
    /// original units (inverse-scaled). Convenience for examples, figures
    /// and downstream consumers.
    pub fn predict_window(
        &self,
        model: &dyn Forecaster,
        data: &WindowDataset,
        start: usize,
    ) -> Tensor {
        let mut rng = TensorRng::seed(self.config.seed ^ 0xFEED);
        let x = data.input_window(start).unsqueeze(0);
        let mut g = Graph::new();
        let pred = {
            let mut ctx = ForwardCtx::eval(&mut rng);
            model.forward(&mut g, &x, &mut ctx)
        };
        let f = model.horizon();
        let n = data.num_entities();
        data.scaler.inverse_feature(g.value(pred), data.target_feature).reshape(&[f, n])
    }

    /// Full evaluation on `range` (typically the test split): metrics at
    /// `horizons` (1-indexed, paper uses 3/6/12), the overall average, the
    /// per-window MAE samples for significance testing, and single-window
    /// prediction latency.
    pub fn evaluate(
        &self,
        model: &dyn Forecaster,
        data: &WindowDataset,
        range: Range<usize>,
        horizons: &[usize],
    ) -> EvalReport {
        let mut rng = TensorRng::seed(self.config.seed ^ 0x5EED);
        let mut preds: Vec<Tensor> = Vec::new();
        let mut truths: Vec<Tensor> = Vec::new();
        let mut window_mae = Vec::new();
        for (i, batch) in
            BatchIterator::sequential(data, range.clone(), self.config.batch_size).enumerate()
        {
            if let Some(cap) = self.config.max_eval_batches {
                if i >= cap {
                    break;
                }
            }
            let mut g = Graph::new();
            let pred = {
                let mut ctx = ForwardCtx::eval(&mut rng);
                model.forward(&mut g, &batch.x, &mut ctx)
            };
            let pred_raw = data.scaler.inverse_feature(g.value(pred), data.target_feature);
            for bi in 0..batch.starts.len() {
                let p = pred_raw.index_axis(0, bi);
                let t = batch.y_raw.index_axis(0, bi);
                window_mae.push(enhancenet_stats::metrics::mae(&p, &t));
            }
            preds.push(pred_raw);
            truths.push(batch.y_raw.clone());
        }
        let pred_all = Tensor::concat(&preds.iter().collect::<Vec<_>>(), 0);
        let truth_all = Tensor::concat(&truths.iter().collect::<Vec<_>>(), 0);
        let horizon_metrics: Vec<(usize, HorizonMetrics)> =
            horizons.iter().map(|&h| (h, metrics_at_horizon(&pred_all, &truth_all, h))).collect();
        let overall = HorizonMetrics::compute(&pred_all, &truth_all);

        // Error attribution: which entities and horizons the headline
        // numbers hide (no-op unless telemetry + probe are on).
        probes::record_error_attribution(&self.config.probes, &pred_all, &truth_all);

        // Prediction latency: single-window forwards (Table V's protocol —
        // "making a prediction for the next 12 timestamps").
        let timing_windows: Vec<usize> = range.take(5).collect();
        let mut total = 0.0f64;
        let mut timed = 0usize;
        for &start in &timing_windows {
            let x = data.input_window(start).unsqueeze(0);
            let t0 = Instant::now();
            let mut g = Graph::new();
            let mut ctx = ForwardCtx::eval(&mut rng);
            {
                let _span = enhancenet_telemetry::span("trainer.infer_window");
                let _ = model.forward(&mut g, &x, &mut ctx);
            }
            let elapsed = t0.elapsed();
            enhancenet_telemetry::observe("infer.window_ns", elapsed.as_nanos() as f64);
            total += elapsed.as_secs_f64();
            timed += 1;
        }
        EvalReport {
            horizons: horizon_metrics,
            overall,
            pred_ms: if timed > 0 { (total * 1000.0 / timed as f64) as f32 } else { 0.0 },
            window_mae,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::test_model::AffinePersistence;
    use enhancenet_autodiff::{ParamStore, Var};
    use enhancenet_data::traffic::{generate_traffic, TrafficConfig};

    fn dataset() -> WindowDataset {
        let ds = generate_traffic(&TrafficConfig::tiny(4, 2));
        WindowDataset::from_series(&ds, 12, 12).unwrap()
    }

    #[test]
    fn training_reduces_loss_on_persistence_model() {
        let data = dataset();
        let mut model = AffinePersistence::new(12);
        let trainer = Trainer::new(TrainConfig::quick(8, 8));
        let report = trainer.train(&mut model, &data);
        assert_eq!(report.train_loss.len(), 8);
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(
            last < first,
            "loss should fall: first {first}, last {last} ({:?})",
            report.train_loss
        );
        assert_eq!(report.num_parameters, 2);
    }

    #[test]
    fn best_weights_are_restored() {
        let data = dataset();
        let mut model = AffinePersistence::new(12);
        let trainer = Trainer::new(TrainConfig::quick(5, 8));
        let report = trainer.train(&mut model, &data);
        // Validation MAE at the best epoch is the minimum recorded.
        let min = report.val_mae.iter().copied().fold(f32::INFINITY, f32::min);
        assert!((report.val_mae[report.best_epoch] - min).abs() < 1e-6);
    }

    #[test]
    fn evaluation_reports_requested_horizons() {
        let data = dataset();
        let mut model = AffinePersistence::new(12);
        let trainer = Trainer::new(TrainConfig::quick(3, 8));
        trainer.train(&mut model, &data);
        let eval = trainer.evaluate(&model, &data, data.split.test.clone(), &[3, 6, 12]);
        assert_eq!(eval.horizons.len(), 3);
        assert_eq!(eval.horizons[0].0, 3);
        assert!(eval.overall.mae > 0.0);
        assert!(eval.overall.rmse >= eval.overall.mae);
        assert!(eval.pred_ms >= 0.0);
        assert!(!eval.window_mae.is_empty());
    }

    #[test]
    fn trained_model_beats_untrained() {
        let data = dataset();
        let trainer = Trainer::new(TrainConfig::quick(10, 8));
        let mut trained = AffinePersistence::new(12);
        trainer.train(&mut trained, &data);
        let untrained = AffinePersistence::new(12);
        let e_trained = trainer.evaluate(&trained, &data, data.split.test.clone(), &[3]);
        let e_untrained = trainer.evaluate(&untrained, &data, data.split.test.clone(), &[3]);
        assert!(
            e_trained.overall.mae < e_untrained.overall.mae,
            "trained {} vs untrained {}",
            e_trained.overall.mae,
            e_untrained.overall.mae
        );
    }

    #[test]
    fn predict_window_returns_raw_scale() {
        let data = dataset();
        let mut model = AffinePersistence::new(12);
        let trainer = Trainer::new(TrainConfig::quick(5, 8));
        trainer.train(&mut model, &data);
        let start = data.split.test.start;
        let pred = trainer.predict_window(&model, &data, start);
        assert_eq!(pred.shape(), &[12, 4]);
        // Raw-scale speeds, not z-scores.
        assert!(pred.mean_all() > 20.0, "predictions look scaled: {:?}", pred);
    }

    #[test]
    fn early_stopping_respects_patience() {
        let data = dataset();
        let mut model = AffinePersistence::new(12);
        let mut cfg = TrainConfig::quick(50, 8);
        cfg.patience = Some(2);
        let trainer = Trainer::new(cfg);
        let report = trainer.train(&mut model, &data);
        // The affine model converges almost immediately, so patience should
        // cut the run well short of 50 epochs.
        assert!(report.train_loss.len() < 50, "ran {} epochs", report.train_loss.len());
    }

    #[test]
    fn epoch_telemetry_has_one_record_per_epoch() {
        let data = dataset();
        let mut model = AffinePersistence::new(12);
        let trainer = Trainer::new(TrainConfig::quick(4, 8));
        let report = trainer.train(&mut model, &data);
        assert_eq!(report.epoch_telemetry.len(), 4);
        for (i, e) in report.epoch_telemetry.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert!(e.secs >= 0.0);
            assert!(e.windows > 0, "epoch {i} processed no windows");
            assert!(e.windows_per_sec > 0.0);
            assert!(e.grad_norm >= 0.0);
            assert!((e.train_loss - report.train_loss[i]).abs() < 1e-6);
            assert!((e.val_mae - report.val_mae[i]).abs() < 1e-6);
        }
        // Exactly the epochs that improved validation MAE are flagged best,
        // and the last of them is the reported best epoch.
        let best_epochs: Vec<usize> =
            report.epoch_telemetry.iter().filter(|e| e.best).map(|e| e.epoch).collect();
        assert!(best_epochs.contains(&report.best_epoch));
        assert_eq!(best_epochs.last().copied(), Some(report.best_epoch));
    }

    #[test]
    fn secs_per_epoch_averages_full_epochs_only() {
        let data = dataset();
        let mut model = AffinePersistence::new(12);
        // Uncapped: every epoch consumes the whole training split.
        let mut cfg = TrainConfig::quick(3, 8);
        cfg.max_batches_per_epoch = None;
        let trainer = Trainer::new(cfg);
        let report = trainer.train(&mut model, &data);
        assert!(report.epoch_telemetry.iter().all(|e| e.full_epoch));
        let mean: f64 = report.epoch_telemetry.iter().map(|e| e.secs as f64).sum::<f64>()
            / report.epoch_telemetry.len() as f64;
        assert!((report.secs_per_epoch as f64 - mean).abs() < 1e-5);

        // With a 1-batch cap every epoch is truncated: the report must fall
        // back to the mean over the truncated epochs rather than claiming
        // full-epoch timing.
        let mut cfg = TrainConfig::quick(3, 8);
        cfg.max_batches_per_epoch = Some(1);
        let trainer = Trainer::new(cfg);
        let mut model = AffinePersistence::new(12);
        let report = trainer.train(&mut model, &data);
        assert!(report.epoch_telemetry.iter().all(|e| !e.full_epoch));
        let mean: f64 = report.epoch_telemetry.iter().map(|e| e.secs as f64).sum::<f64>()
            / report.epoch_telemetry.len() as f64;
        assert!((report.secs_per_epoch as f64 - mean).abs() < 1e-5);
    }

    #[test]
    fn secs_per_epoch_covers_early_stopped_runs() {
        let data = dataset();
        let mut model = AffinePersistence::new(12);
        let mut cfg = TrainConfig::quick(50, 8);
        cfg.patience = Some(2);
        cfg.max_batches_per_epoch = None;
        let trainer = Trainer::new(cfg);
        let report = trainer.train(&mut model, &data);
        let ran = report.epoch_telemetry.len();
        assert!(ran < 50, "expected early stop, ran {ran} epochs");
        // The early-stopped run still reports timing over the (full) epochs
        // that actually completed.
        let full: Vec<f64> =
            report.epoch_telemetry.iter().filter(|e| e.full_epoch).map(|e| e.secs as f64).collect();
        assert!(!full.is_empty());
        let mean = full.iter().sum::<f64>() / full.len() as f64;
        assert!((report.secs_per_epoch as f64 - mean).abs() < 1e-5);
        assert!(report.secs_per_epoch > 0.0);
    }

    #[test]
    fn builder_produces_quick_equivalent() {
        let quick = TrainConfig::quick(6, 8);
        let built = TrainConfig::builder()
            .epochs(6)
            .batch_size(8)
            .max_batches_per_epoch(Some(20))
            .max_eval_batches(Some(10))
            .build()
            .unwrap();
        assert_eq!(built.epochs, quick.epochs);
        assert_eq!(built.batch_size, quick.batch_size);
        assert_eq!(built.clip_norm, quick.clip_norm);
        assert_eq!(built.sampler_tau, quick.sampler_tau);
        assert_eq!(built.max_batches_per_epoch, quick.max_batches_per_epoch);
        assert_eq!(built.seed, quick.seed);
    }

    #[test]
    fn builder_rejects_invalid_fields() {
        let zero_epochs = TrainConfig::builder().epochs(0).build();
        match zero_epochs {
            Err(EnhanceNetError::InvalidConfig { field: "epochs", .. }) => {}
            other => panic!("expected InvalidConfig(epochs), got {other:?}"),
        }
        let zero_batch = TrainConfig::builder().batch_size(0).build();
        match zero_batch {
            Err(EnhanceNetError::InvalidConfig { field: "batch_size", .. }) => {}
            other => panic!("expected InvalidConfig(batch_size), got {other:?}"),
        }
        for bad in [f32::NAN, f32::INFINITY, 0.0, -1.0] {
            match TrainConfig::builder().clip_norm(bad).build() {
                Err(EnhanceNetError::InvalidConfig { field: "clip_norm", .. }) => {}
                other => panic!("expected InvalidConfig(clip_norm) for {bad}, got {other:?}"),
            }
        }
        match TrainConfig::builder().sampler_tau(f32::NAN).build() {
            Err(EnhanceNetError::InvalidConfig { field: "sampler_tau", .. }) => {}
            other => panic!("expected InvalidConfig(sampler_tau), got {other:?}"),
        }
    }

    /// Emits NaN predictions for the first `nan_calls` forward passes, then
    /// behaves like [`AffinePersistence`]. Forces deterministic divergence
    /// for the accounting regression tests.
    struct NanThenAffine {
        inner: AffinePersistence,
        calls: std::sync::atomic::AtomicUsize,
        nan_calls: usize,
    }

    impl NanThenAffine {
        fn new(f: usize, nan_calls: usize) -> Self {
            Self {
                inner: AffinePersistence::new(f),
                calls: std::sync::atomic::AtomicUsize::new(0),
                nan_calls,
            }
        }
    }

    impl Forecaster for NanThenAffine {
        fn name(&self) -> &str {
            "nan-then-affine"
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
        fn forward_on(
            &self,
            g: &mut Graph,
            store: &ParamStore,
            x: &Tensor,
            ctx: &mut ForwardCtx,
        ) -> Var {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if call < self.nan_calls {
                let (b, n) = (x.shape()[0], x.shape()[2]);
                g.constant(Tensor::from_vec(
                    vec![f32::NAN; b * self.horizon() * n],
                    &[b, self.horizon(), n],
                ))
            } else {
                self.inner.forward_on(g, store, x, ctx)
            }
        }
    }

    #[test]
    fn diverged_batches_do_not_deflate_mean_loss_or_inflate_throughput() {
        let data = dataset();
        let mut cfg = TrainConfig::quick(1, 8);
        cfg.max_batches_per_epoch = Some(4);

        // Clean run: every batch applies, so `windows` counts all of them.
        let mut clean = AffinePersistence::new(12);
        let clean_report = Trainer::new(cfg.clone()).train(&mut clean, &data);
        let clean_windows = clean_report.epoch_telemetry[0].windows;
        assert_eq!(clean_windows, 32, "4 full batches of 8 expected");

        // One diverged batch: the mean loss divides by the 3 applied
        // batches (finite result) and the diverged batch's windows stay out
        // of the throughput numbers.
        let mut model = NanThenAffine::new(12, 1);
        let report = Trainer::new(cfg.clone()).train(&mut model, &data);
        let e = &report.epoch_telemetry[0];
        assert!(e.train_loss.is_finite(), "mean over applied batches must be finite");
        assert_eq!(
            e.windows,
            clean_windows - 8,
            "diverged batch's windows must not count toward throughput"
        );

        // Every batch diverged: no update ran, and the honest summary is
        // NaN — the old `loss_sum / batches` arithmetic reported a flat 0.0
        // here, silently claiming perfect loss for a run that learned
        // nothing.
        let mut all_nan = NanThenAffine::new(12, usize::MAX);
        let report = Trainer::new(cfg).train(&mut all_nan, &data);
        let e = &report.epoch_telemetry[0];
        assert!(e.train_loss.is_nan(), "all-diverged epoch reported {}", e.train_loss);
        assert_eq!(e.windows, 0);
        assert_eq!(e.windows_per_sec, 0.0);
        assert_eq!(e.grad_norm, 0.0);
    }

    #[test]
    fn missing_mask_excludes_nan_and_zero_readings() {
        let y = Tensor::from_vec(vec![1.0, 0.0, f32::NAN, f32::NEG_INFINITY, -2.5], &[5]);
        let mask = missing_mask(&y);
        assert_eq!(mask.data(), &[1.0, 0.0, 0.0, 0.0, 1.0]);
        let scaled = sanitized_targets(&y);
        assert_eq!(scaled.data(), &[1.0, 0.0, 0.0, 0.0, -2.5]);
    }

    #[test]
    fn builder_validates_data_parallel() {
        for bad in [0usize, 257, 10_000] {
            match TrainConfig::builder().data_parallel(bad).build() {
                Err(EnhanceNetError::InvalidConfig { field: "data_parallel", .. }) => {}
                other => panic!("expected InvalidConfig(data_parallel) for {bad}, got {other:?}"),
            }
        }
        let cfg = TrainConfig::builder().data_parallel(4).build().unwrap();
        assert_eq!(cfg.data_parallel, Some(4));
        assert_eq!(TrainConfig::builder().build().unwrap().data_parallel, None);
    }

    #[test]
    fn builder_defaults_follow_paper_setup() {
        let cfg = TrainConfig::builder().build().unwrap();
        assert_eq!(cfg.epochs, 100);
        assert_eq!(cfg.batch_size, 64);
        assert_eq!(cfg.clip_norm, 5.0);
        assert!(cfg.max_batches_per_epoch.is_none());
        assert!(cfg.patience.is_none());
    }
}
