//! The top-k DAMGN pattern is built once per store version on the sparse
//! D-DA-GTCN host: all window tapes of a sharded training step share one
//! build, and validation, evaluation and the graph-health probe reuse the
//! build of the weights they run on.
//!
//! Runs as its own test binary: the telemetry registry is process-global,
//! and the sibling integration suites must keep seeing it disabled.

use enhancenet::prelude::*;
use enhancenet::ForwardCtx;
use enhancenet_autodiff::Graph;
use enhancenet_data::{generate_grid_series, GridConfig};
use enhancenet_graph::{build_supports_csr, SupportKind};
use enhancenet_models::{GraphMode, ModelDims, TemporalMode, WaveNet, WaveNetConfig};
use enhancenet_telemetry::SpanRecord;
use enhancenet_tensor::{Tensor, TensorRng};

fn builds() -> u64 {
    enhancenet_telemetry::counter_value("damgn.topk.builds")
}

/// Pattern builds that started inside a span labelled `label`.
fn builds_within(spans: &[SpanRecord], label: &str) -> usize {
    let inside = |outer: &SpanRecord, s: &SpanRecord| {
        s.start_us >= outer.start_us && s.start_us <= outer.start_us + outer.dur_ns / 1000
    };
    let outers: Vec<&SpanRecord> = spans.iter().filter(|s| s.label == label).collect();
    spans
        .iter()
        .filter(|s| s.label == "damgn.topk.build" && outers.iter().any(|o| inside(o, s)))
        .count()
}

#[test]
fn sparse_training_builds_the_pattern_once_per_store_version() {
    let n = 24;
    let series = generate_grid_series(&GridConfig::new(n, 120));
    let data = WindowDataset::from_values(&series.values, 4, 2).unwrap();
    let dims =
        ModelDims { num_entities: n, in_features: 1, hidden: 6, input_len: 4, output_len: 2 };
    let mut model = WaveNet::gtcn_sparse(
        dims,
        WaveNetConfig { dilations: vec![1, 2], kernel: 2, end_hidden: 8, dropout: 0.0 },
        TemporalMode::Distinct(DfgnConfig::default()),
        GraphMode::paper_dynamic_topk(5),
        build_supports_csr(&series.adjacency, SupportKind::DoubleTransition),
        7,
    );
    let (epochs, batch) = (2, 4);
    let trainer = Trainer::new(
        TrainConfig::builder()
            .epochs(epochs)
            .batch_size(batch)
            .max_batches_per_epoch(Some(3))
            .max_eval_batches(Some(2))
            .data_parallel(2)
            .build()
            .expect("test config is valid"),
    );

    enhancenet_telemetry::reset();
    enhancenet_telemetry::set_enabled(true);
    let report = trainer.train(&mut model, &data);
    let train_builds = builds();
    let spans = enhancenet_telemetry::span_records();

    let windows: usize = report.epoch_telemetry.iter().map(|e| e.windows).sum();
    assert_eq!(windows % batch, 0, "every applied step is a full batch");
    let steps = windows / batch;
    assert_eq!(steps, 6, "no batch diverged: {:?}", report.train_loss);
    // Each applied step builds one pattern for its weights, shared by its
    // four window tapes on two shards. Each epoch's validation runs on the
    // weights after the epoch's last step, builds that pattern once for all
    // its eval forwards, and the next epoch's first step reuses it. So the
    // run builds one pattern per store version it forwards: one per step
    // plus the final validation's.
    assert_eq!(train_builds, steps as u64 + 1, "builds across the run");
    assert_eq!(builds_within(&spans, "trainer.validation"), epochs);
    assert_eq!(builds_within(&spans, "probes.graph_diagnostics"), 0, "the probe rebuilt");

    // At a version a training tape has built, evaluation adds no build.
    let batch_x = BatchIterator::sequential(&data, data.split.train.clone(), 1).next().unwrap();
    let teacher = Tensor::zeros(&[1, 2, n]);
    let mut rng = TensorRng::seed(1);
    let before = builds();
    let mut g = Graph::new();
    model.forward(&mut g, &batch_x.x, &mut ForwardCtx::train(&mut rng, &teacher, 0.0));
    assert_eq!(builds(), before + 1, "the restored best weights need their own build");
    trainer.evaluate(&model, &data, data.split.val.clone(), &[1, 2]);
    let mut g = Graph::new();
    model.forward(&mut g, &batch_x.x, &mut ForwardCtx::train(&mut rng, &teacher, 0.0));
    assert_eq!(builds(), before + 1, "evaluation or a second training tape rebuilt the pattern");

    enhancenet_telemetry::set_enabled(false);
    enhancenet_telemetry::reset();
}
