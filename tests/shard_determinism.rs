//! Shard-count invariance of the data-parallel trainer, end to end on real
//! host models: `data_parallel(1)` and `data_parallel(K)` must produce
//! bit-identical loss curves, validation metrics, and final weights.
//!
//! This is the determinism contract of `trainer::parallel`: work is
//! decomposed per *window* (private graph, private RNG stream, private
//! gradient buffer) and gradients fold in fixed window order, so the shard
//! count only changes which thread runs a window — never any float. The
//! top-k D-DA-GTCN host adds one shared piece of state: the DAMGN pattern,
//! built by whichever shard's tape reaches it first and read by the rest.

use enhancenet::prelude::*;
use enhancenet_data::{generate_grid_series, GridConfig};
use enhancenet_graph::{build_supports_csr, SupportKind};
use enhancenet_models::{GraphMode, GruSeq2Seq, ModelDims, TemporalMode, WaveNet, WaveNetConfig};

fn train_with_shards(
    model: &mut dyn Forecaster,
    data: &WindowDataset,
    shards: usize,
    batch_size: usize,
) -> (TrainReport, Vec<f32>) {
    let cfg = TrainConfig::builder()
        .epochs(3)
        .batch_size(batch_size)
        .max_batches_per_epoch(Some(8))
        .max_eval_batches(Some(4))
        .data_parallel(shards)
        .build()
        .expect("test config is valid");
    let report = Trainer::new(cfg).train(model, data);
    let weights = model.store().snapshot().iter().flat_map(|t| t.data().to_vec()).collect();
    (report, weights)
}

fn assert_bit_identical(
    (base_report, base_weights): &(TrainReport, Vec<f32>),
    (report, weights): &(TrainReport, Vec<f32>),
) {
    assert!(
        base_report.train_loss.iter().all(|l| l.is_finite()),
        "reference run diverged: {:?}",
        base_report.train_loss
    );
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&base_report.train_loss),
        bits(&report.train_loss),
        "train losses diverged between shard counts"
    );
    assert_eq!(
        bits(&base_report.val_mae),
        bits(&report.val_mae),
        "validation MAE diverged between shard counts"
    );
    assert_eq!(base_report.best_epoch, report.best_epoch);
    assert_eq!(bits(base_weights), bits(weights), "final weights diverged between shard counts");
}

#[test]
fn gru_host_is_bit_identical_across_shard_counts() {
    let series = generate_traffic(&TrafficConfig::tiny(5, 2));
    let data = WindowDataset::from_series(&series, 12, 12).unwrap();
    let dims =
        ModelDims { num_entities: 5, in_features: 1, hidden: 10, input_len: 12, output_len: 12 };
    let run = |shards| {
        let mut model = GruSeq2Seq::rnn(dims, 1, TemporalMode::Shared, 7);
        train_with_shards(&mut model, &data, shards, 8)
    };
    assert_bit_identical(&run(1), &run(4));
}

#[test]
fn topk_dagtcn_host_is_bit_identical_across_shard_counts() {
    let n = 24;
    let series = generate_grid_series(&GridConfig::new(n, 120));
    let data = WindowDataset::from_values(&series.values, 4, 2).unwrap();
    let dims =
        ModelDims { num_entities: n, in_features: 1, hidden: 6, input_len: 4, output_len: 2 };
    let run = |shards| {
        let mut model = WaveNet::gtcn_sparse(
            dims,
            WaveNetConfig { dilations: vec![1, 2], kernel: 2, end_hidden: 8, dropout: 0.0 },
            TemporalMode::Distinct(DfgnConfig::default()),
            GraphMode::paper_dynamic_topk(5),
            build_supports_csr(&series.adjacency, SupportKind::DoubleTransition),
            7,
        );
        train_with_shards(&mut model, &data, shards, 4)
    };
    assert_bit_identical(&run(1), &run(2));
}
