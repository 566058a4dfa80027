//! Forward-only (prediction) cost of the plugins — Table V's "P (ms)"
//! story: base vs D- vs DA- vs D-DA- variants, plus the effect of the
//! DFGN prediction-phase filter cache and the DAMGN ablation pieces.

use criterion::{criterion_group, criterion_main, Criterion};
use enhancenet::{Damgn, DamgnConfig, Dfgn, DfgnConfig, Forecaster, ForwardCtx};
use enhancenet_autodiff::{Graph, ParamStore};
use enhancenet_bench::{bench_dataset, bench_dims, bench_wavenet_config};
use enhancenet_models::{GraphMode, GruSeq2Seq, TemporalMode, WaveNet};
use enhancenet_tensor::TensorRng;
use std::hint::black_box;

fn predict_bench(c: &mut Criterion, name: &str, model: Box<dyn Forecaster>) {
    let (data, _) = bench_dataset();
    let x = data.input_window(0).unsqueeze(0);
    let mut rng = TensorRng::seed(1);
    c.bench_function(name, |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = model.forward(&mut g, &x, &mut ctx);
            black_box(g.value(y).clone())
        });
    });
    // The same forward through the compiled inference plan (`predict`
    // compiles on first call, then executes against the warm arena).
    let mut out = enhancenet_tensor::Tensor::default();
    model.predict_into(&x, &mut out).unwrap();
    c.bench_function(format!("{name}_plan"), |b| {
        b.iter(|| {
            model.predict_into(&x, &mut out).unwrap();
            black_box(&out);
        });
    });
}

/// Prediction latency across the plugin matrix (paper: "the use of DFGN
/// and DAMGN does not affect the usability in real-time predictions").
fn bench_prediction_matrix(c: &mut Criterion) {
    let (_, adjacency) = bench_dataset();
    let dfgn = DfgnConfig::default();
    let wn = bench_wavenet_config();

    predict_bench(
        c,
        "predict/RNN",
        Box::new(GruSeq2Seq::rnn(bench_dims(16), 2, TemporalMode::Shared, 1)),
    );
    predict_bench(
        c,
        "predict/D-RNN_cached",
        Box::new(GruSeq2Seq::rnn(bench_dims(16), 2, TemporalMode::Distinct(dfgn), 1)),
    );
    predict_bench(
        c,
        "predict/GRNN",
        Box::new(GruSeq2Seq::grnn(
            bench_dims(16),
            2,
            TemporalMode::Shared,
            GraphMode::paper_static(),
            &adjacency,
            1,
        )),
    );
    predict_bench(
        c,
        "predict/DA-GRNN",
        Box::new(GruSeq2Seq::grnn(
            bench_dims(16),
            2,
            TemporalMode::Shared,
            GraphMode::paper_dynamic(),
            &adjacency,
            1,
        )),
    );
    predict_bench(
        c,
        "predict/TCN",
        Box::new(WaveNet::tcn(bench_dims(16), wn.clone(), TemporalMode::Shared, 1)),
    );
    predict_bench(
        c,
        "predict/DA-GTCN",
        Box::new(WaveNet::gtcn(
            bench_dims(16),
            wn,
            TemporalMode::Shared,
            GraphMode::paper_dynamic(),
            &adjacency,
            1,
        )),
    );
}

/// The raw generator cost: what a plan compile pays once per weight
/// version to fold the filters.
fn bench_dfgn_generation(c: &mut Criterion) {
    let mut store = ParamStore::new();
    let mut rng = TensorRng::seed(2);
    // LA-sized: 207 entities, GRU filters for C = 2, C' = 16.
    let o = enhancenet::gru_filter_dim(2, 16);
    let dfgn = Dfgn::new(&mut store, &mut rng, "bench", 207, o, DfgnConfig::default());
    c.bench_function("dfgn_generate_207", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let y = dfgn.generate(&mut g, &store);
            black_box(g.value(y).clone())
        });
    });
}

/// DAMGN's per-timestep pieces: static B (Eq. 15) vs dynamic C_t (Eq. 16)
/// vs the full combined A' (Eq. 13) — "only a few more matrix
/// multiplications" (§VI-B4).
fn bench_damgn_pieces(c: &mut Criterion) {
    let n = 207;
    let mut store = ParamStore::new();
    let mut rng = TensorRng::seed(3);
    let damgn = Damgn::new(&mut store, &mut rng, "bench", n, 1, DamgnConfig::default());
    let x_t = rng.normal(&[4, n, 1], 0.0, 1.0);
    let a_t = rng.uniform(&[n, n], 0.0, 0.1);

    c.bench_function("damgn_static_B_207", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let y = damgn.static_b(&mut g, &store);
            black_box(g.value(y).clone())
        });
    });
    c.bench_function("damgn_dynamic_C_207", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let x = g.constant(x_t.clone());
            let y = damgn.dynamic_c(&mut g, &store, x);
            black_box(g.value(y).clone())
        });
    });
    c.bench_function("damgn_combined_Aprime_207", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let a = g.constant(a_t.clone());
            let x = g.constant(x_t.clone());
            let y = damgn.combined(&mut g, &store, a, x);
            black_box(g.value(y).clone())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_prediction_matrix, bench_dfgn_generation, bench_damgn_pieces
}
criterion_main!(benches);
