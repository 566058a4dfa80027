//! Microbenchmarks of the tensor substrate primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enhancenet_tensor::{Tensor, TensorRng};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let a = TensorRng::seed(1).normal(&[n, n], 0.0, 1.0);
        let b = TensorRng::seed(2).normal(&[n, n], 0.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_gemm_model_shapes(c: &mut Criterion) {
    // Square adjacency products at METR-LA scale (N = 207): the dynamic-graph
    // plugin multiplies [N, N] matrices in all three orientations — forward
    // (nn) plus the two transpose-fused gradient kernels (tn, nt).
    let n = 207usize;
    let a = TensorRng::seed(20).normal(&[n, n], 0.0, 1.0);
    let b = TensorRng::seed(21).normal(&[n, n], 0.0, 1.0);
    let mut group = c.benchmark_group("gemm_adjacency_207");
    group.bench_function("nn", |bench| bench.iter(|| black_box(a.matmul(&b))));
    group.bench_function("tn", |bench| bench.iter(|| black_box(a.matmul_tn(&b))));
    group.bench_function("nt", |bench| bench.iter(|| black_box(a.matmul_nt(&b))));
    group.finish();

    // RNN hidden projection with batch and entities flattened into rows:
    // [B*N, C] x [C, C] forward, the tn weight gradient ([B*N, C]ᵀ · gy) and
    // the nt input gradient (gy · Wᵀ).
    let (rows, c_hidden) = (8 * 207, 64usize);
    let x = TensorRng::seed(22).normal(&[rows, c_hidden], 0.0, 1.0);
    let w = TensorRng::seed(23).normal(&[c_hidden, c_hidden], 0.0, 1.0);
    let gy = TensorRng::seed(24).normal(&[rows, c_hidden], 0.0, 1.0);
    let mut group = c.benchmark_group("gemm_rnn_hidden_1656x64");
    group.bench_function("nn_forward", |bench| bench.iter(|| black_box(x.matmul(&w))));
    group.bench_function("tn_weight_grad", |bench| bench.iter(|| black_box(x.matmul_tn(&gy))));
    group.bench_function("nt_input_grad", |bench| bench.iter(|| black_box(gy.matmul_nt(&w))));
    group.finish();

    // WaveNet channel mixing: a rank-4 signal [B, N, T, C] against a shared
    // [C, C] filter through the fold-and-multiply broadcast kernel, plus its
    // transpose-fused nt twin (the input gradient).
    let sig = TensorRng::seed(25).normal(&[8, 207, 12, 32], 0.0, 1.0);
    let filt = TensorRng::seed(26).normal(&[32, 32], 0.0, 1.0);
    let mut group = c.benchmark_group("gemm_wavenet_channels_8x207x12x32");
    group.bench_function("broadcast_right", |bench| {
        bench.iter(|| black_box(sig.matmul_broadcast_right(&filt)));
    });
    group.bench_function("broadcast_right_nt", |bench| {
        bench.iter(|| black_box(sig.matmul_broadcast_right_nt(&filt)));
    });
    group.finish();
}

fn bench_bmm(c: &mut Criterion) {
    // The per-entity filter pattern: [N, B, C] x [N, C, C'].
    let x = TensorRng::seed(3).normal(&[200, 8, 16], 0.0, 1.0);
    let w = TensorRng::seed(4).normal(&[200, 16, 16], 0.0, 1.0);
    c.bench_function("bmm_per_entity_200x8x16", |b| {
        b.iter(|| black_box(x.bmm(&w)));
    });
    // Transpose-fused batched gradients over the same per-entity shapes:
    // bmm_tn is the weight gradient (xᵀ · gy), bmm_nt the input gradient.
    let gy = TensorRng::seed(12).normal(&[200, 8, 16], 0.0, 1.0);
    c.bench_function("bmm_tn_per_entity_200x8x16", |b| {
        b.iter(|| black_box(x.bmm_tn(&gy)));
    });
    c.bench_function("bmm_nt_per_entity_200x8x16", |b| {
        b.iter(|| black_box(gy.bmm_nt(&w)));
    });

    // Attention-shaped scores: [B, N, C'] x [B, N, C']ᵀ per batch → [B, N, N].
    // Unlike the per-entity shapes above (2048 madds per batch entry — below
    // PACK_MIN_WORK, served by the direct loops), each 207×64×207 batch entry
    // is deep into blocked-engine territory, so this is the bmm_nt bench that
    // actually exercises packing + the SIMD micro-kernel dispatch.
    let q = TensorRng::seed(13).normal(&[8, 207, 64], 0.0, 1.0);
    let kmat = TensorRng::seed(14).normal(&[8, 207, 64], 0.0, 1.0);
    c.bench_function("bmm_nt_attention_8x207x64", |b| {
        b.iter(|| black_box(q.bmm_nt(&kmat)));
    });

    // One graph-convolution hop on la-dynamic: a batch of 12 dynamic
    // [207, 207] supports against a [207, 10] hidden state, plus the input
    // gradient Aᵀ·gy. Ten output columns fit one register strip, so the
    // engine reads A in place instead of packing it.
    let supports = TensorRng::seed(15).normal(&[12, 207, 207], 0.0, 1.0);
    let hidden = TensorRng::seed(16).normal(&[12, 207, 10], 0.0, 1.0);
    let mut group = c.benchmark_group("gconv_hop_12x207x207x10");
    group.bench_function("bmm", |b| b.iter(|| black_box(supports.bmm(&hidden))));
    group.bench_function("bmm_tn_input_grad", |b| {
        b.iter(|| black_box(supports.bmm_tn(&hidden)));
    });
    group.finish();
}

fn bench_broadcast_left(c: &mut Criterion) {
    // The graph-convolution pattern: [N, N] x [B, N, C].
    let a = TensorRng::seed(5).normal(&[200, 200], 0.0, 1.0);
    let x = TensorRng::seed(6).normal(&[8, 200, 16], 0.0, 1.0);
    c.bench_function("gc_diffusion_200n_8b_16c", |b| {
        b.iter(|| black_box(a.matmul_broadcast_left(&x)));
    });
}

fn bench_softmax(c: &mut Criterion) {
    let x = TensorRng::seed(7).normal(&[8, 200, 200], 0.0, 1.0);
    c.bench_function("softmax_rows_8x200x200", |b| {
        b.iter(|| black_box(x.softmax(-1)));
    });
}

fn bench_elementwise(c: &mut Criterion) {
    let x = TensorRng::seed(8).normal(&[64, 1024], 0.0, 1.0);
    let row = TensorRng::seed(9).normal(&[1024], 0.0, 1.0);
    c.bench_function("sigmoid_64x1024", |b| b.iter(|| black_box(x.sigmoid())));
    c.bench_function("broadcast_add_row_64x1024", |b| {
        b.iter(|| black_box(x.add_t(&row)));
    });
    c.bench_function("same_shape_mul_64x1024", |b| {
        let y = x.map(|v| v * 0.5);
        b.iter(|| black_box(x.mul_t(&y)));
    });
}

fn bench_reductions(c: &mut Criterion) {
    let x = TensorRng::seed(10).normal(&[64, 1024], 0.0, 1.0);
    c.bench_function("sum_axis0_64x1024", |b| b.iter(|| black_box(x.sum_axis(0))));
    c.bench_function("reduce_to_shape_64x1024_to_row", |b| {
        b.iter(|| black_box(x.reduce_to_shape(&[1024])));
    });
}

fn bench_shape_ops(c: &mut Criterion) {
    let x = TensorRng::seed(11).normal(&[8, 20, 12, 32], 0.0, 1.0);
    c.bench_function("permute_4d_8x20x12x32", |b| {
        b.iter(|| black_box(x.permute(&[1, 0, 2, 3])));
    });
    c.bench_function("concat_feature_axis", |b| {
        b.iter(|| black_box(Tensor::concat(&[&x, &x, &x], -1)));
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_gemm_model_shapes,
    bench_bmm,
    bench_broadcast_left,
    bench_softmax,
    bench_elementwise,
    bench_reductions,
    bench_shape_ops,
);
criterion_main!(benches);
