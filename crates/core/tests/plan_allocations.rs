//! Proves the compiled-plan serving contract: once a plan is compiled and
//! its arena is warm, `Forecaster::predict_into` and the serve-batch
//! assembly path (`Tensor::stack_into` + batched `predict_into`) perform
//! **zero heap allocations**. Runs as its own integration binary without
//! the libtest harness (`harness = false`), so the counting allocator sees
//! no interference from harness threads or sibling tests.

use enhancenet::{Forecaster, ForwardCtx};
use enhancenet_autodiff::{Graph, ParamId, ParamStore, PlanCache, Var};
use enhancenet_tensor::{Tensor, TensorRng};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const H: usize = 6;
const N: usize = 8;
const C: usize = 2;
const F: usize = 3;

/// A linear forecaster exercising the plan's hot ops (slice, reshape, GEMM,
/// broadcasting add, activation, permute) without the full host models,
/// which live a crate above this one.
struct LinearModel {
    store: ParamStore,
    w: ParamId,
    bias: ParamId,
    plan_cache: PlanCache,
}

impl LinearModel {
    fn new() -> Self {
        let mut store = ParamStore::new();
        let w = store.add("w", TensorRng::seed(1).normal(&[C, F], 0.0, 0.5));
        let bias = store.add("bias", TensorRng::seed(3).normal(&[F], 0.0, 0.5));
        Self { store, w, bias, plan_cache: PlanCache::new() }
    }
}

impl Forecaster for LinearModel {
    fn name(&self) -> &str {
        "linear"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn horizon(&self) -> usize {
        F
    }
    fn input_shape(&self) -> Option<[usize; 3]> {
        Some([H, N, C])
    }
    fn plan_cache(&self) -> Option<&PlanCache> {
        Some(&self.plan_cache)
    }
    fn forward_on(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var {
        let b = x.shape()[0];
        let xin = if ctx.training { g.constant(x.clone()) } else { g.input(x.clone()) };
        let last = g.slice_axis(xin, 1, H - 1, H);
        let last = g.reshape(last, &[b * N, C]);
        let w = g.param(store, self.w);
        let y = g.matmul(last, w);
        let bias = g.param(store, self.bias);
        let y = g.add(y, bias);
        let y = g.tanh(y);
        let y = g.reshape(y, &[b, N, F]);
        g.permute(y, &[0, 2, 1])
    }
}

fn warm_predict_into_is_allocation_free() {
    enhancenet_telemetry::set_enabled(false);
    let model = LinearModel::new();
    let window = TensorRng::seed(2).normal(&[H, N, C], 0.0, 1.0);
    let mut out = Tensor::default();

    // Cold calls: compile the plan, size the arena, grow `out` and the
    // GEMM scratch pool. Everything after this must reuse those buffers.
    for _ in 0..3 {
        model.predict_into(&window, &mut out).expect("warm-up predict");
    }
    let expected = model.predict_tape(&window).expect("tape reference");
    assert_eq!(out.data(), expected.data(), "plan output sanity");
    // The tape trace above rotated the thread-local GEMM scratch pool
    // (LIFO), so the next plan execute may re-grow a demoted buffer.
    // Re-warm before opening the measured window.
    for _ in 0..3 {
        model.predict_into(&window, &mut out).expect("re-warm predict");
    }

    let before = counting_alloc::allocations();
    for _ in 0..100 {
        model.predict_into(&window, &mut out).expect("warm predict");
    }
    let after = counting_alloc::allocations();
    assert_eq!(
        after - before,
        0,
        "warm plan predict must not allocate ({} allocations observed over 100 runs)",
        after - before
    );
}

fn warm_serve_batch_path_is_allocation_free() {
    enhancenet_telemetry::set_enabled(false);
    let model = LinearModel::new();
    // The serve worker assembles rank-3 request windows into one rank-4
    // batch (`Tensor::stack_into`) and predicts into a reusable buffer —
    // mirror that exact sequence here.
    let windows: Vec<Tensor> =
        (0..4).map(|i| TensorRng::seed(10 + i).normal(&[H, N, C], 0.0, 1.0)).collect();
    let mut batch_x = Tensor::default();
    let mut pred = Tensor::default();

    for _ in 0..3 {
        Tensor::stack_into(windows.iter(), &mut batch_x);
        model.predict_into(&batch_x, &mut pred).expect("warm-up batch predict");
    }
    assert_eq!(pred.shape(), &[4, F, N]);

    let before = counting_alloc::allocations();
    for _ in 0..100 {
        Tensor::stack_into(windows.iter(), &mut batch_x);
        model.predict_into(&batch_x, &mut pred).expect("warm batch predict");
    }
    let after = counting_alloc::allocations();
    assert_eq!(
        after - before,
        0,
        "warm serve-batch path must not allocate ({} allocations observed over 100 runs)",
        after - before
    );
}

/// Runs every case in order on the main thread: no test harness shares
/// the process, so the counter sees only the code under test.
fn main() {
    let cases: [(&str, fn()); 2] = [
        ("warm_predict_into_is_allocation_free", warm_predict_into_is_allocation_free),
        ("warm_serve_batch_path_is_allocation_free", warm_serve_batch_path_is_allocation_free),
    ];
    for (name, case) in cases {
        case();
        println!("{name} ... ok");
    }
}
