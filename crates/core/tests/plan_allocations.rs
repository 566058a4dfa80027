//! Proves the compiled-plan serving contract: once a plan is compiled and
//! its arena is warm, `Forecaster::predict_into` and the serve-batch
//! assembly path (`Tensor::stack_into` + batched `predict_into`) perform
//! **zero heap allocations**. Runs as its own integration binary so the
//! counting allocator sees no interference from sibling tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use enhancenet::{Forecaster, ForwardCtx};
use enhancenet_autodiff::{Graph, ParamId, ParamStore, PlanCache, Var};
use enhancenet_tensor::{Tensor, TensorRng};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Telemetry state (and the allocation counter) is process-global:
/// serialize the tests so one test's warm-up cannot leak allocations into
/// another's measured window.
fn lock_tests() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    GUARD
        .get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    fn forward(&self, g: &mut Graph, x: &Tensor, ctx: &mut ForwardCtx) -> Var {
        let b = x.shape()[0];
        let xin = if ctx.training { g.constant(x.clone()) } else { g.input(x.clone()) };
        let last = g.slice_axis(xin, 1, H - 1, H);
        let last = g.reshape(last, &[b * N, C]);
        let w = g.param(&self.store, self.w);
        let y = g.matmul(last, w);
        let bias = g.param(&self.store, self.bias);
        let y = g.add(y, bias);
        let y = g.tanh(y);
        let y = g.reshape(y, &[b, N, F]);
        g.permute(y, &[0, 2, 1])
    }
}

#[test]
fn warm_predict_into_is_allocation_free() {
    let _g = lock_tests();
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

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        model.predict_into(&window, &mut out).expect("warm predict");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm plan predict must not allocate ({} allocations observed over 100 runs)",
        after - before
    );
}

#[test]
fn warm_serve_batch_path_is_allocation_free() {
    let _g = lock_tests();
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

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        Tensor::stack_into(windows.iter(), &mut batch_x);
        model.predict_into(&batch_x, &mut pred).expect("warm batch predict");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm serve-batch path must not allocate ({} allocations observed over 100 runs)",
        after - before
    );
}
