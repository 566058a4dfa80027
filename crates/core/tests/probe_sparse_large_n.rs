//! Proves the DAMGN graph-diagnostics probe stays allocation-bounded at
//! large entity counts when a top-k budget is configured: the sparse
//! statistics path works on `[N, K]` value tensors and must never
//! materialize the dense `[N, N]` adjacency (400 MB of f32 at `N = 10k`).
//! Runs as its own integration binary so the counting allocator sees no
//! interference from sibling tests.

use enhancenet::probes::{self, ProbeConfig};
use enhancenet::{Damgn, DamgnConfig, Forecaster, ForwardCtx};
use enhancenet_autodiff::{Graph, ParamStore, Var};
use enhancenet_data::WindowDataset;
use enhancenet_tensor::{Tensor, TensorRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Minimal forecaster that carries a top-k DAMGN — only what the graph
/// diagnostics probe touches.
struct SparseDamgnModel {
    store: ParamStore,
    damgn: Damgn,
}

impl Forecaster for SparseDamgnModel {
    fn name(&self) -> &str {
        "sparse-damgn"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn horizon(&self) -> usize {
        2
    }
    fn damgn(&self) -> Option<&Damgn> {
        Some(&self.damgn)
    }
    fn forward_on(
        &self,
        g: &mut Graph,
        _store: &ParamStore,
        x: &Tensor,
        _ctx: &mut ForwardCtx,
    ) -> Var {
        g.constant(Tensor::zeros(&[x.shape()[0], 2, x.shape()[2]]))
    }
}

#[test]
fn topk_probe_is_allocation_bounded_at_ten_thousand_entities() {
    // The pattern build is O(N²·M); debug builds run a smaller N that
    // still exceeds the dense probe cap, release builds run the full 10k.
    const N: usize = if cfg!(debug_assertions) { 5_000 } else { 10_000 };
    // The chosen N must exceed the dense probe cap to prove the sparse route.
    const _: () = assert!(N > probes::DENSE_PROBE_MAX_ENTITIES);

    let mut store = ParamStore::new();
    let mut rng = TensorRng::seed(7);
    let cfg = DamgnConfig { top_k: Some(8), ..DamgnConfig::default() };
    let damgn = Damgn::new(&mut store, &mut rng, "damgn", N, 1, cfg);
    let model = SparseDamgnModel { store, damgn };

    // A short [T, N, 1] series with a non-empty validation split so the
    // probe also samples a sparse C_t.
    let values = TensorRng::seed(3).normal(&[40, N, 1], 0.0, 1.0);
    let data = WindowDataset::from_values(&values, 4, 2).unwrap();
    assert!(!data.split.val.is_empty());

    enhancenet_telemetry::reset();
    enhancenet_telemetry::set_enabled(true);
    let before = BYTES.load(Ordering::Relaxed);
    probes::record_graph_diagnostics(&ProbeConfig::default(), 0, &model, &data);
    let after = BYTES.load(Ordering::Relaxed);
    enhancenet_telemetry::set_enabled(false);

    assert_eq!(enhancenet_telemetry::event_count("probe.damgn"), 1);
    let allocated = after - before;
    // Dense B alone would be N² floats (400 MB at N = 10k, 100 MB at the
    // debug-mode 5k); the sparse path's tensors are [N, K] (~320 KB at
    // K = 8) plus transient scratch from the pattern build. Allow generous
    // headroom while staying far below any dense materialization.
    const BOUND: u64 = 64 * 1024 * 1024;
    assert!(
        allocated < BOUND,
        "sparse probe allocated {} MB; a dense [N, N] path would show ~{} MB",
        allocated / (1024 * 1024),
        (N * N * 4) / (1024 * 1024)
    );
    enhancenet_telemetry::reset();
}
