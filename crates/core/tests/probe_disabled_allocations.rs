//! Proves the model-health probes compile to an allocation-free no-op
//! when telemetry is disabled: every probe entry point must check the
//! global switch (and its own flag) before building metrics, graphs, or
//! payloads. Runs as its own integration binary so the counting allocator
//! sees no interference from sibling tests.

use enhancenet::probes::{self, MemoryDriftProbe, ProbeConfig};
use enhancenet::{Forecaster, ForwardCtx};
use enhancenet_autodiff::{Graph, ParamStore, Var};
use enhancenet_data::traffic::{generate_traffic, TrafficConfig};
use enhancenet_data::WindowDataset;
use enhancenet_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Minimal forecaster with no plugins: exercises the default `damgn()` /
/// `memory_id()` trait paths the probes must tolerate.
struct NullModel {
    store: ParamStore,
}

impl Forecaster for NullModel {
    fn name(&self) -> &str {
        "null"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn horizon(&self) -> usize {
        12
    }
    fn forward_on(
        &self,
        g: &mut Graph,
        _store: &ParamStore,
        x: &Tensor,
        _ctx: &mut ForwardCtx,
    ) -> Var {
        // Probes never run a forward pass; keep a valid body anyway.
        g.constant(Tensor::zeros(&[x.shape()[0], 12, x.shape()[2]]))
    }
}

#[test]
fn disabled_probes_are_allocation_free() {
    enhancenet_telemetry::set_enabled(false);

    // Build every input outside the measured window: the probes
    // themselves are what we count.
    let model = NullModel { store: ParamStore::new() };
    let series = generate_traffic(&TrafficConfig::tiny(4, 2));
    let data = WindowDataset::from_series(&series, 12, 12).unwrap();
    let pred = Tensor::ones(&[2, 12, 4]);
    let truth = Tensor::from_vec(vec![2.0; 2 * 12 * 4], &[2, 12, 4]);
    let cfg = ProbeConfig::default();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for epoch in 0..1_000 {
        probes::record_error_attribution(&cfg, &pred, &truth);
        probes::record_graph_diagnostics(&cfg, epoch, &model, &data);
        let drift = MemoryDriftProbe::start(&cfg, &model);
        drift.record(epoch, &model);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "disabled probes must not allocate ({} allocations observed)",
        after - before
    );
    assert_eq!(enhancenet_telemetry::event_count("probe.entity_error"), 0);
    assert_eq!(enhancenet_telemetry::event_count("probe.damgn"), 0);
    assert_eq!(enhancenet_telemetry::event_count("probe.dfgn"), 0);
}
