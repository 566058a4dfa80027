//! Proves the sharded trainer's hot path adds no hidden allocations:
//!
//! * the `trainer.shard.*` telemetry calls the engine makes per batch must
//!   be allocation-free no-ops while telemetry is disabled, and
//! * the gradient-reduction machinery (`GradBuffer` accumulate → fold →
//!   reduce → reset) must reuse its buffers in steady state, so epoch
//!   throughput does not pay an allocator tax per batch.
//!
//! Runs as its own integration binary without the libtest harness
//! (`harness = false`), so the counting allocator sees no interference from
//! harness threads or sibling tests.

use enhancenet_autodiff::{GradBuffer, ParamStore};
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

fn disabled_shard_telemetry_is_allocation_free() {
    enhancenet_telemetry::set_enabled(false);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        // The exact instrumentation the shard engine emits per batch.
        enhancenet_telemetry::count("trainer.shard.batches", 1);
        enhancenet_telemetry::count("trainer.shard.windows", 8);
        let _fanout = enhancenet_telemetry::span("trainer.shard.fanout");
        let _worker = enhancenet_telemetry::span("trainer.shard.worker");
        let _reduce = enhancenet_telemetry::span("trainer.shard.reduce");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "disabled shard telemetry must not allocate ({} allocations observed)",
        after - before
    );
    assert_eq!(enhancenet_telemetry::event_count("trainer.shard.batches"), 0);
    assert_eq!(enhancenet_telemetry::event_count("trainer.shard.windows"), 0);
}

fn gradient_reduction_reuses_buffers_in_steady_state() {
    // Mirror of the engine's per-batch gradient flow: per-window buffers
    // accumulate, fold into a running total in fixed order, reduce into the
    // store, then reset for the next batch. After the first batch has
    // materialized every slot, the cycle must be allocation-free.
    let mut store = ParamStore::new();
    let a = store.add("a", Tensor::zeros(&[4, 4]));
    let b = store.add("b", Tensor::zeros(&[4]));
    let ga = Tensor::ones(&[4, 4]);
    let gb = Tensor::ones(&[4]);

    let mut window = GradBuffer::for_store(&store);
    let mut total = GradBuffer::for_store(&store);

    // Warm-up batch: first `accumulate` clones each gradient into its slot,
    // and the store materializes its own grad tensors.
    window.accumulate(a, &ga);
    window.accumulate(b, &gb);
    total.add_from(&window);
    total.reduce_into(&mut store);
    total.reset();
    window.reset();
    store.zero_grad();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        window.accumulate(a, &ga);
        window.accumulate(b, &gb);
        total.add_from(&window);
        total.reduce_into(&mut store);
        total.reset();
        window.reset();
        store.zero_grad();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state gradient reduction must not allocate ({} allocations observed)",
        after - before
    );
}

/// Runs every case in order on the main thread: no test harness shares
/// the process, so the counter sees only the code under test.
fn main() {
    let cases: [(&str, fn()); 2] = [
        (
            "disabled_shard_telemetry_is_allocation_free",
            disabled_shard_telemetry_is_allocation_free,
        ),
        (
            "gradient_reduction_reuses_buffers_in_steady_state",
            gradient_reduction_reuses_buffers_in_steady_state,
        ),
    ];
    for (name, case) in cases {
        case();
        println!("{name} ... ok");
    }
}
