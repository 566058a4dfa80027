//! Proves the scratch pool's steady-state contract: once a thread's pool is
//! warm, acquiring pack buffers performs **zero heap allocations** while
//! telemetry is disabled, and a warm blocked GEMM — packed or reading A in
//! place — allocates only its output tensor. Runs as its own integration
//! binary without the libtest harness (`harness = false`): `main` runs the
//! cases in order on one thread, so the counting allocator sees nothing
//! but the code under test.

use enhancenet_tensor::{with_scratch, Tensor};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

fn warm_scratch_pool_is_allocation_free_when_disabled() {
    enhancenet_telemetry::set_enabled(false);

    // Warm this thread's pool with the GEMM engine's nesting pattern: an
    // A-panel acquisition inside the B-panel scope.
    let (b_panel, a_panel) = (256 * 512, 256 * 64);
    with_scratch(b_panel, |_| with_scratch(a_panel, |_| ()));

    let before = counting_alloc::allocations();
    for _ in 0..10_000 {
        with_scratch(b_panel, |outer| {
            outer[0] = 1.0;
            with_scratch(a_panel, |inner| inner[0] = 2.0);
        });
    }
    let after = counting_alloc::allocations();

    assert_eq!(
        after - before,
        0,
        "warm scratch acquisitions must not allocate ({} allocations observed)",
        after - before
    );
}

/// One warm run of `product(lhs, rhs)`: its output and the allocations it
/// made.
fn warm_run(product: fn(&Tensor, &Tensor) -> Tensor, lhs: &Tensor, rhs: &Tensor) -> (Tensor, u64) {
    let _warm = product(lhs, rhs);
    let before = counting_alloc::allocations();
    let out = product(lhs, rhs);
    let after = counting_alloc::allocations();
    (out, after - before)
}

fn warm_blocked_gemm_allocates_only_its_output() {
    enhancenet_telemetry::set_enabled(false);

    // 64^3 = 256 Ki multiply-adds: big enough for the blocked/packed path,
    // below the parallel threshold so no rayon bookkeeping is measured.
    let a = Tensor::from_vec((0..64 * 64).map(|v| (v % 5) as f32).collect(), &[64, 64]);
    let b = Tensor::from_vec((0..64 * 64).map(|v| (v % 3) as f32).collect(), &[64, 64]);
    let (out, allocations) = warm_run(Tensor::matmul, &a, &b);
    assert_eq!(out.shape(), &[64, 64]);

    // Output data vec + shape vec(s); anything beyond a handful means a
    // pack buffer or gradient temporary slipped past the pool.
    assert!(
        allocations <= 4,
        "warm blocked GEMM should only allocate its output, saw {allocations} allocations"
    );
}

fn warm_narrow_blocked_gemm_allocates_only_its_output() {
    enhancenet_telemetry::set_enabled(false);

    // One graph-convolution hop, [207, 207] x [207, 10]: 428 Ki
    // multiply-adds, serial and blocked, but with one output column strip
    // A is read in place and only B is packed. matmul_tn reads the same A
    // through its transposed view (the hop's input gradient).
    let n = 207;
    let adj = Tensor::from_vec((0..n * n).map(|v| (v % 5) as f32).collect(), &[n, n]);
    let hidden = Tensor::from_vec((0..n * 10).map(|v| (v % 3) as f32).collect(), &[n, 10]);
    for (label, product) in [
        ("matmul", Tensor::matmul as fn(&Tensor, &Tensor) -> Tensor),
        ("matmul_tn", Tensor::matmul_tn),
    ] {
        let (out, allocations) = warm_run(product, &adj, &hidden);
        assert_eq!(out.shape(), &[n, 10]);
        assert!(
            allocations <= 4,
            "warm narrow {label} should only allocate its output, saw {allocations} allocations"
        );
    }
}

fn main() {
    let cases: [(&str, fn()); 3] = [
        (
            "warm_scratch_pool_is_allocation_free_when_disabled",
            warm_scratch_pool_is_allocation_free_when_disabled,
        ),
        (
            "warm_blocked_gemm_allocates_only_its_output",
            warm_blocked_gemm_allocates_only_its_output,
        ),
        (
            "warm_narrow_blocked_gemm_allocates_only_its_output",
            warm_narrow_blocked_gemm_allocates_only_its_output,
        ),
    ];
    for (name, case) in cases {
        case();
        println!("{name} ... ok");
    }
}
