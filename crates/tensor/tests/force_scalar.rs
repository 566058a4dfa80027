//! The `ENHANCENET_FORCE_SCALAR` escape hatch, exercised end-to-end.
//!
//! Kernel selection is cached process-wide at first use, so this lives in
//! its own integration-test binary — its process sets the variable before
//! any GEMM runs, then drives the public API and checks both the selection
//! and the telemetry it leaves behind. Exactly one `#[test]` lives here:
//! `std::env::set_var` must not race other threads of this process.

use enhancenet_tensor::{kernel, Tensor};

#[test]
fn force_scalar_env_pins_dispatch_and_stays_correct() {
    std::env::set_var("ENHANCENET_FORCE_SCALAR", "1");
    assert!(kernel::force_scalar_requested());
    assert_eq!(
        kernel::selected_kernel().name(),
        "scalar",
        "ENHANCENET_FORCE_SCALAR=1 must pin dispatch to the scalar kernel"
    );

    // The forced engine still matches the naive reference on a shape with
    // ragged tiles in both dimensions (work is far above PACK_MIN_WORK, so
    // this runs the blocked path, not the small-product direct loops).
    let (m, k, n) = (67, 129, 65);
    let a = Tensor::from_vec((0..m * k).map(|v| ((v * 7 + 1) % 5) as f32 - 2.0).collect(), &[m, k]);
    let b = Tensor::from_vec((0..k * n).map(|v| ((v * 3 + 2) % 5) as f32 - 2.0).collect(), &[k, n]);
    let mut want = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            for j in 0..n {
                want[i * n + j] += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
        }
    }

    enhancenet_telemetry::reset();
    enhancenet_telemetry::set_enabled(true);
    let got = a.matmul(&b);
    let scalar_dispatches = enhancenet_telemetry::counter_value("tensor.kernel.dispatch.scalar");
    // A product whose output fits one register strip reads A in place
    // instead of packing it; it is still one counted blocked dispatch.
    let narrow = Tensor::from_vec(b.data()[..k * 5].to_vec(), &[k, 5]);
    let got_narrow = a.matmul(&narrow);
    let narrow_dispatches =
        enhancenet_telemetry::counter_value("tensor.kernel.dispatch.scalar") - scalar_dispatches;
    let simd_dispatches = enhancenet_telemetry::counter_value("tensor.kernel.dispatch.avx2")
        + enhancenet_telemetry::counter_value("tensor.kernel.dispatch.neon");
    let simd_available = enhancenet_telemetry::counter_value("tensor.kernel.simd_available");
    enhancenet_telemetry::set_enabled(false);

    assert_eq!(got.data(), &want[..], "forced-scalar blocked path must match the reference");
    assert!(scalar_dispatches >= 1, "blocked dispatch must count the scalar kernel");
    assert_eq!(narrow_dispatches, 1, "an unpacked blocked dispatch must count the scalar kernel");
    for i in 0..m {
        for j in 0..5 {
            let want: f32 = (0..k).map(|kk| a.data()[i * k + kk] * narrow.data()[kk * 5 + j]).sum();
            assert_eq!(
                got_narrow.data()[i * 5 + j],
                want,
                "forced-scalar unpacked path at ({i},{j})"
            );
        }
    }
    assert_eq!(simd_dispatches, 0, "no vectorized kernel may run under the forced hatch");
    if kernel::simd_available() {
        // The capability counter keeps reporting the host's ability even
        // while forcing suppresses its use — this is what lets
        // `bench_summary --require-simd` flag a silently-disabled SIMD
        // path instead of passing vacuously.
        assert!(simd_available >= 1, "simd_available must reflect the host, not the forcing");
    } else {
        assert_eq!(simd_available, 0);
    }
}
