//! Proves the "near-zero overhead when disabled" contract: with telemetry
//! off, trace spans, counters, histograms, and event
//! recording perform **zero heap allocations**. Runs as its own
//! integration binary without the libtest harness (`harness = false`), so
//! the counting allocator sees no interference from harness threads or
//! sibling tests.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

fn disabled_fast_path_is_allocation_free() {
    enhancenet_telemetry::set_enabled(false);
    // Event payloads are only worth building when enabled; construct one
    // outside the measured window so record_event itself is what we count.
    let payload = serde_json::json!({"epoch": 1, "loss": 0.5});

    let before = counting_alloc::allocations();
    for _ in 0..10_000 {
        let _span = enhancenet_telemetry::span("alloc.test.span");
        enhancenet_telemetry::count("alloc.test.counter", 3);
        enhancenet_telemetry::observe("alloc.test.histogram", 42.0);
        enhancenet_telemetry::record_event("alloc.test.event", &payload);
    }
    let after = counting_alloc::allocations();

    assert_eq!(
        after - before,
        0,
        "disabled telemetry primitives must not allocate ({} allocations observed)",
        after - before
    );

    // Sanity: the same primitives do record (and may allocate) once enabled.
    enhancenet_telemetry::reset();
    enhancenet_telemetry::set_enabled(true);
    {
        let _span = enhancenet_telemetry::span("alloc.test.span");
        enhancenet_telemetry::count("alloc.test.counter", 3);
    }
    enhancenet_telemetry::set_enabled(false);
    assert_eq!(enhancenet_telemetry::counter_value("alloc.test.counter"), 3);
    assert!(enhancenet_telemetry::timer_stat("alloc.test.span").is_some());
}

fn disabled_span_and_histogram_paths_are_allocation_free() {
    enhancenet_telemetry::reset();
    enhancenet_telemetry::set_enabled(false);

    let before = counting_alloc::allocations();
    for i in 0..10_000u64 {
        let _outer = enhancenet_telemetry::span("alloc.span.outer");
        let _inner = enhancenet_telemetry::span("alloc.span.inner");
        enhancenet_telemetry::observe("alloc.hist", i as f64);
    }
    let after = counting_alloc::allocations();

    assert_eq!(
        after - before,
        0,
        "disabled span/histogram primitives must not allocate ({} allocations observed)",
        after - before
    );
    assert_eq!(enhancenet_telemetry::span_count(), 0);
    assert!(enhancenet_telemetry::histogram_summary("alloc.hist").is_none());
}

fn disabled_gauge_snapshot_and_slo_paths_are_allocation_free() {
    enhancenet_telemetry::reset();
    enhancenet_telemetry::set_enabled(false);
    // The SLO ring is fixed-size after construction; build it outside the
    // measured window so record/report are what we count.
    let mut slo =
        enhancenet_telemetry::SloWindow::new(std::time::Duration::from_secs(60), 12, 0.99);

    let before = counting_alloc::allocations();
    for i in 0..10_000u64 {
        enhancenet_telemetry::gauge("alloc.gauge", i as f64);
        slo.record(i as f64, i % 100 != 0, i % 50 == 0);
    }
    let report = slo.report();
    let snap = enhancenet_telemetry::snapshot();
    let after = counting_alloc::allocations();

    assert_eq!(
        after - before,
        0,
        "disabled gauges, empty snapshots, and SLO windows must not allocate \
         ({} allocations observed)",
        after - before
    );
    // The SLO window records regardless of the global switch (it is
    // caller-owned state, not registry state) ...
    assert_eq!(report.requests, 10_000);
    assert!(report.deadline_hit_rate < 1.0);
    // ... while the disabled registry stayed untouched and empty.
    assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    assert!(enhancenet_telemetry::gauge_value("alloc.gauge").is_none());
}

/// Runs every case in order on the main thread: no test harness shares
/// the process, so the counter sees only the code under test.
fn main() {
    let cases: [(&str, fn()); 3] = [
        ("disabled_fast_path_is_allocation_free", disabled_fast_path_is_allocation_free),
        (
            "disabled_span_and_histogram_paths_are_allocation_free",
            disabled_span_and_histogram_paths_are_allocation_free,
        ),
        (
            "disabled_gauge_snapshot_and_slo_paths_are_allocation_free",
            disabled_gauge_snapshot_and_slo_paths_are_allocation_free,
        ),
    ];
    for (name, case) in cases {
        case();
        println!("{name} ... ok");
    }
}
