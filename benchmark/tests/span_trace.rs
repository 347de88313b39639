//! Spans while they are being recorded: every traced operation is recorded
//! whole, the calls into each layer are counted, and the self times of the
//! layers add up to the time of the operations.  (That the traced stack
//! serves what the plain one serves is `tests/spanned.rs`.)
//!
//! One test only: the span buffers are process-wide and installed once.

use nbbs_benchmark::gen::{plan, OpKind, Workload};
use nbbs_benchmark::span::{self, Layer, LAYERS, TRACE_STRIDE};
use nbbs_benchmark::surface::{build, Rung};
use nbbs_benchmark::sys::{self, Clock};

#[test]
fn traced_operations_are_recorded_whole_and_self_times_add_up() {
    sys::become_worker(0);
    span::install(1, 1 << 20);
    let cost = span::calibrate();
    assert!(cost.inside > 0.0, "reading the clock twice takes time");

    let geometry = Workload::SmallChurn.geometry();
    let traced = build(Rung::R6Spanned, geometry, 1);
    let plan = plan(Workload::SmallChurn, 5, 1, 0.05);
    let mut slots = vec![(std::ptr::null_mut::<u8>(), 0, 0); plan.slots];
    let mut calls = 0u64;

    span::start();
    for op in &plan.ops[0] {
        match op.kind() {
            OpKind::Alloc => {
                let ptr = traced.alloc(op.size(), op.align());
                assert!(!ptr.is_null());
                slots[op.slot()] = (ptr, op.size(), op.align());
                calls += 1;
            }
            OpKind::Free => {
                let (ptr, size, align) = slots[op.slot()];
                // SAFETY: allocated above with this size and alignment, freed once.
                unsafe { traced.free(ptr, size, align) };
                calls += 1;
            }
            OpKind::Mark => {}
        }
    }
    span::stop();

    let dir = std::env::temp_dir().join(format!("nbbs-span-test-{}", std::process::id()));
    let clock = Clock::calibrate();
    let a = span::collect(&clock, cost, &dir, "test", 100);
    let dump = std::fs::read_to_string(dir.join("spans-test-t0.csv")).expect("spans were written");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(a.dropped, 0);
    assert_eq!(
        a.calls[Layer::Facade as usize],
        calls,
        "every top-level call is counted"
    );
    assert_eq!(
        a.traced_ops,
        calls / u64::from(TRACE_STRIDE),
        "one in sixteen is traced"
    );
    assert!(
        a.calls[Layer::Cache as usize] >= calls,
        "every call reaches the cache"
    );
    assert!(
        a.calls[Layer::Tree as usize] < calls,
        "the cache keeps most calls off the tree"
    );
    assert!(
        a.spans >= 2 * a.traced_ops,
        "a traced operation has at least a cache span inside"
    );
    let layers: f64 = LAYERS.iter().map(|&l| a.self_ns[l as usize]).sum();
    assert!(
        (layers - a.total_ns).abs() <= 1e-6 * a.total_ns,
        "shares add up to one"
    );
    assert!(
        a.total_ns > 0.0 && a.total_ns < a.raw_ns,
        "removing the cost of recording shortens {} to {}",
        a.raw_ns,
        a.total_ns
    );
    assert_eq!(
        dump.lines().count(),
        101,
        "a header and the first hundred spans"
    );
    assert!(dump
        .lines()
        .nth(1)
        .unwrap()
        .ends_with(|c: char| c.is_ascii_digit()));
    assert!(dump.contains(",facade,") && dump.contains(",cache,"));
}
