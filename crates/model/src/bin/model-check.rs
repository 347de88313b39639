//! `model-check` — run every shipped model-checking configuration and
//! report the schedules explored.
//!
//! Requires the shadow-atomic build of the tree:
//!
//! ```text
//! RUSTFLAGS="--cfg nbbs_model" cargo run --release -p nbbs-model --bin model-check
//! ```
//!
//! Exit status: 0 when every config passes (with a nonzero schedule count —
//! an emptied search fails loudly), 1 on a violation (the replayable
//! witness is printed), 2 when built without `--cfg nbbs_model`.

#[cfg(not(nbbs_model))]
fn main() {
    eprintln!(
        "model-check was built without --cfg nbbs_model, so the tree is not \
         compiled onto the shadow atomics and there is nothing to explore.\n\
         Rebuild with:\n\
         \n    RUSTFLAGS=\"--cfg nbbs_model\" cargo run --release -p nbbs-model --bin model-check\n"
    );
    std::process::exit(2);
}

#[cfg(nbbs_model)]
fn main() {
    let mut failed = false;
    for config in nbbs_model::all_configs() {
        let name = config.name;
        let bound = config
            .explorer
            .max_preemptions
            .map(|p| format!("preemption bound {p}"))
            .unwrap_or_else(|| "exhaustive".to_string());
        let start = std::time::Instant::now();
        let report = config.explore();
        println!(
            "[{name}] {} schedules explored ({bound}; {} pruned, {} overflows, \
             max depth {}) in {:.2?}",
            report.schedules,
            report.pruned_runs,
            report.overflows,
            report.max_depth,
            start.elapsed()
        );
        if report.schedules == 0 {
            println!("[{name}] FAILED: the search explored zero schedules (pruning regression)");
            failed = true;
        }
        if report.overflows > 0 {
            // An overflowed run is discarded mid-schedule, but the DFS
            // still retires its nodes as explored — coverage is silently
            // unsound, so the gate must go red, not just log a count.
            println!(
                "[{name}] FAILED: {} run(s) hit the step cap — raise Explorer::max_steps; \
                 the search under-covered the space",
                report.overflows
            );
            failed = true;
        }
        for v in &report.violations {
            println!(
                "[{name}] VIOLATION: {}\nreplayable choices: {:?}\n{}",
                v.message, v.choices, v.rendered_trace
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("model-check: all configurations clean");
}
