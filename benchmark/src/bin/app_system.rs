//! The `app-global` program under `std::alloc::System`: the yardstick.

use std::alloc::System;

use nbbs_benchmark::app::Accounted;
use nbbs_benchmark::appmain::{self, Probe};

// The same wrapper as `app_nbbs`, so both sides pay for the counting.
#[global_allocator]
static GLOBAL: Accounted<System> = Accounted::new(System, 64 << 10);

struct Yardstick;

impl Probe for Yardstick {
    fn requested(&self) -> Option<u64> {
        Some(GLOBAL.live_requested())
    }
}

fn main() {
    drop(std::hint::black_box(Box::new(0u8)));
    let ready = nbbs_benchmark::sys::process_cpu_s();
    if let Err(e) = appmain::main(&Yardstick, ready) {
        eprintln!("app_system: {e}");
        std::process::exit(2);
    }
}
