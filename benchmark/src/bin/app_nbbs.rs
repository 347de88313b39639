//! The `app-global` program under `#[global_allocator] NbbsGlobalAlloc`, in
//! the geometry its documentation shows.

use nbbs_alloc::NbbsGlobalAlloc;
use nbbs_benchmark::app::Accounted;
use nbbs_benchmark::appmain::{self, Probe};
use nbbs_benchmark::surface::{global_counters, global_night, Counters, Night};

const LARGEST: usize = 64 << 10;

#[global_allocator]
static GLOBAL: Accounted<NbbsGlobalAlloc> =
    Accounted::new(NbbsGlobalAlloc::new(64 << 20, 32, LARGEST), LARGEST);

struct Shipped;

impl Probe for Shipped {
    fn granted(&self) -> Option<usize> {
        Some(GLOBAL.inner().buddy_allocated_bytes())
    }
    fn requested(&self) -> Option<u64> {
        Some(GLOBAL.live_requested())
    }
    fn night(&self) -> Night {
        global_night(GLOBAL.inner())
    }
    fn counters(&self, out: &mut Counters) {
        global_counters(GLOBAL.inner(), out);
    }
}

fn main() {
    // The first allocation builds the stack, if the runtime has not asked
    // for one already.
    drop(std::hint::black_box(Box::new(0u8)));
    let ready = nbbs_benchmark::sys::process_cpu_s();
    if let Err(e) = appmain::main(&Shipped, ready) {
        eprintln!("app_nbbs: {e}");
        std::process::exit(2);
    }
}
