//! The `app-global` program on any rung of the ladder: the registered
//! allocator forwards to the stack named by `--rung`.

use nbbs_benchmark::app::RungGlobal;
use nbbs_benchmark::appmain::{self, Probe};
use nbbs_benchmark::cli::Args;
use nbbs_benchmark::gen::Workload;
use nbbs_benchmark::surface::{build, Counters, Night, Rung, Surface};
use nbbs_benchmark::sys;
use nbbs_benchmark::{replay, span};

#[global_allocator]
static GLOBAL: RungGlobal = RungGlobal::new();

struct OnRung {
    surface: &'static dyn Surface,
    rung: Rung,
}

impl Probe for OnRung {
    fn granted(&self) -> Option<usize> {
        GLOBAL.maintenance(|| self.surface.granted_bytes())
    }
    fn night(&self) -> Night {
        GLOBAL.maintenance(|| self.surface.night())
    }
    fn counters(&self, out: &mut Counters) {
        GLOBAL.maintenance(|| self.surface.counters(out));
        out.insert("rung.leaked", GLOBAL.leaked() as f64);
    }
    fn extras(&self) -> Vec<(&'static str, f64)> {
        if self.rung != Rung::R0Tree {
            return Vec::new();
        }
        let ns = GLOBAL.maintenance(|| replay::first_touch_ns_per_page(self.surface));
        vec![("first_touch_ns_per_page", ns)]
    }
    fn spanned(&self) -> bool {
        self.rung.spanned()
    }
}

fn run() -> Result<(), String> {
    let args = Args::from_env();
    let name = args.text("rung").ok_or("--rung is required")?;
    let rung = Rung::parse(name).ok_or_else(|| format!("unknown rung '{name}'"))?;
    let workers = args.value("workers", sys::default_threads())?;
    let scale = args.value("scale", 1.0f64)?;
    if rung.spanned() {
        // A request makes some tens of calls; one in sixteen is traced.
        let requests = (nbbs_benchmark::app::FULL_REQUESTS * scale) as usize;
        span::install(workers, requests * 40 + (1 << 16));
    }
    let surface: &'static dyn Surface =
        Box::leak(build(rung, Workload::AppGlobal.geometry(), workers));
    GLOBAL.install(surface);
    appmain::main(&OnRung { surface, rung }, sys::process_cpu_s())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("app_rung: {e}");
        std::process::exit(2);
    }
}
