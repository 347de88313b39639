//! The host: CPU pinning, `/proc` readings, the cycle counter.

use std::cell::Cell;
use std::time::{Duration, Instant};

extern "C" {
    // std already links libc; declaring the one call avoids a dependency.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut t = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `t` is a live timespec for the call to fill in.
    unsafe { clock_gettime(clock, &mut t) };
    t.seconds as f64 + t.nanoseconds as f64 * 1e-9
}

/// Seconds of CPU the calling thread has used.  Time the hypervisor gives
/// the thread's CPU to another guest (`steal` in `/proc/stat`) is not charged
/// to it, and neither is time it sleeps.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Seconds of CPU the process has used since it was started.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// The CPUs the process was allowed when it first asked, in ascending order.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live, correctly sized cpu set; pid 0 names the
        // calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    })
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Caller threads for a full-size run: one per CPU, at most four.
pub fn default_threads() -> usize {
    nproc().min(4)
}

/// What [`worker`] answers on a thread that is not a worker.
pub const NOT_A_WORKER: usize = usize::MAX;

thread_local! {
    /// Index of the calling worker.  A const-initialised `Cell` has no
    /// destructor, so allocator code may read it at any point of a thread's
    /// life.
    static WORKER: Cell<usize> = const { Cell::new(NOT_A_WORKER) };
    /// The CPU the calling worker is pinned to, if it is.
    static MY_CPU: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's worker index, or [`NOT_A_WORKER`].
#[inline]
pub fn worker() -> usize {
    WORKER.with(Cell::get)
}

/// Names the calling thread worker `index` and pins it to the `index`-th CPU
/// the process may use.  Returns whether the pin took effect.
pub fn become_worker(index: usize) -> bool {
    WORKER.with(|w| w.set(index));
    let Some(&cpu) = allowed_cpus().get(index) else {
        return false;
    };
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized cpu set; pid 0 names the
    // calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 };
    MY_CPU.with(|c| c.set(pinned.then_some(cpu)));
    pinned
}

/// Calls `f` with the first 16 KiB of a `/proc` file, read into a buffer on
/// the stack.  The readings are taken while resident memory is being
/// measured, some of them on worker threads: a heap buffer (and the malloc
/// arena a thread's first allocation sets up) would show in what they
/// measure.  What is asked of `/proc/stat` and the status files is near their
/// top.
fn with_proc<R>(path: &str, f: impl FnOnce(&str) -> Option<R>) -> Option<R> {
    use std::io::Read;
    let mut buf = [0u8; 16 << 10];
    let mut file = std::fs::File::open(path).ok()?;
    let mut len = 0;
    while len < buf.len() {
        match file.read(&mut buf[len..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => len += n,
        }
    }
    // A multi-byte character cut at the end would not be valid; these files
    // are ASCII, so this only ever drops nothing.
    let text = std::str::from_utf8(&buf[..len]).ok()?;
    f(text)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    with_proc(path, |text| {
        let line = text.lines().find(|l| l.starts_with(key))?;
        line[key.len()..].split_whitespace().next()?.parse().ok()
    })
}

/// Resident anonymous memory of this process in KiB: its heap, its stacks and
/// every mapping an allocator makes.  Exact (`smaps_rollup` walks the page
/// tables, where `VmRSS` reads per-CPU counters that may each lag by a batch
/// of pages), and without the program's own text, which the kernel maps in 64
/// KiB at a time as new code runs.
pub fn rss_kib() -> u64 {
    proc_field("/proc/self/smaps_rollup", "Anonymous:")
        .or_else(|| proc_field("/proc/self/status", "RssAnon:"))
        .unwrap_or(0)
}

/// The steal column of the `/proc/stat` line that starts with `label`.
fn steal_of(label: &str) -> u64 {
    with_proc("/proc/stat", |text| {
        text.lines()
            .find(|l| l.split_whitespace().next() == Some(label))
            .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
    })
    .unwrap_or(0)
}

/// Ticks (of 10 ms) the hypervisor ran something else while a CPU of this
/// guest was runnable, summed over CPUs, since boot.
pub fn steal_ticks() -> u64 {
    steal_of("cpu")
}

/// Times the calling thread has gone to sleep of its own accord.
fn voluntary_switches() -> u64 {
    proc_field("/proc/thread-self/status", "voluntary_ctxt_switches:").unwrap_or(0)
}

/// The benchmark's stopwatch: the time a stretch of work took the calling
/// thread, without the time the hypervisor gave its CPU to another guest.
///
/// If the thread never slept during the stretch, that is exactly its CPU
/// time: a running thread is charged a second per second except while its
/// CPU is stolen.  If it slept (the NBBS stack spins and never does; `System`
/// sleeps on a contended arena lock), its CPU time leaves the sleep out, so
/// the answer is the wall time minus the stolen ticks of the CPU it is pinned
/// to, which `/proc/stat` counts in steps of 10 ms.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
    switches: u64,
    stolen: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            switches: voluntary_switches(),
            stolen: my_steal_ticks(),
            wall: Instant::now(),
            cpu_s: thread_cpu_s(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        let cpu_s = thread_cpu_s() - self.cpu_s;
        let wall_s = self.wall.elapsed().as_secs_f64();
        if voluntary_switches() == self.switches {
            return cpu_s;
        }
        let stolen_s = my_steal_ticks().saturating_sub(self.stolen) as f64 / 100.0;
        (wall_s - stolen_s).max(cpu_s)
    }
}

fn my_steal_ticks() -> u64 {
    use std::io::Write;
    let Some(cpu) = MY_CPU.with(Cell::get) else {
        return 0;
    };
    // "cpu" and the number, without the heap (see `with_proc`).
    let mut label = [0u8; 24];
    let mut rest = &mut label[..];
    let _ = write!(rest, "cpu{cpu}");
    let len = 24 - rest.len();
    steal_of(std::str::from_utf8(&label[..len]).unwrap_or("cpu"))
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// First line of a command's standard output, or "unknown".
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Reads the cycle counter (the TSC on x86-64; nanoseconds elsewhere).
#[inline]
pub fn cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: reading the time-stamp counter has no preconditions.
        unsafe { std::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// The cycle counter's rate and what reading it costs.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub ns_per_cycle: f64,
    /// Median distance between two back-to-back readings, in cycles: what a
    /// timed call pays on top of the call.
    pub overhead_cycles: u64,
}

impl Clock {
    /// Measures the counter against `Instant` for about 5 ms.
    pub fn calibrate() -> Clock {
        let (t0, c0) = (Instant::now(), cycles());
        while t0.elapsed() < Duration::from_millis(5) {
            std::hint::spin_loop();
        }
        let (dt, dc) = (t0.elapsed(), cycles().wrapping_sub(c0));
        let mut gaps: Vec<u64> = (0..4096)
            .map(|_| {
                let a = cycles();
                cycles().wrapping_sub(a)
            })
            .collect();
        gaps.sort_unstable();
        Clock {
            ns_per_cycle: dt.as_nanos() as f64 / dc.max(1) as f64,
            overhead_cycles: gaps[gaps.len() / 2],
        }
    }

    /// A timed call's cycles, clock overhead removed, in nanoseconds.
    pub fn call_ns(&self, cycles: u64) -> f64 {
        cycles.saturating_sub(self.overhead_cycles) as f64 * self.ns_per_cycle
    }

    pub fn overhead_ns(&self) -> f64 {
        self.overhead_cycles as f64 * self.ns_per_cycle
    }
}
