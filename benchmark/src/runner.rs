//! The benchmark command's own work: start one fresh process per trial,
//! gather what the trials print, and reduce it to the declared metrics.
//!
//! End-to-end numbers come from untraced trials of the shipped stack.  The
//! per-layer numbers come from a separate pass that runs, round after round,
//! every rung of the ladder (untraced), the same inputs on
//! `std::alloc::System`, the stack with spans, and that stack once more from
//! the build that counts CAS operations.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::gen::Workload;
use crate::json::Json;
use crate::spec::spec;
use crate::stats::{median, Summary};
use crate::surface::Rung;
use crate::sys;

/// How much to run.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Seconds one pass may measure before it stops starting trials.
    pub seconds: f64,
    /// Length of the arrays relative to full size.
    pub scale: f64,
    /// Fewest and most trials of a pass.
    pub trials: (usize, usize),
}

impl Mode {
    /// What the acceptance driver asks for: full-size arrays, as many trials
    /// as fit into the window.
    pub fn window(seconds: f64) -> Mode {
        Mode {
            seconds,
            scale: 1.0,
            trials: (5, 200),
        }
    }

    /// Smoke test: one trial of one tenth the work.
    pub fn quick() -> Mode {
        Mode {
            seconds: 0.0,
            scale: 0.1,
            trials: (1, 1),
        }
    }
}

/// The ladder runs arrays of this share of the end-to-end length.
const LADDER_SCALE: f64 = 0.5;
/// Fewest trials per rung; more follow while the window lasts.
const LADDER_TRIALS: usize = 3;

/// Where the programs are and where results go.
pub struct Runner {
    /// Directory of this executable and of `app_nbbs`, `app_system`,
    /// `app_rung`.
    bin: PathBuf,
    /// The same programs built with `op-stats`.
    counted_bin: PathBuf,
    pub out: PathBuf,
    pub threads: usize,
}

/// The numbers one trial printed, and its complaints.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    pub nums: BTreeMap<String, f64>,
    pub checksum: Option<String>,
    pub errors: Vec<String>,
}

impl Trial {
    fn get(&self, key: &str) -> f64 {
        self.nums.get(key).copied().unwrap_or(0.0)
    }
}

/// One stack a trace pass runs, with the threads it runs on.
#[derive(Debug, Clone, PartialEq)]
struct Config {
    /// Key the trials are filed under.
    key: String,
    rung: Rung,
    threads: usize,
    counted: bool,
    /// For `app-global`: run the binary that registers this allocator
    /// itself, not `app_rung` forwarding to it.
    registered: bool,
}

impl Runner {
    pub fn new() -> Result<Runner, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin = exe
            .parent()
            .ok_or("the executable has no directory")?
            .to_path_buf();
        // `run.sh` builds the counting variant into `<target>/counted`.
        let counted_bin = bin
            .parent()
            .ok_or("the executable is not in a target directory")?
            .join("counted")
            .join(
                bin.file_name()
                    .ok_or("the executable's directory has no name")?,
            );
        Ok(Runner {
            bin,
            counted_bin,
            out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            threads: sys::default_threads(),
        })
    }

    /// Starts `program` and reads the JSON object on the last line it
    /// prints.  The child sees no `NBBS_*` variable: those reconfigure the
    /// allocator behind the benchmark's back.
    fn child(&self, program: &Path, args: &[String]) -> Result<Trial, String> {
        let mut cmd = Command::new(program);
        cmd.args(args).stdin(Stdio::null()).stderr(Stdio::piped());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("NBBS_") {
                cmd.env_remove(key);
            }
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        let what = || format!("{} {}", program.display(), args.join(" "));
        if !out.status.success() {
            return Err(format!(
                "{} ended with {}: {}",
                what(),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let doc = Json::parse(line).map_err(|e| format!("{} printed no result: {e}", what()))?;
        let map = doc
            .as_obj()
            .ok_or_else(|| format!("{} printed no object", what()))?;
        Ok(Trial {
            nums: map
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            checksum: map
                .get("checksum")
                .and_then(Json::as_str)
                .map(str::to_string),
            errors: map
                .get("errors")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// One trial of `workload` on `rung`.
    fn trial(
        &self,
        workload: Workload,
        c: &Config,
        seed: u64,
        scale: f64,
    ) -> Result<Trial, String> {
        let bin = if c.counted {
            &self.counted_bin
        } else {
            &self.bin
        };
        let common = [
            "--seed".to_string(),
            seed.to_string(),
            "--scale".to_string(),
            scale.to_string(),
            "--out".to_string(),
            self.out.display().to_string(),
        ];
        if workload == Workload::AppGlobal {
            let (program, rung) = match (c.rung, c.registered) {
                (Rung::R4Global, true) => ("app_nbbs", None),
                (Rung::System, true) => ("app_system", None),
                (rung, _) => ("app_rung", Some(rung)),
            };
            let mut args = common.to_vec();
            args.extend(["--workers".to_string(), c.threads.to_string()]);
            if let Some(rung) = rung {
                args.extend(["--rung".to_string(), rung.name().to_string()]);
            }
            self.child(&bin.join(program), &args)
        } else {
            let mut args = vec!["trial".to_string()];
            args.extend(common);
            args.extend(["--workload".to_string(), workload.name().to_string()]);
            args.extend(["--rung".to_string(), c.rung.name().to_string()]);
            args.extend(["--threads".to_string(), c.threads.to_string()]);
            self.child(&bin.join("nbbs-benchmark"), &args)
        }
    }

    /// The untraced pass: trials of the shipped stack, as many as the window
    /// holds.
    pub fn end_to_end(&self, workload: Workload, seed: u64, mode: Mode) -> Result<Pass, String> {
        let shipped = Config {
            key: "shipped".into(),
            rung: shipped_rung(workload),
            threads: self.threads,
            counted: false,
            registered: true,
        };
        let mut pass = Pass::default();
        // What the program must compute whatever allocates for it.
        let reference = match workload {
            Workload::AppGlobal => {
                let system = Config {
                    key: "system".into(),
                    rung: Rung::System,
                    ..shipped.clone()
                };
                let trial = self.trial(workload, &system, seed, mode.scale)?;
                pass.note("system", &trial);
                trial.checksum
            }
            _ => None,
        };
        let started = Instant::now();
        let mut last = 0.0;
        while pass.trials < mode.trials.1 {
            let elapsed = started.elapsed().as_secs_f64();
            if pass.trials >= mode.trials.0 && elapsed + last > mode.seconds {
                break;
            }
            let trial = self.trial(workload, &shipped, seed, mode.scale)?;
            for m in &spec().end_to_end {
                pass.values
                    .entry(m.name.clone())
                    .or_default()
                    .push(trial.get(&m.name));
            }
            pass.attempted += trial.get("calls") as u64;
            pass.failed += trial.get("failed") as u64;
            if trial.checksum != reference {
                pass.failed += trial.get("calls") as u64;
                pass.errors.push(format!(
                    "checksums differ: {:?} under NbbsGlobalAlloc, {:?} under System",
                    trial.checksum, reference
                ));
            }
            pass.note("shipped", &trial);
            pass.trials += 1;
            last = started.elapsed().as_secs_f64() - elapsed;
        }
        eprintln!("{}: {} trials", workload.name(), pass.trials);
        Ok(pass)
    }

    /// The traced pass: the ladder, the tree alone on one thread and behind
    /// a lock, and the stack with spans; reduced to the per-layer metrics.
    pub fn per_layer(&self, workload: Workload, seed: u64, mode: Mode) -> Result<Pass, String> {
        let t = self.threads;
        let config = |key: &str, rung, threads, counted| Config {
            key: key.to_string(),
            rung,
            threads,
            counted,
            registered: false,
        };
        let registered = |key: &str, rung| Config {
            registered: true,
            ..config(key, rung, t, false)
        };
        let mut configs: Vec<Config> = Rung::LADDER
            .iter()
            .map(|&r| config(r.name(), r, t, false))
            .collect();
        configs.push(config("r0-tree@1", Rung::R0Tree, 1, false));
        configs.push(config("r0-locked", Rung::R0Locked, t, false));
        // The yardstick, and what ships where no rung of the ladder is it.
        configs.push(registered("system", Rung::System));
        let (spanned, untraced, shipped) = match workload {
            Workload::TreeDirect => {
                configs.push(config("tree", Rung::Tree, t, false));
                (Rung::TreeSpanned, "tree", "tree")
            }
            Workload::AppGlobal => {
                configs.push(registered("shipped", Rung::R4Global));
                (Rung::R6Spanned, Rung::R6Elastic.name(), "shipped")
            }
            _ => (
                Rung::R6Spanned,
                Rung::R6Elastic.name(),
                Rung::R4Global.name(),
            ),
        };
        configs.push(config("spanned", spanned, t, false));
        // The same stack from the build that counts CAS operations: its
        // counters are exact, its timings are not used (the counters are
        // shared words that both threads write).
        configs.push(config("counted", spanned, t, true));

        let scale = mode.scale * LADDER_SCALE;
        let mut trials: BTreeMap<String, Vec<Trial>> = BTreeMap::new();
        let mut pass = Pass::default();
        let started = Instant::now();
        let mut last = 0.0;
        for round in 0..mode.trials.1 {
            let elapsed = started.elapsed().as_secs_f64();
            if round >= LADDER_TRIALS.min(mode.trials.0) && elapsed + last > mode.seconds {
                break;
            }
            for c in &configs {
                let trial = self.trial(workload, c, seed, scale)?;
                pass.attempted += trial.get("calls") as u64;
                pass.failed += trial.get("failed") as u64;
                pass.note(&c.key, &trial);
                trials.entry(c.key.clone()).or_default().push(trial);
            }
            pass.trials += 1;
            last = started.elapsed().as_secs_f64() - elapsed;
        }

        let medians: BTreeMap<&str, BTreeMap<String, f64>> = trials
            .iter()
            .map(|(key, ts)| {
                let mut keys: Vec<&String> = ts.iter().flat_map(|t| t.nums.keys()).collect();
                keys.sort();
                keys.dedup();
                let m = keys
                    .into_iter()
                    .map(|k| {
                        let vs: Vec<f64> =
                            ts.iter().filter_map(|t| t.nums.get(k).copied()).collect();
                        (k.clone(), median(&vs).unwrap_or(0.0))
                    })
                    .collect();
                (key.as_str(), m)
            })
            .collect();
        let steal: f64 = trials
            .values()
            .flatten()
            .map(|t| t.get("steal_ticks"))
            .sum();
        // Two stacks against each other as the median over rounds of their
        // difference (or ratio) within a round, where they ran back to back:
        // the host's speed drifts from round to round, and what both share
        // of it cancels.
        let paired = |a: &str, b: &str, f: fn(f64, f64) -> f64| -> f64 {
            let each: Vec<f64> = trials[a]
                .iter()
                .zip(&trials[b])
                .map(|(a, b)| f(a.get("ns_per_op"), b.get("ns_per_op")))
                .collect();
            median(&each).unwrap_or(0.0)
        };
        let steps = [
            (
                "alloc.global.self_ns_per_op",
                paired("r4-global", "r3-facade", |a, b| a - b),
            ),
            (
                "obs.idle_ns_per_op",
                paired("r7-obs", "r3-facade", |a, b| a - b),
            ),
            ("wall_vs_system_x", paired(shipped, "system", |a, b| a / b)),
        ];
        eprintln!(
            "{}: {} rounds of {} stacks",
            workload.name(),
            pass.trials,
            configs.len()
        );
        let mut derived = derive(&medians, spanned, untraced, steal, &pass);
        derived.extend(steps.map(|(k, v)| (k.to_string(), v)));
        for m in &spec().per_layer {
            let value = derived
                .get(m.name.as_str())
                .copied()
                .ok_or_else(|| format!("no value for the declared metric '{}'", m.name))?;
            pass.values.insert(m.name.clone(), vec![value]);
        }
        Ok(pass)
    }
}

/// The stack a user of the workload runs on.
fn shipped_rung(workload: Workload) -> Rung {
    match workload {
        Workload::TreeDirect => Rung::Tree,
        _ => Rung::R4Global,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics from the medians of each configuration's trials.
fn derive(
    medians: &BTreeMap<&str, BTreeMap<String, f64>>,
    spanned: Rung,
    untraced: &str,
    steal_ticks: f64,
    pass: &Pass,
) -> BTreeMap<String, f64> {
    let get = |config: &str, key: &str| -> f64 {
        medians
            .get(config)
            .and_then(|m| m.get(key))
            .copied()
            .unwrap_or(0.0)
    };
    let mut out = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    for rung in Rung::LADDER {
        put(
            &format!("ladder.{}.ns_per_op", rung.name()),
            get(rung.name(), "ns_per_op"),
        );
        put(
            &format!("ladder.{}.rss_mib", rung.name()),
            get(rung.name(), "peak_rss_mib"),
        );
    }

    // Spans: self time per traced operation and as a share of all of it.
    let sp = |key: &str| get("spanned", key);
    let (ops, total_ns) = (sp("span.traced_ops"), sp("span.total_ns"));
    let top = match spanned {
        Rung::TreeSpanned => "tree",
        _ => "facade",
    };
    let top_calls = sp(&format!("span.{top}.calls"));
    let self_ns = |layer: &str| ratio(sp(&format!("span.{layer}.self_ns")), ops);
    let share = |layer: &str| ratio(sp(&format!("span.{layer}.self_ns")), total_ns);
    let calls = |layer: &str| ratio(sp(&format!("span.{layer}.calls")), top_calls);
    let counter = |key: &str| sp(&format!("counter.{key}"));

    put("cache.self_ns_per_op", self_ns("cache"));
    put(
        "cache.hit_rate",
        ratio(
            counter("cache.hits"),
            counter("cache.hits") + counter("cache.misses"),
        ),
    );
    // Calls into whatever sits directly under the cache: the slab.
    put("cache.backend_calls_per_op", calls("slab"));
    put("cache.parked_mib", sp("parked_mib"));
    put("cache.drain_ms", get("r4-global", "drain_ms"));

    put("alloc.facade.self_ns_per_op", self_ns("facade"));
    put("alloc.facade.self_share", share("facade"));
    let (buddy, system) = (
        get("r4-global", "counter.global.buddy_bytes"),
        get("r4-global", "counter.global.system_bytes"),
    );
    put("alloc.global.system_share", ratio(system, buddy + system));
    put(
        "alloc.global.failovers",
        get("r4-global", "counter.global.failovers"),
    );

    put("core.tree.self_ns_per_op", self_ns("tree"));
    put("core.tree.self_share", share("tree"));
    put("core.tree.calls_per_op", calls("tree"));
    let counted = |key: &str| get("counted", &format!("counter.tree.{key}"));
    put(
        "core.tree.cas_per_call",
        ratio(counted("cas_ops"), counted("allocs") + counted("frees")),
    );
    put(
        "core.tree.cas_fail_share",
        ratio(counted("cas_failures"), counted("cas_ops")),
    );
    put(
        "core.tree.scaling_x",
        ratio(get("r0-tree", "ops_per_s"), get("r0-tree@1", "ops_per_s")),
    );
    put(
        "core.tree.vs_spinlock_x",
        ratio(get("r0-tree", "ops_per_s"), get("r0-locked", "ops_per_s")),
    );
    put("core.tree.op_p999_ns", get("r0-tree", "op_p999_ns"));

    put("core.region.setup_ms", get("r0-tree", "setup_s") * 1e3);
    put("core.region.scrub_pass_ms", get("r4-global", "scrub_ms"));
    put(
        "core.region.first_touch_ns_per_page",
        get("r0-tree", "first_touch_ns_per_page"),
    );

    put("core.elastic.self_ns_per_op", self_ns("elastic"));
    put("core.elastic.calls_per_op", calls("elastic"));
    put("core.elastic.grows", counter("elastic.grows"));
    put("core.elastic.retires", counter("elastic.retires"));

    put("slab.self_ns_per_op", self_ns("slab"));
    put("slab.calls_per_op", calls("slab"));
    put(
        "slab.page_grants_per_kop",
        1e3 * ratio(counter("slab.pages_granted"), top_calls),
    );
    put(
        "slab.committed_over_requested",
        ratio(
            counter("slab.bytes_committed"),
            counter("slab.bytes_requested"),
        ),
    );

    put("numa.self_ns_per_op", self_ns("numa"));
    put("numa.calls_per_op", calls("numa"));
    put(
        "numa.remote_share",
        ratio(
            counter("numa.remote_allocs"),
            counter("numa.local_allocs") + counter("numa.remote_allocs"),
        ),
    );

    put(
        "bench.clock_overhead_ns",
        get("r4-global", "clock_overhead_ns"),
    );
    // Everything the traced run adds (spans and exact counters) against the
    // same stack run plain.
    put(
        "bench.trace_overhead_pct",
        100.0
            * ratio(
                sp("ns_per_op") - get(untraced, "ns_per_op"),
                get(untraced, "ns_per_op"),
            ),
    );
    put("bench.steal_ticks", steal_ticks);
    put(
        "failed_share",
        ratio(pass.failed as f64, pass.attempted as f64),
    );
    out
}

/// What one pass over one workload measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Per-trial values of each declared metric (one value each for the
    /// per-layer metrics, which are already medians).
    pub values: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub trials: usize,
    pub errors: Vec<String>,
    pub unpinned: u64,
}

impl Pass {
    fn note(&mut self, stack: &str, trial: &Trial) {
        self.errors
            .extend(trial.errors.iter().map(|e| format!("{stack}: {e}")));
        self.unpinned += trial.get("unpinned") as u64;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    pub fn summary(&self, metric: &str) -> Option<Summary> {
        Summary::of(self.values.get(metric)?)
    }

    /// The last line the acceptance driver reads.
    pub fn contract_line(&self, metrics: &[crate::spec::Metric]) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|m| {
                    let value = self.summary(&m.name).map_or(f64::NAN, |s| s.median);
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(m.unit.clone())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The pass in full: median, quartiles and count of every metric.
    pub fn detail(&self, metrics: &[crate::spec::Metric]) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("trials", Json::Num(self.trials as f64)),
            ("unpinned_threads", Json::Num(self.unpinned as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "metrics",
                Json::obj(metrics.iter().filter_map(|m| {
                    let s = self.summary(&m.name)?;
                    let mut fields = vec![
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                        ("unit", Json::Str(m.unit.clone())),
                        (
                            "better",
                            Json::Str(
                                if m.higher_is_better {
                                    "higher"
                                } else {
                                    "lower"
                                }
                                .into(),
                            ),
                        ),
                    ];
                    if let Some(bound) = m.bound {
                        fields.push(("bound", Json::Num(bound)));
                    }
                    Some((m.name.clone(), Json::obj(fields)))
                })),
            ),
        ])
    }
}

/// Host and build facts recorded beside every result.
pub fn environment(seed: u64, threads: usize) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("threads", Json::Num(threads as f64)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("cpu_model", Json::Str(sys::cpu_model())),
        ("kernel", Json::Str(sys::kernel())),
        (
            "rustc",
            Json::Str(sys::command_line("rustc", &["--version"])),
        ),
        (
            "git_commit",
            Json::Str(sys::command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        (
            "steal_ticks_since_boot",
            Json::Num(sys::steal_ticks() as f64),
        ),
    ])
}
