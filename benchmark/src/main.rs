//! The benchmark command.
//!
//! ```text
//! nbbs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass over one workload; the last line printed is the result the
//!     acceptance driver reads (end-to-end metrics without tracing,
//!     per-layer metrics with it)
//! nbbs-benchmark full [--quick] [--seed <n>] [--seconds <s>] [--result <file>]
//!     every workload, both passes, one result file
//! nbbs-benchmark compare <a.json> <b.json>
//!     better / worse / unchanged / unresolved per metric and workload;
//!     ends with code 1 if anything is worse
//! nbbs-benchmark trial ...
//!     one trial in this process (what the passes start)
//! ```

use std::path::PathBuf;

use nbbs_benchmark::cli::Args;
use nbbs_benchmark::compare::{compare, render, Verdict};
use nbbs_benchmark::gen::Workload;
use nbbs_benchmark::json::Json;
use nbbs_benchmark::replay::{self, TrialSpec};
use nbbs_benchmark::runner::{environment, Mode, Pass, Runner};
use nbbs_benchmark::spec::spec;
use nbbs_benchmark::surface::Rung;
use nbbs_benchmark::sys;

fn workload(args: &Args) -> Result<Workload, String> {
    let name = args.text("workload").ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (expected one of: {})",
            Workload::ALL.map(Workload::name).join(", ")
        )
    })
}

fn trial(args: &Args) -> Result<i32, String> {
    let name = args.text("rung").ok_or("--rung is required")?;
    let spec = TrialSpec {
        workload: workload(args)?,
        rung: Rung::parse(name).ok_or_else(|| format!("unknown rung '{name}'"))?,
        seed: args.value("seed", 1)?,
        threads: args.value("threads", sys::default_threads())?,
        scale: args.value("scale", 1.0)?,
        out_dir: PathBuf::from(args.text("out").unwrap_or("out")),
    };
    println!("{}", replay::run(&spec)?);
    Ok(0)
}

fn write(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn report(name: &str, pass: &Pass, metrics: &[nbbs_benchmark::spec::Metric]) {
    for m in metrics {
        if let Some(s) = pass.summary(&m.name) {
            eprintln!(
                "{name:<12} {:<40} {:>16.4} {:<6} q1 {:.4} q3 {:.4} n {}",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            );
        }
    }
    for e in pass.errors.iter().take(8) {
        eprintln!("{name}: {e}");
    }
}

/// One pass over one workload, as the acceptance driver runs it.
fn driver(args: &Args) -> Result<i32, String> {
    let workload = workload(args)?;
    let seed: u64 = args.value("seed", 1)?;
    let traced = args.value("trace", 0u8)? != 0;
    let mode = if args.has("quick") {
        Mode::quick()
    } else {
        Mode::window(args.value("seconds", spec().run_seconds)?)
    };
    let runner = Runner::new()?;
    let (pass, metrics) = if traced {
        (runner.per_layer(workload, seed, mode)?, &spec().per_layer)
    } else {
        (runner.end_to_end(workload, seed, mode)?, &spec().end_to_end)
    };
    report(workload.name(), &pass, metrics);
    let detail = Json::obj([
        ("environment", environment(seed, runner.threads)),
        ("workload", Json::Str(workload.name().into())),
        ("traced", Json::Bool(traced)),
        ("pass", pass.detail(metrics)),
    ]);
    let file = format!(
        "pass-{}-{seed}-trace{}.json",
        workload.name(),
        u8::from(traced)
    );
    write(&runner.out.join(file), &detail)?;
    println!("{}", pass.contract_line(metrics));
    Ok(0)
}

/// Every workload, both passes, into one result file.
fn full(args: &Args) -> Result<i32, String> {
    let seed: u64 = args.value("seed", 1)?;
    let mode = if args.has("quick") {
        Mode::quick()
    } else {
        Mode::window(args.value("seconds", spec().run_seconds)?)
    };
    let runner = Runner::new()?;
    let mut workloads = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let untraced = runner.end_to_end(workload, seed, mode)?;
        report(workload.name(), &untraced, &spec().end_to_end);
        let traced = runner.per_layer(workload, seed, mode)?;
        report(workload.name(), &traced, &spec().per_layer);
        correct &= untraced.correct() && traced.correct();
        workloads.push((
            workload.name(),
            Json::obj([
                ("end_to_end", untraced.detail(&spec().end_to_end)),
                ("per_layer", traced.detail(&spec().per_layer)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("environment", environment(seed, runner.threads)),
        ("quick", Json::Bool(args.has("quick"))),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = match args.text("result") {
        Some(path) => PathBuf::from(path),
        None => runner.out.join(format!("result-{seed}.json")),
    };
    write(&path, &doc)?;
    println!("{}", path.display());
    Ok(if correct { 0 } else { 1 })
}

fn compare_files(args: &Args) -> Result<i32, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&read(a)?, &read(b)?)?;
    print!("{}", render(&rows));
    Ok(i32::from(rows.iter().any(|r| r.verdict == Verdict::Worse)))
}

fn main() {
    let args = Args::from_env();
    let outcome = match args.words.first().map(String::as_str) {
        Some("trial") => trial(&args),
        Some("full") => full(&args),
        Some("compare") => compare_files(&args),
        Some(other) => Err(format!(
            "unknown command '{other}' (expected trial, full or compare)"
        )),
        None => driver(&args),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("nbbs-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
