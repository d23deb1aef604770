#![forbid(unsafe_code)]
//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figgrid|serve-short> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) prints
//! the end-to-end metrics; a traced run (`--trace 1`) repeats the
//! workload with the self-profiler and the benchmark's own call timers on
//! and prints the per-layer metrics. See `perfbench/README.md`.

mod figgrid;
mod loadgen;
mod report;
mod serve;
mod serve_short;
mod stats;

use report::{Fingerprint, Metrics, Report, SampleInfo, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["figgrid", "serve-short"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Where runs keep their reports and scratch files, relative to the
/// repository root.
const OUT_DIR: &str = ".perfbench";

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, rejected, unfinished or mismatched.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
    /// Sample counts behind timings.
    pub samples: Vec<SampleInfo>,
    /// Workload parameters.
    pub params: Vec<(String, f64)>,
}

impl Outcome {
    /// An outcome with these counts and nothing measured yet.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// Records a workload parameter.
    pub fn param(&mut self, name: &str, value: f64) {
        self.params.push((name.to_string(), value));
    }

    /// Records `<class>_p50_s` and `<class>_tail_s` from latency samples
    /// (seconds). Too few samples for a tail leave both unset, which the
    /// report check then rejects.
    pub fn latency(&mut self, class: &str, xs: &[f64]) {
        let (p50, tail) = match class {
            "long" => ("long_p50_s", "long_tail_s"),
            _ => ("short_p50_s", "short_tail_s"),
        };
        self.percentiles(p50, tail, xs);
    }

    /// Records the median and tail of `xs` under two metric names, with
    /// their sample counts.
    pub fn percentiles(&mut self, p50: &'static str, tail: &'static str, xs: &[f64]) {
        let Some(t) = stats::tail(xs) else {
            eprintln!("{tail}: {} samples are too few for a tail", xs.len());
            return;
        };
        let median = stats::median(xs).expect("a tail implies samples");
        self.metrics.set(p50, median);
        self.metrics.set(tail, t.value);
        self.samples.push(SampleInfo {
            metric: p50.to_string(),
            n: t.n,
            percentile: 50.0,
        });
        self.samples.push(SampleInfo {
            metric: tail.to_string(),
            n: t.n,
            percentile: t.percentile,
        });
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh scratch directory for one run's service state, removed when
/// dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Scratch> {
        let dir = Path::new(OUT_DIR)
            .join("tmp")
            .join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A path inside the scratch directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <figgrid|serve-short> --seed N \
                     --seconds S --trace <0|1>\n       perfbench --record-golden SEEDS";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let secs = args.seconds as f64;
    let mut out = match args.workload.as_str() {
        "figgrid" => figgrid::run(args.seed, secs, args.trace),
        _ => {
            let dir = Scratch::new(&args.workload).map_err(|e| e.to_string())?;
            serve_short::run(args.seed, secs, args.trace, &dir)?
        }
    };
    if !args.trace {
        let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
        out.metrics.set("ok_frac", ok);
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let report = Report {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted: out.attempted,
        failed: out.failed,
        metrics: out
            .metrics
            .ordered(if args.trace { PER_LAYER } else { END_TO_END }),
        samples: out.samples,
        params: out.params,
        fingerprint: Fingerprint::probe(&root),
    };
    report.validate()?;
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--record-golden") {
        let Some(seeds) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        print!("{}", figgrid::record_golden(seeds, threads));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = report.to_json();
    let reports = Path::new(OUT_DIR).join("reports");
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(&reports).and_then(|()| std::fs::write(reports.join(name), &doc))
    {
        eprintln!("perfbench: cannot write the report: {e}");
        return ExitCode::FAILURE;
    }
    println!("{doc}");
    println!("{}", report.summary_line());
    ExitCode::SUCCESS
}
