//! The metric catalog, the host fingerprint, and the report writers.
//!
//! A run prints two JSON lines on stdout: the full report (fingerprint,
//! parameters, sample counts and tail percentiles; validated against
//! `schema/report.schema.json`) and, last, the summary line
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Reported name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("sim_cycles_per_s", "1/s", Higher),
    m("jobs_per_s", "1/s", Higher),
    m("long_p50_s", "s", Lower),
    m("long_tail_s", "s", Lower),
    m("short_p50_s", "s", Lower),
    m("short_tail_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("ok_frac", "ratio", Higher),
];

/// Per-layer metrics, reported by every traced run of every workload
/// (0 where the layer does no work on that workload).
pub const PER_LAYER: &[MetricDef] = &[
    // Engine host time.
    m("workloads.generate_s", "s", Lower),
    m("sim.host_ns_per_cycle", "ns", Lower),
    m("sim.phase.core_s", "s", Lower),
    m("sim.phase.l1_s", "s", Lower),
    m("sim.phase.l2_s", "s", Lower),
    m("sim.phase.noc_s", "s", Lower),
    m("sim.phase.dram_s", "s", Lower),
    m("sim.phase.rollover_s", "s", Lower),
    m("sim.phase.fast_forward_s", "s", Lower),
    // Engine work counters (exact).
    m("sim.cycles", "cycles", Lower),
    m("sim.skip_ratio", "ratio", Higher),
    m("sim.ff_jumps", "count", Lower),
    m("sim.events_posted", "count", Lower),
    m("sim.events_cancelled", "count", Lower),
    m("sim.queue_depth_max", "count", Lower),
    // Model counters (exact, simulated).
    m("gpu.issued", "count", Lower),
    m("gpu.mem_ops", "count", Lower),
    m("gpu.sc_stall_cycles", "cycles", Lower),
    m("core.l1_loads", "count", Lower),
    m("core.l1_load_hits", "count", Higher),
    m("core.l1_expired_loads", "count", Lower),
    m("core.l1_renewed_loads", "count", Higher),
    m("core.l2_gets", "count", Lower),
    m("core.l2_renews_granted", "count", Higher),
    m("core.l2_store_stall_cycles", "cycles", Lower),
    m("noc.flits", "count", Lower),
    m("dram.reads", "count", Lower),
    m("dram.writes", "count", Lower),
    m("sim.rollovers", "count", Lower),
    m("model.rcc_speedup_inter_gmean", "x", Higher),
    // Preemption.
    m("sim.slices_per_job", "count", Lower),
    m("sim.replay_ratio", "ratio", Lower),
    m("sim.checkpoint_bytes", "B", Lower),
    m("sim.checkpoint_encode_mb_s", "MB/s", Higher),
    m("sim.checkpoint_decode_mb_s", "MB/s", Higher),
    // Journal and store.
    m("serve.journal.bytes_per_job", "B", Lower),
    m("serve.journal.bytes_per_preemption", "B", Lower),
    m("serve.journal.records_per_job", "count", Lower),
    m("serve.journal.append_p50_us", "us", Lower),
    m("serve.journal.append_tail_us", "us", Lower),
    m("serve.store.persist_us", "us", Lower),
    m("serve.store.artifact_bytes", "B", Lower),
    m("trace.rcct_bytes", "B", Lower),
    // Wire.
    m("serve.wire.submit_rtt_p50_ms", "ms", Lower),
    m("serve.wire.status_rtt_p50_ms", "ms", Lower),
    m("serve.wire.parse_request_us", "us", Lower),
    // Spec, queue, server.
    m("serve.spec.parse_us", "us", Lower),
    m("serve.spec.inputs_ms", "ms", Lower),
    m("serve.queue.wait_p50_s", "s", Lower),
    m("serve.queue.wait_tail_s", "s", Lower),
    m("serve.server.overloaded", "count", Lower),
    m("serve.server.rejected", "count", Lower),
    m("serve.server.retries", "count", Lower),
    m("serve.server.quarantined", "count", Lower),
    m("serve.server.journal_errors", "count", Lower),
    m("serve.server.store_errors", "count", Lower),
    m("bench.trace_overhead", "x", Lower),
];

/// Sample count and tail percentile behind a reported timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleInfo {
    /// The metric the samples back.
    pub metric: String,
    /// Sample count.
    pub n: usize,
    /// Percentile of a tail metric (50 for a median).
    pub percentile: f64,
}

/// Where the benchmark ran: wall-clock metrics compare only between
/// equal fingerprints; exact counters compare anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Available parallelism.
    pub nproc: usize,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Cargo build profile.
    pub profile: String,
    /// Git commit of the checkout, when it is a git work tree.
    pub commit: Option<String>,
    /// FNV-1a digest of the sources the benchmark builds (`Cargo.*`,
    /// `crates/`, `perfbench/`), which identifies the code where there
    /// is no git metadata.
    pub source_digest: String,
}

impl Fingerprint {
    /// Fingerprints this host and the checkout rooted at `root`.
    pub fn probe(root: &Path) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            commit: git_commit(root),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": {}, \"nproc\": {}, \"rustc\": {}, \"profile\": {}, \
             \"commit\": {}, \"source_digest\": {}}}",
            json_str(&self.cpu_model),
            self.nproc,
            json_str(&self.rustc),
            json_str(&self.profile),
            self.commit.as_deref().map_or("null".into(), json_str),
            json_str(&self.source_digest),
        )
    }
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    collect_files(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h = fnv(h, rel.to_string_lossy().as_bytes());
            h = fnv(h, &bytes);
        }
    }
    h
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for a measured value: every digit `f64` holds.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end to end).
    pub trace: bool,
    /// Operations attempted (grid cells or jobs).
    pub attempted: u64,
    /// Operations failed, rejected, unfinished or mismatched.
    pub failed: u64,
    /// Metric values by name, in catalog order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Sample counts and percentiles behind the timings.
    pub samples: Vec<SampleInfo>,
    /// Workload parameters (rates, counts, thread/worker counts).
    pub params: Vec<(String, f64)>,
    /// Host fingerprint.
    pub fingerprint: Fingerprint,
}

impl Report {
    /// True when every output matched its reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The full report document.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"schema\": \"perfbench-report/1\", \"workload\": {}, \"seed\": {}, \
             \"seconds\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"fingerprint\": {}, \"metrics\": [",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            self.fingerprint.to_json()
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": {}}}",
                if i > 0 { ", " } else { "" },
                json_str(d.name),
                json_num(*v),
                json_str(d.unit),
                json_str(d.better.label())
            );
        }
        s.push_str("], \"samples\": [");
        for (i, x) in self.samples.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"metric\": {}, \"n\": {}, \"percentile\": {}}}",
                if i > 0 { ", " } else { "" },
                json_str(&x.metric),
                x.n,
                json_num(x.percentile)
            );
        }
        s.push_str("], \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {}",
                if i > 0 { ", " } else { "" },
                json_str(k),
                json_num(*v)
            );
        }
        s.push_str("}}");
        s
    }

    /// The summary line the benchmark ends its output with.
    pub fn summary_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                json_str(d.name),
                json_num(*v),
                json_str(d.unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// Checks the report against its schema and the catalog: the run
    /// must carry exactly the catalog's metrics for its mode, and the
    /// end-to-end ones must be positive.
    pub fn validate(&self) -> Result<(), String> {
        let schema = rcc_obs::json::parse(SCHEMA).map_err(|e| format!("report schema: {e}"))?;
        let doc = rcc_obs::json::parse(&self.to_json()).map_err(|e| format!("report: {e}"))?;
        let errors = rcc_obs::schema::validate(&schema, &doc);
        if !errors.is_empty() {
            return Err(errors.join("; "));
        }
        let want = if self.trace { PER_LAYER } else { END_TO_END };
        let got: Vec<&str> = self.metrics.iter().map(|(d, _)| d.name).collect();
        let names: Vec<&str> = want.iter().map(|d| d.name).collect();
        if got != names {
            return Err(format!("metrics {got:?} differ from the catalog {names:?}"));
        }
        if !self.trace {
            // ok_frac may reach 0 (everything failed); every other
            // end-to-end metric is positive on a run that measured.
            let zero = self
                .metrics
                .iter()
                .find(|(d, v)| *v <= 0.0 && d.name != "ok_frac");
            if let Some((d, v)) = zero {
                return Err(format!("end-to-end metric {} is {v}", d.name));
            }
        }
        Ok(())
    }
}

/// The report schema (`schema/report.schema.json`).
pub const SCHEMA: &str = include_str!("../schema/report.schema.json");

/// Collects metric values by name and orders them as the catalog does.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `name = value` (later values replace earlier ones).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The catalog's metrics for one mode, in catalog order; metrics not
    /// recorded read 0 (the layer did no work).
    pub fn ordered(&self, catalog: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        catalog
            .iter()
            .map(|d| (d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_obs::json::JsonValue;

    /// Reads a JSON file's `end_to_end`/`per_layer` entries as
    /// `(name, unit, better)` triples (for the catalog test).
    fn benchmark_entries(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                let f = |k: &str| {
                    e.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    }

    fn sample(trace: bool) -> Report {
        let mut m = Metrics::default();
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        for (i, d) in catalog.iter().enumerate() {
            m.set(d.name, 0.5 + i as f64);
        }
        Report {
            workload: "figgrid".into(),
            seed: 3,
            seconds: 20,
            trace,
            attempted: 48,
            failed: 0,
            metrics: m.ordered(catalog),
            samples: vec![SampleInfo {
                metric: "long_tail_s".into(),
                n: 48,
                percentile: 79.16666666666667,
            }],
            params: vec![("workers".into(), 1.0)],
            fingerprint: Fingerprint {
                cpu_model: "test \"cpu\"".into(),
                nproc: 2,
                rustc: "rustc 1.0".into(),
                profile: "release".into(),
                commit: None,
                source_digest: "0123456789abcdef".into(),
            },
        }
    }

    #[test]
    fn report_validates_against_its_schema() {
        for trace in [false, true] {
            let r = sample(trace);
            r.validate().expect("sample report is valid");
            let summary = rcc_obs::json::parse(&r.summary_line()).expect("summary is JSON");
            let keys: Vec<&String> = summary.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = summary.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), r.metrics.len());
            assert!(metrics
                .values()
                .all(|v| v.get("value").and_then(JsonValue::as_f64).is_some()
                    && v.get("unit").and_then(JsonValue::as_str).is_some()));
        }
    }

    #[test]
    fn malformed_reports_fail_validation() {
        let schema = rcc_obs::json::parse(SCHEMA).unwrap();
        let doc = rcc_obs::json::parse(&sample(false).to_json()).unwrap();
        let JsonValue::Obj(mut obj) = doc else {
            panic!("report is an object")
        };
        obj.remove("fingerprint");
        assert!(!rcc_obs::schema::validate(&schema, &JsonValue::Obj(obj)).is_empty());

        let mut r = sample(false);
        r.metrics.pop();
        assert!(r.validate().is_err(), "a missing metric is caught");
        let mut r = sample(false);
        r.metrics[0].1 = 0.0;
        assert!(r.validate().is_err(), "a zero end-to-end metric is caught");
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json sits at the repository root");
        let doc = rcc_obs::json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String, String)> = catalog
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.label().into()))
                .collect();
            assert_eq!(benchmark_entries(&doc, key), want, "{key}");
        }
    }
}
