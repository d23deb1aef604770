//! Shared pieces of the two `rcc-serve` workloads: the service set-up,
//! the direct-simulation twins of the correctness gate, and the per-layer
//! probes that time the service's public functions on a run's own
//! records.

use crate::report::Metrics;
use crate::stats;
use crate::{Scratch, SETUP_REPS};
use rcc_serve::journal::{encode_frame, replay_bytes};
use rcc_serve::server::{ProgressEvent, DEFAULT_QUANTUM};
use rcc_serve::store::{JobRecord, Store};
use rcc_serve::{JobSpec, Journal, Record, ResultSummary, Server, ServerConfig};
use rcc_sim::runner::try_simulate;
use rcc_sim::{Checkpoint, RunMetrics};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Service workers (fixed: the workloads are sized for one).
pub const WORKERS: usize = 1;

/// A started service and where its state lives.
pub struct Service {
    /// The in-process server.
    pub server: Server,
    /// TCP address when listening.
    pub addr: Option<SocketAddr>,
    /// Journal file.
    pub journal: PathBuf,
    /// Results directory.
    pub results: PathBuf,
}

impl Service {
    /// Starts one worker with the default quantum, a fsync'd journal and
    /// a results directory under `dir`, listening on loopback if asked.
    fn start(dir: &Path, listen: bool) -> Result<Service, String> {
        let journal = dir.join("journal.rccj");
        let results = dir.join("results");
        let server = Server::start(ServerConfig {
            workers: WORKERS,
            quantum: DEFAULT_QUANTUM,
            results_dir: Some(results.clone()),
            journal: Some(journal.clone()),
            fsync: true,
            ..ServerConfig::default()
        })?;
        let addr = if listen {
            Some(server.listen("127.0.0.1:0")?)
        } else {
            None
        };
        Ok(Service {
            server,
            addr,
            journal,
            results,
        })
    }
}

/// The timed set-up of a run: starts the service on fresh state under
/// `dir/name`, then runs `prepare` (the workload's own set-up).
pub fn set_up<T>(
    dir: &Scratch,
    name: &str,
    listen: bool,
    prepare: impl FnOnce() -> T,
) -> Result<(Service, T, f64), String> {
    let t = Instant::now();
    let svc = Service::start(&dir.join(name), listen)?;
    let prepared = prepare();
    Ok((svc, prepared, t.elapsed().as_secs_f64()))
}

/// A direct `try_simulate` of a job's spec.
pub struct Twin {
    /// What the service must have reported.
    pub summary: ResultSummary,
    /// Full metrics (the exact counters of the run).
    pub metrics: RunMetrics,
    /// Host time of the direct run.
    pub wall_s: f64,
}

/// The simulation inputs of a spec, as a memo key: host-side knobs
/// (priority, trace recording, dedup key) do not change results.
fn sim_key(spec: &JobSpec) -> String {
    let mut s = spec.clone();
    s.priority = 0;
    s.record_trace = false;
    s.dedup_key = None;
    s.to_canonical_json()
}

/// Direct twins of every distinct spec among `specs`, optionally with
/// the simulator self-profiler on.
pub struct Twins(BTreeMap<String, Result<Twin, String>>);

impl Twins {
    /// Runs the twins (outside any timed region).
    pub fn compute<'a>(specs: impl Iterator<Item = &'a str>, profile: bool) -> Twins {
        let mut twins = Twins(BTreeMap::new());
        twins.add(specs, profile);
        twins
    }

    /// Runs the twins of the specs not seen yet.
    fn add<'a>(&mut self, specs: impl Iterator<Item = &'a str>, profile: bool) {
        let map = &mut self.0;
        for text in specs {
            let Ok(spec) = JobSpec::parse(text) else {
                continue;
            };
            let key = sim_key(&spec);
            if map.contains_key(&key) {
                continue;
            }
            let (kind, cfg, wl, mut opts) = spec.inputs();
            opts.profile = profile;
            let t = Instant::now();
            let res = try_simulate(kind, &cfg, &wl, &opts);
            let wall_s = t.elapsed().as_secs_f64();
            let twin = res.map_err(|e| e.to_string()).map(|m| Twin {
                summary: ResultSummary::from_metrics(&m),
                metrics: m,
                wall_s,
            });
            map.insert(key, twin);
        }
    }

    /// Runs the twins of `specs` and, spread between them, repeats the
    /// run's set-up `SETUP_REPS - 1` more times, each on fresh state and
    /// shut down at once. Returns the twins and the median set-up time,
    /// `first` included. The repeats run after the timed window, so they
    /// cannot disturb it, yet sample the host at other moments than the
    /// first set-up did: its speed drifts on a scale of seconds.
    pub fn with_set_ups<T>(
        specs: &[&str],
        dir: &Scratch,
        name: &str,
        listen: bool,
        first: f64,
        mut prepare: impl FnMut() -> T,
    ) -> Result<(Twins, f64), String> {
        let mut twins = Twins(BTreeMap::new());
        let mut times = vec![first];
        let chunk = specs.len().div_ceil(SETUP_REPS - 1).max(1);
        for (rep, part) in specs.chunks(chunk).enumerate() {
            twins.add(part.iter().copied(), false);
            let name = format!("{name}-setup{}", rep + 1);
            let (svc, prepared, t) = set_up(dir, &name, listen, &mut prepare)?;
            std::hint::black_box(prepared);
            svc.server.shutdown()?;
            times.push(t);
        }
        Ok((twins, stats::median(&times).expect("set-up ran")))
    }

    /// The twin of a job record's spec.
    pub fn of(&self, rec: &JobRecord) -> Option<&Twin> {
        let spec = JobSpec::parse(&rec.spec_json).ok()?;
        self.0.get(&sim_key(&spec))?.as_ref().ok()
    }

    /// True when the job finished with exactly its twin's result.
    pub fn verify(&self, rec: &JobRecord) -> bool {
        let ok = rec.state == rcc_serve::JobState::Done
            && self
                .of(rec)
                .is_some_and(|t| rec.summary.as_ref() == Some(&t.summary));
        if !ok {
            eprintln!(
                "job {} ({}): {:?} {:?} differs from its direct run",
                rec.id, rec.spec_json, rec.state, rec.summary
            );
        }
        ok
    }
}

/// Engine and model counters over the finished jobs' twins, plus host
/// nanoseconds per simulated cycle of the direct runs.
pub fn set_engine_layers(x: &mut Metrics, recs: &[JobRecord], twins: &Twins, profiled: &Twins) {
    let runs: Vec<&Twin> = recs.iter().filter_map(|r| twins.of(r)).collect();
    let metrics: Vec<&RunMetrics> = runs.iter().map(|t| &t.metrics).collect();
    crate::figgrid::set_engine_counters(x, &metrics);
    let cycles: u64 = metrics.iter().map(|m| m.cycles).sum();
    let wall: f64 = runs.iter().map(|t| t.wall_s).sum();
    if cycles > 0 {
        x.set("sim.host_ns_per_cycle", wall * 1e9 / cycles as f64);
    }
    let prof: Vec<&RunMetrics> = recs
        .iter()
        .filter_map(|r| profiled.of(r))
        .map(|t| &t.metrics)
        .collect();
    crate::figgrid::set_phases(x, &prof);
}

/// Mean of `f` over `xs`, timed per element, in seconds.
fn mean_time<T>(xs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = xs
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::mean(&times)
}

/// Spec layer: mean `JobSpec::parse` time, and `JobSpec::inputs` (the
/// workload generation a worker does per job).
pub fn set_spec_layer(x: &mut Metrics, specs: &[String]) {
    x.set(
        "serve.spec.parse_us",
        mean_time(specs, |s| {
            std::hint::black_box(JobSpec::parse(s).ok());
        }) * 1e6,
    );
    let parsed: Vec<JobSpec> = specs
        .iter()
        .filter_map(|s| JobSpec::parse(s).ok())
        .collect();
    let inputs = mean_time(&parsed, |s| {
        std::hint::black_box(s.inputs());
    });
    x.set("serve.spec.inputs_ms", inputs * 1e3);
    x.set("workloads.generate_s", inputs * parsed.len() as f64);
}

/// Journal and store layers, measured on the run's own journal and
/// records.
pub fn set_storage_layers(
    x: &mut Metrics,
    svc: &Service,
    recs: &[JobRecord],
    dir: &Scratch,
) -> Result<(), String> {
    let bytes = std::fs::read(&svc.journal).map_err(|e| format!("read journal: {e}"))?;
    let records = replay_bytes(&bytes).map_err(|e| e.to_string())?.records;
    let jobs = recs.len().max(1) as f64;
    x.set("serve.journal.bytes_per_job", bytes.len() as f64 / jobs);
    x.set("serve.journal.records_per_job", records.len() as f64 / jobs);

    // Append + fsync of the same records into a fresh journal.
    let (mut journal, _) = Journal::open(
        &dir.join("append-probe.rccj"),
        true,
        None,
        Arc::new(AtomicBool::new(false)),
    )
    .map_err(|e| e.to_string())?;
    let mut appends = Vec::with_capacity(records.len());
    for r in &records {
        let t = Instant::now();
        journal.append(r).map_err(|e| e.to_string())?;
        appends.push(t.elapsed().as_secs_f64() * 1e6);
    }
    if let (Some(p50), Some(tail)) = (stats::median(&appends), stats::tail(&appends)) {
        x.set("serve.journal.append_p50_us", p50);
        x.set("serve.journal.append_tail_us", tail.value);
    }

    let store = Store::new(Some(dir.join("persist-probe")))?;
    let mut persists = Vec::with_capacity(recs.len());
    for r in recs.iter().filter(|r| r.state.terminal()) {
        let t = Instant::now();
        store.persist(r)?;
        persists.push(t.elapsed().as_secs_f64() * 1e6);
    }
    x.set("serve.store.persist_us", stats::mean(&persists));
    x.set(
        "serve.store.artifact_bytes",
        mean_file_size(&svc.results, "job-", ".json"),
    );
    x.set(
        "trace.rcct_bytes",
        mean_file_size(&svc.results, "trace-", ".rcct"),
    );
    Ok(())
}

/// Preemption layer of long jobs: slices per job, executed ÷ simulated
/// cycles counting the replay every resume does from cycle 0, and the
/// `Preempted` records of `journal` (RCCK bytes, frame bytes, and
/// `Checkpoint::decode`/`encode` throughput on those bytes).
pub fn set_preemption_layer(
    x: &mut Metrics,
    journal: &Path,
    long: &[(JobRecord, Vec<ProgressEvent>)],
) -> Result<(), String> {
    let slices: Vec<f64> = long.iter().map(|(r, _)| r.slices as f64).collect();
    x.set("sim.slices_per_job", stats::mean(&slices));
    let simulated: u64 = long
        .iter()
        .filter_map(|(r, _)| r.summary.as_ref())
        .map(|s| s.cycles)
        .sum();
    // Each preempted slice reached `cycle`; the next one replays it.
    let replayed: u64 = long
        .iter()
        .flat_map(|(_, events)| events.iter().map(|e| e.cycle))
        .sum();
    if simulated > 0 {
        x.set(
            "sim.replay_ratio",
            (simulated + replayed) as f64 / simulated as f64,
        );
    }

    let bytes = std::fs::read(journal).map_err(|e| format!("read journal: {e}"))?;
    let records = replay_bytes(&bytes).map_err(|e| e.to_string())?.records;
    let preempted: Vec<(&Record, &Vec<u8>)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Preempted { checkpoint, .. } => Some((r, checkpoint)),
            _ => None,
        })
        .collect();
    let frames: Vec<f64> = preempted
        .iter()
        .map(|(r, _)| encode_frame(&r.encode()).len() as f64)
        .collect();
    x.set("serve.journal.bytes_per_preemption", stats::mean(&frames));
    let ck_bytes: Vec<f64> = preempted.iter().map(|(_, c)| c.len() as f64).collect();
    x.set("sim.checkpoint_bytes", stats::mean(&ck_bytes));
    if !preempted.is_empty() {
        let total_mb = ck_bytes.iter().sum::<f64>() / 1e6;
        let (mut dec, mut enc) = (0.0, 0.0);
        for (_, c) in &preempted {
            let t = Instant::now();
            let ck = Checkpoint::decode(c).map_err(|e| format!("checkpoint: {e}"))?;
            dec += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(ck.encode());
            enc += t.elapsed().as_secs_f64();
        }
        x.set("sim.checkpoint_decode_mb_s", total_mb / dec);
        x.set("sim.checkpoint_encode_mb_s", total_mb / enc);
    }
    Ok(())
}

fn mean_file_size(dir: &Path, prefix: &str, suffix: &str) -> f64 {
    let sizes: Vec<f64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with(prefix) && n.ends_with(suffix)
        })
        .filter_map(|e| e.metadata().ok().map(|m| m.len() as f64))
        .collect();
    stats::mean(&sizes)
}

/// Server-side failure counters.
pub fn set_server_layer(x: &mut Metrics, svc: &Service, recs: &[JobRecord], refused: &Refusals) {
    let stats = svc.server.stats();
    x.set("serve.server.overloaded", refused.overloaded as f64);
    x.set("serve.server.rejected", refused.rejected as f64);
    x.set(
        "serve.server.retries",
        recs.iter().map(|r| f64::from(r.attempts)).sum(),
    );
    x.set(
        "serve.server.quarantined",
        recs.iter()
            .filter(|r| r.state == rcc_serve::JobState::Quarantined)
            .count() as f64,
    );
    x.set("serve.server.journal_errors", stats.journal_errors as f64);
    x.set("serve.server.store_errors", stats.store_errors as f64);
}

/// Submissions the service refused.
#[derive(Debug, Default, Clone, Copy)]
pub struct Refusals {
    /// `Overloaded` (including shed) replies.
    pub overloaded: u64,
    /// `Rejected` replies.
    pub rejected: u64,
}

/// Every job record of the service, in id order.
pub fn records(server: &Server) -> Vec<JobRecord> {
    (0..server.counts().total() as u64)
        .filter_map(|id| server.status(id))
        .collect()
}
