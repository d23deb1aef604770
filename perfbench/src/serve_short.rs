//! `serve-short`: a closed loop of [`CLIENTS`] clients, each on its own
//! loopback TCP connection to `Server::listen` (one worker, fsync'd
//! journal, results directory). Each client sends `submit`, then
//! `watch` until the terminal line, then submits again — what
//! `rcc-repro submit --watch` does. Every job is quick-scale and
//! finishes in one quantum, so per-job service overhead dominates: wire
//! framing, spec validation, journal records, artifact and trace writes.
//!
//! Long jobs are the quick-scale bench jobs, short jobs the litmus jobs.
//! Latency runs from writing the `submit` frame to reading the terminal
//! `watch` line. The traced run also probes the preemption layer with a
//! batch of standard-scale jobs on a separate service.

use crate::loadgen::{self, Class};
use crate::report::Metrics;
use crate::serve::{self, Refusals, Service, Twins};
use crate::{stats, Outcome, Scratch};
use rcc_obs::json::{self, JsonValue};
use rcc_serve::store::JobRecord;
use rcc_serve::{JobState, Submission};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients, one TCP connection each.
pub const CLIENTS: usize = 2;
/// `status` round trips the traced run probes.
const STATUS_PROBES: usize = 100;
/// How often the traced run's observer polls job states.
const POLL: Duration = Duration::from_micros(200);

/// One job as a client saw it.
struct JobObs {
    class: Class,
    spec: String,
    id: Option<u64>,
    /// `submit` written → reply read.
    submit_rtt_s: f64,
    /// `submit` written → terminal `watch` line read.
    latency_s: f64,
    /// When the terminal line arrived, from the start of the run.
    end_s: f64,
    /// The terminal line said `done`.
    done: bool,
}

/// A line-delimited JSON connection; each frame goes out in one write.
struct Conn {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(out.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { out, reader })
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        self.out
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<JsonValue, String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if line.is_empty() {
            return Err("server closed the connection".into());
        }
        json::parse(line.trim_end())
    }
}

fn submit_frame(spec: &str) -> String {
    format!("{{\"cmd\": \"submit\", \"spec\": {spec}}}\n")
}

fn job_frame(cmd: &str, id: u64) -> String {
    format!("{{\"cmd\": \"{cmd}\", \"job\": {id}}}\n")
}

fn client(
    addr: SocketAddr,
    jobs: &[(Class, String)],
    start: Instant,
    seconds: f64,
) -> Result<(Vec<JobObs>, Refusals), String> {
    let mut conn = Conn::open(addr)?;
    let mut seen = Vec::new();
    let mut refused = Refusals::default();
    for (class, spec) in jobs.iter().cycle() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (class, spec) = (*class, spec.clone());
        let t0 = Instant::now();
        conn.send(&submit_frame(&spec))?;
        let reply = conn.recv()?;
        let submit_rtt_s = t0.elapsed().as_secs_f64();
        let id = reply.get("job").and_then(JsonValue::as_u64);
        let mut done = false;
        if let Some(id) = id {
            conn.send(&job_frame("watch", id))?;
            loop {
                let line = conn.recv()?;
                if let Some(state) = line.get("state").and_then(JsonValue::as_str) {
                    done = state == "done";
                    if matches!(state, "done" | "failed" | "quarantined") {
                        break;
                    }
                } else if line.get("ok").and_then(JsonValue::as_bool) == Some(false) {
                    break;
                }
            }
        } else {
            let kind = reply
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str);
            match kind {
                Some("overloaded" | "shed") => refused.overloaded += 1,
                _ => refused.rejected += 1,
            }
        }
        seen.push(JobObs {
            class,
            spec,
            id,
            submit_rtt_s,
            latency_s: t0.elapsed().as_secs_f64(),
            end_s: start.elapsed().as_secs_f64(),
            done,
        });
    }
    Ok((seen, refused))
}

/// What one run of the closed loop measured.
struct Measured {
    setup_s: f64,
    jobs: Vec<JobObs>,
    refused: Refusals,
    /// First seen → first observed `Running` (traced runs only).
    waits_s: Vec<f64>,
    window_s: f64,
    rss_mb: f64,
    recs: Vec<JobRecord>,
    svc: Service,
}

/// Polls every job's state until `finished` reaches [`CLIENTS`]; returns
/// first-seen → first-`Running` waits.
fn observe_waits(svc: &Service, finished: &AtomicUsize) -> Vec<f64> {
    let start = Instant::now();
    let mut seen: BTreeMap<u64, f64> = BTreeMap::new();
    let mut waits = Vec::new();
    let mut next_id = 0u64;
    while finished.load(Ordering::SeqCst) < CLIENTS {
        let total = svc.server.counts().total() as u64;
        let t = start.elapsed().as_secs_f64();
        for id in next_id..total {
            seen.insert(id, t);
        }
        next_id = next_id.max(total);
        seen.retain(|&id, first| match svc.server.status(id).map(|r| r.state) {
            Some(JobState::Queued) => true,
            Some(JobState::Running) => {
                waits.push(start.elapsed().as_secs_f64() - *first);
                false
            }
            _ => false,
        });
        std::thread::sleep(POLL);
    }
    waits
}

/// The workload's own set-up: generate every client's job sequence and
/// validate every spec in it.
fn prepare(seed: u64, seconds: f64) -> Vec<Vec<(Class, String)>> {
    (0..CLIENTS as u64)
        .map(|c| {
            let jobs = loadgen::client_jobs(seed, c, seconds);
            for (_, spec) in &jobs {
                std::hint::black_box(rcc_serve::JobSpec::parse(spec).ok());
            }
            jobs
        })
        .collect()
}

fn measure(
    seed: u64,
    seconds: f64,
    dir: &Scratch,
    name: &str,
    traced: bool,
) -> Result<Measured, String> {
    let (svc, streams, setup_s) = serve::set_up(dir, name, true, || prepare(seed, seconds))?;
    let addr = svc.addr.expect("the service listens");
    let finished = AtomicUsize::new(0);
    let start = Instant::now();
    let (results, waits_s) = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|jobs| {
                let finished = &finished;
                s.spawn(move || {
                    let r = client(addr, jobs, start, seconds);
                    finished.fetch_add(1, Ordering::SeqCst);
                    r
                })
            })
            .collect();
        let waits = if traced {
            observe_waits(&svc, &finished)
        } else {
            Vec::new()
        };
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect();
        (results, waits)
    });
    let rss_mb = crate::peak_rss_mb();
    let mut jobs = Vec::new();
    let mut refused = Refusals::default();
    for r in results {
        let (seen, r) = r?;
        jobs.extend(seen);
        refused.overloaded += r.overloaded;
        refused.rejected += r.rejected;
    }
    let window_s = jobs.iter().fold(0.0f64, |a, j| a.max(j.end_s));
    let recs = serve::records(&svc.server);
    Ok(Measured {
        setup_s,
        jobs,
        refused,
        waits_s,
        window_s,
        rss_mb,
        recs,
        svc,
    })
}

impl Measured {
    fn latencies(&self, class: Class) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| j.class == class && j.done)
            .map(|j| j.latency_s)
            .collect()
    }

    fn done(&self) -> usize {
        self.jobs.iter().filter(|j| j.done).count()
    }

    /// Jobs that failed, each counted once (see [`count_failed`]).
    fn failures(&self, twins: &Twins) -> u64 {
        let bad: BTreeSet<u64> = self
            .recs
            .iter()
            .filter(|r| !twins.verify(r))
            .map(|r| r.id)
            .collect();
        count_failed(&self.jobs, &bad)
    }

    fn specs(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.spec.clone()).collect()
    }

    fn cycles(&self) -> u64 {
        self.recs
            .iter()
            .filter_map(|r| r.summary.as_ref())
            .map(|s| s.cycles)
            .sum()
    }
}

/// Jobs refused, not `done` on the wire, or whose job id is in `bad`
/// (its record differs from its direct twin's). A job that is several of
/// these counts once, so the result never exceeds `jobs.len()`.
fn count_failed(jobs: &[JobObs], bad: &BTreeSet<u64>) -> u64 {
    jobs.iter()
        .filter(|j| !j.done || j.id.is_some_and(|id| bad.contains(&id)))
        .count() as u64
}

/// `status` round trips on a fresh connection, in milliseconds.
fn status_rtts(addr: SocketAddr, jobs: u64) -> Result<Vec<f64>, String> {
    let mut conn = Conn::open(addr)?;
    (0..jobs.min(STATUS_PROBES as u64))
        .map(|id| {
            let t = Instant::now();
            conn.send(&job_frame("status", id))?;
            conn.recv()?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Mean `wire::parse_request` time over the frames the clients sent.
fn parse_request_us(m: &Measured) -> f64 {
    let frames: Vec<String> = m
        .jobs
        .iter()
        .flat_map(|j| {
            let watch = j.id.map(|id| job_frame("watch", id));
            std::iter::once(submit_frame(&j.spec)).chain(watch)
        })
        .collect();
    let t = Instant::now();
    for f in &frames {
        std::hint::black_box(rcc_serve::wire::parse_request(f.trim_end()).ok());
    }
    t.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Scratch) -> Result<Outcome, String> {
    let m = measure(seed, seconds, dir, "untraced", false)?;
    m.svc.server.shutdown()?;
    let specs: Vec<&str> = m.jobs.iter().map(|j| j.spec.as_str()).collect();
    let (twins, setup_s) = Twins::with_set_ups(&specs, dir, "untraced", true, m.setup_s, || {
        prepare(seed, seconds)
    })?;
    let mut out = Outcome::new(m.jobs.len() as u64, m.failures(&twins));
    out.param("workers", serve::WORKERS as f64);
    out.param("clients", CLIENTS as f64);
    out.param("connections", CLIENTS as f64);
    out.param("trace_percent", crate::loadgen::TRACE_PERCENT as f64);
    if !trace {
        let x = &mut out.metrics;
        x.set("setup_s", setup_s);
        x.set("sim_cycles_per_s", m.cycles() as f64 / m.window_s);
        x.set("jobs_per_s", m.done() as f64 / m.window_s);
        x.set("peak_rss_mb", m.rss_mb);
        out.latency("long", &m.latencies(Class::Long));
        out.latency("short", &m.latencies(Class::Short));
        return Ok(out);
    }

    let t = measure(seed, seconds, dir, "traced", true)?;
    let addr = t.svc.addr.expect("the service listens");
    let status = status_rtts(addr, t.recs.len() as u64)?;
    t.svc.server.shutdown()?;
    let twins = Twins::compute(t.jobs.iter().map(|j| j.spec.as_str()), false);
    let profiled = Twins::compute(t.jobs.iter().map(|j| j.spec.as_str()), true);
    out.attempted += t.jobs.len() as u64;
    out.failed += t.failures(&twins);
    let x = &mut out.metrics;
    serve::set_engine_layers(x, &t.recs, &twins, &profiled);
    serve::set_spec_layer(x, &t.specs());
    serve::set_storage_layers(x, &t.svc, &t.recs, dir)?;
    serve::set_server_layer(x, &t.svc, &t.recs, &t.refused);
    let rtts: Vec<f64> = t.jobs.iter().map(|j| j.submit_rtt_s * 1e3).collect();
    x.set(
        "serve.wire.submit_rtt_p50_ms",
        stats::median(&rtts).unwrap_or(0.0),
    );
    x.set(
        "serve.wire.status_rtt_p50_ms",
        stats::median(&status).unwrap_or(0.0),
    );
    x.set("serve.wire.parse_request_us", parse_request_us(&t));
    // Time per finished job, traced against untraced.
    let per_job = |m: &Measured| m.window_s / m.done().max(1) as f64;
    x.set("bench.trace_overhead", per_job(&t) / per_job(&m));
    out.percentiles(
        "serve.queue.wait_p50_s",
        "serve.queue.wait_tail_s",
        &t.waits_s,
    );
    let (attempted, failed) = preemption_probe(&mut out.metrics, dir, seed)?;
    out.attempted += attempted;
    out.failed += failed;
    Ok(out)
}

/// The preemption layer, which the closed loop never exercises: submits
/// the long jobs of `loadgen::long_specs` (standard scale, 8 cores, 5–7
/// quanta each) together to a fresh service and measures their slices,
/// replay and journaled checkpoints. Returns (attempted, failed); every
/// job must finish with its direct twin's result.
fn preemption_probe(x: &mut Metrics, dir: &Scratch, seed: u64) -> Result<(u64, u64), String> {
    let (svc, specs, _) = serve::set_up(dir, "preempt", false, || loadgen::long_specs(seed))?;
    let ids: Vec<u64> = specs
        .iter()
        .filter_map(|s| match svc.server.submit_json(s) {
            Submission::Accepted { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    let long: Vec<_> = ids
        .iter()
        .filter_map(|&id| Some((svc.server.wait(id)?, svc.server.progress(id)?)))
        .collect();
    svc.server.shutdown()?;
    serve::set_preemption_layer(x, &svc.journal, &long)?;
    let twins = Twins::compute(specs.iter().map(String::as_str), false);
    let bad = long.iter().filter(|(r, _)| !twins.verify(r)).count();
    let failed = specs.len() - long.len() + bad;
    Ok((specs.len() as u64, failed as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: Option<u64>, done: bool) -> JobObs {
        JobObs {
            class: Class::Short,
            spec: String::new(),
            id,
            submit_rtt_s: 0.0,
            latency_s: 0.0,
            end_s: 0.0,
            done,
        }
    }

    #[test]
    fn each_failed_job_counts_once() {
        let jobs = [
            job(None, false),    // refused
            job(Some(1), false), // ended `failed`; its record fails too
            job(Some(2), true),  // good
            job(Some(3), true),  // `done`, but its result differs
        ];
        let bad = BTreeSet::from([1, 3]);
        let failed = count_failed(&jobs, &bad);
        assert_eq!(failed, 3);
        assert!(failed <= jobs.len() as u64);
        assert_eq!(count_failed(&jobs[2..3], &bad), 0);
    }
}
