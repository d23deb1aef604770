//! Protocol dispatch, run options, and checkpoint/resume orchestration.

use crate::checkpoint::Checkpoint;
use crate::error::SimError;
use crate::metrics::RunMetrics;
use crate::system::System;
use rcc_common::config::GpuConfig;
use rcc_core::protocol::Protocol;
use rcc_core::ProtocolKind;
use rcc_workloads::Workload;

/// Options for a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Verify the execution with the SC scoreboard. Only applied to
    /// protocols that claim SC support — TC-Weak and RCC-WO are weakly
    /// ordered by design and SC-IDEAL is a performance idealization.
    pub check_sc: bool,
    /// Attach the runtime SC sanitizer (`rcc-verify`): record every
    /// access and, at the end of the run, check that an SC total order
    /// explains the observed values (po ∪ rf ∪ co ∪ fr acyclicity). The
    /// verdict lands in [`RunMetrics::sanitizer_sc`]; for SC-capable
    /// protocols a non-SC verdict is a [`SimError::SanitizerViolation`].
    pub sanitize: bool,
    /// Abort with [`SimError::CyclesExceeded`] if the run exceeds this
    /// many cycles.
    pub max_cycles: u64,
    /// Fast-forward over provably idle cycles (on by default; results
    /// are bit-identical either way — see DESIGN.md, "Simulation
    /// performance").
    pub fast_forward: bool,
    /// Deterministic perturbation injection (see `rcc-chaos` and
    /// DESIGN.md, "Perturbation testing"). `None` — the default — arms
    /// nothing and leaves the run bit-identical to a build without the
    /// chaos subsystem.
    pub chaos: Option<rcc_chaos::ChaosSpec>,
    /// Record a time-series sample every this many cycles (0 — the
    /// default — disables sampling). The sampled series lands in
    /// [`RunMetrics::obs`]. Observation is passive: simulated results
    /// are bit-identical with sampling on or off.
    pub sample_every: u64,
    /// Record structured trace events (Chrome-trace/Perfetto export; see
    /// `rcc-obs`). The trace lands in [`RunMetrics::obs`].
    pub trace: bool,
    /// Profile the simulator itself: per-phase wall-clock attribution in
    /// [`RunMetrics::profile`]. Host-machine measurement only.
    pub profile: bool,
    /// Write a checkpoint every this many cycles (0 — the default —
    /// disables periodic checkpointing). Requires [`SimOptions::checkpoint`]
    /// to name the file; each boundary overwrites the previous snapshot,
    /// so the file always holds the latest one. Checkpointing is passive:
    /// results are bit-identical with it on or off.
    pub checkpoint_every: u64,
    /// Checkpoint file path. Periodic snapshots (see
    /// [`SimOptions::checkpoint_every`]) land here, and if the watchdog
    /// fires an auto-checkpoint of the hung state is written next to it
    /// (`<path>.hang`) for forensic replay. A JSON manifest sidecar
    /// (`<path>.manifest.json`) accompanies every snapshot.
    pub checkpoint: Option<String>,
    /// Record the run's per-warp memory-access trace (issue cycles at
    /// program-op granularity) and write it to this path as an RCCT
    /// binary, with a JSON manifest sidecar (`<path>.manifest.json`).
    /// Recording is passive: simulated results are bit-identical with it
    /// on or off, and — like [`SimOptions::checkpoint`] — the path is
    /// host-local state that checkpoints do not carry (a resumed run
    /// does not re-record, so a recording run ignores
    /// [`SimOptions::quantum`] and finishes in one slice).
    pub record_trace: Option<String>,
    /// Cooperative-preemption quantum in cycles for the slice entry
    /// points ([`try_simulate_slice`] / [`resume_slice`]): a slice runs
    /// at most this many cycles past its starting point, then yields an
    /// in-memory [`Checkpoint`] instead of finishing. `0` — the default —
    /// runs to completion. Like `checkpoint_every`, this is host-side
    /// scheduling state: it cannot affect simulated results (the resumed
    /// run is digest-verified bit-identical by construction) and is not
    /// serialized into on-disk checkpoints.
    pub quantum: u64,
}

impl SimOptions {
    /// Default options: no checking, generous cycle budget.
    pub fn fast() -> Self {
        SimOptions {
            check_sc: false,
            sanitize: false,
            max_cycles: 200_000_000,
            fast_forward: true,
            chaos: None,
            sample_every: 0,
            trace: false,
            profile: false,
            checkpoint_every: 0,
            checkpoint: None,
            record_trace: None,
            quantum: 0,
        }
    }

    /// Fast options plus full observation (sampling at `every` cycles,
    /// trace recording, self-profiling).
    pub fn observed(every: u64) -> Self {
        SimOptions {
            sample_every: every,
            trace: true,
            profile: true,
            ..SimOptions::fast()
        }
    }

    /// Checked options for tests.
    pub fn checked() -> Self {
        SimOptions {
            check_sc: true,
            ..SimOptions::fast()
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::fast()
    }
}

/// Replay target for a resumed run: the checkpointed cycle and the state
/// digest the replayed machine must match bit-for-bit.
#[derive(Debug, Clone, Copy)]
struct ReplayTo {
    cycle: u64,
    state_digest: u64,
}

/// Resume: replays to the checkpointed cycle, then proves the rebuilt
/// machine is the checkpointed machine before running on. A mismatch
/// means the binary, config, or workload no longer reproduces the
/// original history — continuing would silently diverge, so it is a
/// typed error instead.
fn replay_to<P: Protocol>(system: &mut System<P>, target: ReplayTo) -> Result<(), SimError> {
    system.run_until(target.cycle)?;
    let digest = system.state_digest();
    if digest != target.state_digest {
        return Err(SimError::Checkpoint(format!(
            "state digest mismatch after replay to cycle {}: \
             checkpoint has {:016x}, replay produced {digest:016x}",
            target.cycle, target.state_digest
        )));
    }
    Ok(())
}

/// The one function behind every run entry point. It replays to `replay`
/// first when resuming, writes periodic checkpoints when `opts` asks for
/// them, and yields [`SliceOutcome::Preempted`] once `quantum` cycles
/// (0 = never) have run past its starting point. A run that records a
/// trace is never preempted: a resumed run does not re-record, so the
/// recording has to cover the whole run in one slice.
fn run<P: Protocol>(
    protocol: &P,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
    replay: Option<ReplayTo>,
    quantum: u64,
) -> Result<SliceOutcome, SimError> {
    let kind = protocol.kind();
    let check = opts.check_sc && kind.supports_sc();
    let mut system = System::new(protocol, cfg, workload, check);
    system.discard_load_log();
    system.set_fast_forward(opts.fast_forward);
    if let Some(spec) = &opts.chaos {
        system.set_chaos(spec);
    }
    if opts.sanitize {
        system.enable_sanitizer();
    }
    if opts.sample_every > 0 || opts.trace {
        system.set_observer(rcc_obs::ObsConfig {
            sample_every: opts.sample_every,
            trace: opts.trace,
            max_trace_events: 1_000_000,
        });
    }
    system.set_profiling(opts.profile);
    let recording = opts.record_trace.is_some() && replay.is_none();
    if recording {
        system.set_trace_recorder(rcc_trace::TraceRecorder::new(workload));
    }

    let outcome = (|| {
        if let Some(target) = replay {
            replay_to(&mut system, target)?;
        }
        let yield_at = if quantum == 0 || recording {
            u64::MAX
        } else {
            system.cycle().raw().saturating_add(quantum)
        };
        if let (true, Some(path)) = (opts.checkpoint_every > 0, &opts.checkpoint) {
            let mut boundary = opts.checkpoint_every.max(system.cycle().raw() + 1);
            while !system.done() && boundary < yield_at.min(opts.max_cycles) {
                system.run_until(boundary)?;
                if system.done() {
                    break;
                }
                checkpoint_now(&system, kind, cfg, workload, opts).save(path)?;
                boundary += opts.checkpoint_every;
            }
        }
        if yield_at < opts.max_cycles {
            system.run_until(yield_at)?;
            if !system.done() {
                let partial = system.metrics();
                return Ok(SliceOutcome::Preempted {
                    ck: Box::new(checkpoint_now(&system, kind, cfg, workload, opts)),
                    progress: Box::new(SliceProgress {
                        cycle: partial.cycles,
                        issued: partial.core.issued,
                        mem_ops: partial.core.mem_ops,
                        obs: system.take_observation(),
                    }),
                });
            }
        }
        let mut metrics = system.run(opts.max_cycles)?;
        metrics.obs = system.take_observation();
        if let (Some(path), Some(rec)) = (&opts.record_trace, system.take_trace_recorder()) {
            let trace = rec.finish(&kind.to_string(), metrics.cycles);
            trace
                .save(path)
                .map_err(|e| SimError::Trace(e.to_string()))?;
            let manifest = format!("{path}.manifest.json");
            std::fs::write(&manifest, trace.manifest_json())
                .map_err(|e| SimError::Trace(format!("{manifest}: {e}")))?;
        }
        Ok(SliceOutcome::Finished(Box::new(metrics)))
    })();

    match outcome {
        Err(SimError::Deadlock(mut dump)) => {
            // Watchdog fired: attach an auto-checkpoint of the hung
            // state so the hang can be replayed offline. Replaying it
            // deterministically re-reaches the deadlock.
            if let Some(path) = &opts.checkpoint {
                let hang_path = format!("{path}.hang");
                if checkpoint_now(&system, kind, cfg, workload, opts)
                    .save(&hang_path)
                    .is_ok()
                {
                    dump.checkpoint = Some(hang_path);
                }
            }
            Err(SimError::Deadlock(dump))
        }
        other => other,
    }
}

/// Builds the protocol `kind` names, runs it through [`run`], and checks
/// the requested verdicts (SC scoreboard, sanitizer) on a finished run.
fn run_kind(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
    replay: Option<ReplayTo>,
    quantum: u64,
) -> Result<SliceOutcome, SimError> {
    let out =
        rcc_core::with_protocol!(kind, cfg, |p| run(p, cfg, workload, opts, replay, quantum))?;
    if let SliceOutcome::Finished(metrics) = &out {
        verify_metrics(kind, workload.name, opts, metrics)?;
    }
    Ok(out)
}

/// [`run_kind`] with quantum 0: the run goes to completion.
fn run_whole(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
    replay: Option<ReplayTo>,
) -> Result<RunMetrics, SimError> {
    match run_kind(kind, cfg, workload, opts, replay, 0)? {
        SliceOutcome::Finished(metrics) => Ok(*metrics),
        SliceOutcome::Preempted { ck, .. } => Err(SimError::Checkpoint(format!(
            "a run with quantum 0 yielded at cycle {}",
            ck.cycle
        ))),
    }
}

fn checkpoint_now<P: Protocol>(
    system: &System<P>,
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
) -> Checkpoint {
    Checkpoint {
        kind,
        cfg: cfg.clone(),
        workload: workload.clone(),
        opts: opts.clone(),
        cycle: system.cycle().raw(),
        state_digest: system.state_digest(),
    }
}

/// Mid-run progress attached to a preempted slice: partial engine
/// counters plus whatever the observer sampled so far. The observation is
/// consumed here (the next slice replays from cycle 0 and regenerates it
/// in full), so carrying it off is free.
#[derive(Debug)]
pub struct SliceProgress {
    /// Cycle the slice was preempted at (== the checkpoint's cycle).
    pub cycle: u64,
    /// Instructions issued so far.
    pub issued: u64,
    /// Memory operations issued so far.
    pub mem_ops: u64,
    /// Partial observation (time-series rows sampled up to the
    /// preemption point), when the run was armed with sampling/tracing.
    pub obs: Option<rcc_obs::ObsReport>,
}

/// What one cooperative slice of a run produced: either the run finished
/// inside the quantum, or it was preempted at the quantum boundary and
/// hands back the checkpoint that resumes it bit-identically.
#[derive(Debug)]
pub enum SliceOutcome {
    /// The run completed; full metrics, exactly as [`try_simulate`]
    /// would have returned them.
    Finished(Box<RunMetrics>),
    /// The quantum expired mid-run. `ck` resumes the run (pass it to
    /// [`resume_slice`]); `progress` reports how far it got.
    Preempted {
        /// Checkpoint at the quantum boundary (digest-verified on resume).
        ck: Box<Checkpoint>,
        /// Partial counters and observation at the boundary (boxed: the
        /// observation dwarfs the `Finished` variant otherwise).
        progress: Box<SliceProgress>,
    },
}

/// Runs at most one quantum ([`SimOptions::quantum`]) of `workload` under
/// `kind`, from the beginning of the run. Returns
/// [`SliceOutcome::Finished`] with full metrics when the run completes
/// inside the quantum, or [`SliceOutcome::Preempted`] with the in-memory
/// checkpoint that continues it ([`resume_slice`]). With `quantum == 0`
/// this is [`try_simulate`] with a boxed result.
///
/// The slice chain is bit-identical to an uninterrupted run by
/// construction: every resume replays to the checkpointed cycle and
/// verifies the architectural state digest before continuing.
///
/// # Errors
///
/// Everything [`try_simulate`] can return; the checked-verdict errors
/// (SC scoreboard / sanitizer) apply only to a finished run.
pub fn try_simulate_slice(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
) -> Result<SliceOutcome, SimError> {
    run_kind(kind, cfg, workload, opts, None, opts.quantum)
}

/// Continues a run preempted by [`try_simulate_slice`]: replays to the
/// checkpointed cycle, verifies the state digest bit-for-bit, then runs
/// at most one more quantum (the checkpoint's `opts.quantum`).
///
/// # Errors
///
/// [`SimError::Checkpoint`] when the replayed state digest does not match
/// the checkpointed one (a corrupted or inapplicable snapshot), plus
/// everything [`try_simulate_slice`] can return.
pub fn resume_slice(ck: &Checkpoint) -> Result<SliceOutcome, SimError> {
    let replay = ReplayTo {
        cycle: ck.cycle,
        state_digest: ck.state_digest,
    };
    run_kind(
        ck.kind,
        &ck.cfg,
        &ck.workload,
        &ck.opts,
        Some(replay),
        ck.opts.quantum,
    )
}

fn verify_metrics(
    kind: ProtocolKind,
    workload: &str,
    opts: &SimOptions,
    metrics: &RunMetrics,
) -> Result<(), SimError> {
    // An unsound chaos profile (the canary) is *expected* to break SC;
    // the caller inspects the verdicts instead of the run failing.
    let chaos_sound = opts.chaos.as_ref().is_none_or(|c| c.profile.is_sound());
    let check = opts.check_sc && kind.supports_sc();
    if check && chaos_sound && metrics.sc_violations > 0 {
        return Err(SimError::ScViolation {
            kind,
            workload: workload.to_string(),
            violations: metrics.sc_violations as u64,
        });
    }
    if opts.sanitize && kind.supports_sc() && chaos_sound && metrics.sanitizer_sc != Some(true) {
        return Err(SimError::SanitizerViolation {
            kind,
            workload: workload.to_string(),
        });
    }
    Ok(())
}

/// Runs `workload` on the machine `cfg` under `kind`, returning the run's
/// metrics.
///
/// # Errors
///
/// [`SimError::Deadlock`] (with a forensic hang-dump) if the watchdog
/// fires, [`SimError::CyclesExceeded`] past `max_cycles`,
/// [`SimError::ProtocolInvariant`] on completion-bookkeeping corruption,
/// [`SimError::ScViolation`] / [`SimError::SanitizerViolation`] when the
/// requested checks fail on an SC-capable protocol, and
/// [`SimError::Checkpoint`] when a requested snapshot cannot be written.
pub fn try_simulate(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
) -> Result<RunMetrics, SimError> {
    run_whole(kind, cfg, workload, opts, None)
}

/// Runs `workload` on the machine `cfg` under `kind`, returning the run's
/// metrics. Convenience wrapper over [`try_simulate`] for tests and
/// callers that treat any failure as fatal.
///
/// # Panics
///
/// Panics on any [`SimError`] — deadlock, cycle-budget exhaustion,
/// protocol-invariant breakage, or SC/sanitizer violations.
pub fn simulate(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    workload: &Workload,
    opts: &SimOptions,
) -> RunMetrics {
    match try_simulate(kind, cfg, workload, opts) {
        Ok(metrics) => metrics,
        Err(e) => panic!("{e}"), // rcc-lint: allow(sim-panic, documented panicking wrapper; fallible callers use try_simulate)
    }
}

/// Resumes the run recorded in the checkpoint at `path`: rebuilds the
/// system from the checkpointed input closure, replays to the
/// checkpointed cycle, verifies the state digest bit-for-bit, and runs to
/// completion. The returned metrics (and observation digests) are
/// bit-identical to an uninterrupted run of the same inputs.
///
/// # Errors
///
/// [`SimError::Checkpoint`] if the file is unreadable or corrupt, or if
/// the replayed state digest does not match the checkpointed one; plus
/// anything [`try_simulate`] can return for the continued run.
pub fn resume(path: &str) -> Result<RunMetrics, SimError> {
    let ck = Checkpoint::load(path)?;
    resume_checkpoint(&ck)
}

/// [`resume`] for an already-decoded checkpoint.
///
/// # Errors
///
/// See [`resume`].
pub fn resume_checkpoint(ck: &Checkpoint) -> Result<RunMetrics, SimError> {
    let replay = ReplayTo {
        cycle: ck.cycle,
        state_digest: ck.state_digest,
    };
    run_whole(ck.kind, &ck.cfg, &ck.workload, &ck.opts, Some(replay))
}
