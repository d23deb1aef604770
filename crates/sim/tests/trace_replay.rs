//! Record → replay fidelity and recorder passivity (DESIGN.md, "Trace
//! capture & replay").
//!
//! Two contracts:
//!
//! * **Passivity** — arming `SimOptions::record_trace` must not move a
//!   single simulated metric, for any protocol, on benchmarks and on
//!   the short racy litmus runs. Same discipline as the observer and
//!   the chaos harness: one branch on the hot path when off, nothing
//!   feeds back when on.
//! * **Fidelity** — replaying a recorded trace through the runner
//!   reproduces the originating run bit-identically: metrics, metrics
//!   digest, and the full architectural `state_digest()`, fast-forward
//!   on or off. The recorded bytes themselves are engine-independent
//!   (FF on and FF off record identical files).

use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_sim::{RunMetrics, System};
use rcc_trace::Trace;
use rcc_workloads::{Benchmark, Scale, Workload};

const KINDS: [ProtocolKind; 7] = [
    ProtocolKind::Mesi,
    ProtocolKind::MesiWb,
    ProtocolKind::TcStrong,
    ProtocolKind::TcWeak,
    ProtocolKind::RccSc,
    ProtocolKind::RccWo,
    ProtocolKind::IdealSc,
];

fn opts(fast_forward: bool) -> SimOptions {
    let mut o = SimOptions::fast();
    o.fast_forward = fast_forward;
    o
}

/// A collision-free scratch path for one recording.
fn tmp(label: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "rcc-trace-test-{}-{label}.rcct",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

fn cleanup(path: &str) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{path}.manifest.json"));
}

/// Runs to completion on a live system and returns the metrics plus the
/// full architectural state digest (the checkpoint-grade fingerprint).
fn final_state(kind: ProtocolKind, cfg: &GpuConfig, wl: &Workload) -> (RunMetrics, u64) {
    fn go<P: rcc_core::protocol::Protocol>(
        proto: &P,
        cfg: &GpuConfig,
        wl: &Workload,
    ) -> (RunMetrics, u64) {
        let mut system = System::new(proto, cfg, wl, false);
        let metrics = system.run(50_000_000).unwrap();
        let digest = system.state_digest();
        (metrics, digest)
    }
    rcc_core::with_protocol!(kind, cfg, |p| go(p, cfg, wl))
}

#[test]
fn record_then_replay_reproduces_the_run() {
    let cfg = GpuConfig::small();
    for kind in KINDS {
        let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
        let path = tmp(&format!("fidelity-{}", kind.label()));
        let mut rec_opts = opts(true);
        rec_opts.record_trace = Some(path.clone());
        let original = simulate(kind, &cfg, &wl, &rec_opts);

        let trace = Trace::load(&path).unwrap();
        cleanup(&path);
        let src = trace.source.as_ref().expect("recording stamps provenance");
        assert_eq!(src.cycles, original.cycles, "{kind}: stamped cycle count");
        assert!(trace.stats().annotated > 0, "{kind}: nothing was recorded");
        let replayed_wl = trace.to_workload(cfg.num_cores).unwrap();
        assert_eq!(
            format!("{:?}", wl.programs),
            format!("{:?}", replayed_wl.programs),
            "{kind}: replay lowered a different program stream"
        );

        for ff in [true, false] {
            let replay = simulate(kind, &cfg, &replayed_wl, &opts(ff));
            assert!(
                original.same_simulated_results(&replay),
                "{kind} (ff={ff}): replay diverged from the recorded run \
                 ({} vs {} cycles)",
                original.cycles,
                replay.cycles,
            );
            assert_eq!(
                original.digest(1),
                replay.digest(1),
                "{kind} (ff={ff}): metrics digests diverged"
            );
        }
        // And the machine itself: the replayed run's final architectural
        // state is the recorded run's, bit for bit.
        let (_, original_state) = final_state(kind, &cfg, &wl);
        let (_, replayed_state) = final_state(kind, &cfg, &replayed_wl);
        assert_eq!(
            original_state, replayed_state,
            "{kind}: replayed state digest diverged"
        );
    }
}

#[test]
fn recorded_bytes_are_engine_independent() {
    // Issue cycles are simulated results, so the trace a run records
    // must not depend on whether the engine stepped or fast-forwarded.
    let cfg = GpuConfig::small();
    let wl = Benchmark::Bh.generate(&cfg, &Scale::quick(), 5);
    let mut bytes = Vec::new();
    for ff in [true, false] {
        let path = tmp(&format!("engine-{ff}"));
        let mut o = opts(ff);
        o.record_trace = Some(path.clone());
        simulate(ProtocolKind::RccSc, &cfg, &wl, &o);
        bytes.push(std::fs::read(&path).unwrap());
        cleanup(&path);
    }
    assert_eq!(
        bytes[0], bytes[1],
        "fast-forwarding changed the recorded trace"
    );
}

#[test]
fn recording_is_invisible_in_metrics() {
    let cfg = GpuConfig::small();
    for kind in KINDS {
        let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
        let plain = simulate(kind, &cfg, &wl, &opts(true));
        let path = tmp(&format!("passive-{}", kind.label()));
        let mut rec_opts = opts(true);
        rec_opts.record_trace = Some(path.clone());
        let recorded = simulate(kind, &cfg, &wl, &rec_opts);
        cleanup(&path);
        assert!(
            plain.same_simulated_results(&recorded),
            "{kind}: recording changed simulated results \
             (plain {} cycles, recorded {} cycles)",
            plain.cycles,
            recorded.cycles,
        );
        assert_eq!(
            plain.digest(3),
            recorded.digest(3),
            "{kind}: digest disagrees though results compare equal"
        );
    }
}

#[test]
fn recording_is_invisible_on_every_litmus_test() {
    // The short racy runs are where a recorder that perturbed the
    // machine — an extra borrow, a shifted scheduler decision — would
    // move an ordering race first.
    let cfg = GpuConfig::small();
    for kind in [ProtocolKind::RccSc, ProtocolKind::TcWeak] {
        for lit in rcc_workloads::litmus::all(cfg.num_cores, 11) {
            let wl = rcc_sim::litmus::litmus_workload(&lit);
            let plain = simulate(kind, &cfg, &wl, &opts(true));
            let path = tmp(&format!("litmus-{}-{}", kind.label(), lit.name));
            let mut rec_opts = opts(true);
            rec_opts.record_trace = Some(path.clone());
            let recorded = simulate(kind, &cfg, &wl, &rec_opts);
            cleanup(&path);
            assert!(
                plain.same_simulated_results(&recorded),
                "{kind} on {}: recording changed a litmus run",
                lit.name
            );
        }
    }
}

#[test]
fn timed_replay_is_deterministic_on_every_protocol() {
    // The timed lowering inserts a `WaitUntil` gate before every
    // annotated op, so replay drives the calendar-queue scheduler with
    // the trace's own issue cycles. The gates are timers: fast-forward
    // must jump them without moving a single simulated result, under
    // every protocol (including ones the trace was not recorded on).
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
    let path = tmp("timed");
    let mut rec_opts = opts(true);
    rec_opts.record_trace = Some(path.clone());
    let original = simulate(ProtocolKind::RccSc, &cfg, &wl, &rec_opts);
    let trace = Trace::load(&path).unwrap();
    cleanup(&path);
    let timed = trace.to_workload_timed(cfg.num_cores).unwrap();
    let gates: usize = timed
        .programs
        .iter()
        .flatten()
        .flat_map(|p| &p.ops)
        .filter(|op| matches!(op, rcc_gpu::MemOp::WaitUntil(_)))
        .count();
    assert_eq!(
        gates,
        trace.stats().annotated,
        "timed lowering must gate every annotated op"
    );
    for kind in KINDS {
        let stepped = simulate(kind, &cfg, &timed, &opts(false));
        let skipped = simulate(kind, &cfg, &timed, &opts(true));
        assert!(
            stepped.same_simulated_results(&skipped),
            "{kind}: fast-forward changed a timed replay \
             ({} vs {} cycles)",
            stepped.cycles,
            skipped.cycles,
        );
        assert!(
            skipped.cycles >= trace.stats().last_issue.unwrap(),
            "{kind}: timed replay finished before the last recorded issue"
        );
    }
    // On the recording protocol, the gates reproduce the recorded
    // pacing: the timed run cannot beat the original's issue schedule.
    let timed_rcc = simulate(ProtocolKind::RccSc, &cfg, &timed, &opts(true));
    assert!(
        timed_rcc.cycles >= original.cycles,
        "timed replay ({} cycles) outran the recorded run ({} cycles)",
        timed_rcc.cycles,
        original.cycles,
    );
}

#[test]
fn recording_writes_a_manifest_sidecar() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
    let path = tmp("manifest");
    let mut o = opts(true);
    o.record_trace = Some(path.clone());
    simulate(ProtocolKind::Mesi, &cfg, &wl, &o);
    let manifest = std::fs::read_to_string(format!("{path}.manifest.json")).unwrap();
    cleanup(&path);
    assert!(manifest.contains("\"format\": \"RCCT\""));
    assert!(manifest.contains("\"source_protocol\": \"MESI\""));
}
