//! Fast-forward determinism guard (DESIGN.md, "Simulation performance").
//!
//! The engine invariant: skipping provably idle cycles may change
//! wall-clock only. Every simulated metric — cycle counts, cache and
//! core statistics, traffic, energy, DRAM activity, SC verdicts — must
//! be bit-identical with the fast-forwarder on and off, for every
//! protocol, and rerunning the same seed must reproduce the same run.

use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_workloads::{Benchmark, Scale};

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

#[test]
fn fast_forward_is_invisible_in_metrics() {
    // The full benchmark set: a boundary case (a warp timer expiring
    // exactly at the window floor into an ordering stall) only shows up
    // on some (protocol, workload, seed) combinations.
    let cfg = GpuConfig::small();
    for kind in KINDS {
        for bench in Benchmark::ALL {
            let wl = bench.generate(&cfg, &Scale::quick(), 7);
            let stepped = simulate(kind, &cfg, &wl, &opts(false));
            let skipped = simulate(kind, &cfg, &wl, &opts(true));
            assert_eq!(
                stepped.skipped_cycles,
                0,
                "{kind}/{}: FF off must not skip",
                bench.name()
            );
            assert!(
                stepped.same_simulated_results(&skipped),
                "{kind}/{}: fast-forward changed simulated results \
                 (stepped {} cycles, skipped {} cycles)",
                bench.name(),
                stepped.cycles,
                skipped.cycles,
            );
        }
    }
}

#[test]
fn fast_forward_actually_skips() {
    // Sanity that the invariant test above is not vacuous: on at least
    // one workload the engine must find idle cycles to jump over.
    let cfg = GpuConfig::small();
    let mut total_skipped = 0;
    for kind in KINDS {
        let wl = Benchmark::Bh.generate(&cfg, &Scale::quick(), 5);
        let m = simulate(kind, &cfg, &wl, &opts(true));
        total_skipped += m.skipped_cycles;
        assert!(
            m.skipped_cycles < m.cycles,
            "{kind}: skip ratio must be < 1"
        );
    }
    assert!(total_skipped > 0, "no protocol ever fast-forwarded");
}

#[test]
fn same_seed_same_run() {
    let cfg = GpuConfig::small();
    for kind in [ProtocolKind::Mesi, ProtocolKind::RccSc] {
        let wl1 = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 5);
        let wl2 = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 5);
        let a = simulate(kind, &cfg, &wl1, &opts(true));
        let b = simulate(kind, &cfg, &wl2, &opts(true));
        assert!(
            a.same_simulated_results(&b),
            "{kind}: same seed must reproduce the same run"
        );
        assert_eq!(a.skipped_cycles, b.skipped_cycles);
        assert_eq!(a.ff_jumps, b.ff_jumps);
    }
}

#[test]
fn chaos_is_deterministic_under_fast_forward() {
    // Chaos draws are event-driven (one draw per message/command/access,
    // never per cycle), so skipping idle cycles must not change which
    // perturbations fire: same chaos seed ⇒ bit-identical metrics —
    // including the fired-injection count — with the fast-forwarder on
    // and off, for every sound profile.
    let cfg = GpuConfig::small();
    for profile in rcc_chaos::ChaosProfile::sound() {
        for kind in [
            ProtocolKind::RccSc,
            ProtocolKind::Mesi,
            ProtocolKind::TcWeak,
        ] {
            let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
            let chaos = rcc_chaos::ChaosSpec::new(11, profile.clone());
            let mut stepped_opts = opts(false);
            stepped_opts.chaos = Some(chaos.clone());
            let mut ff_opts = opts(true);
            ff_opts.chaos = Some(chaos);
            let stepped = simulate(kind, &cfg, &wl, &stepped_opts);
            let skipped = simulate(kind, &cfg, &wl, &ff_opts);
            assert!(
                stepped.chaos_events > 0,
                "{kind}/{}: chaos never fired — test is vacuous",
                profile.name
            );
            assert!(
                stepped.same_simulated_results(&skipped),
                "{kind}/{}: fast-forward changed a chaos run \
                 (stepped {} cycles / {} events, skipped {} cycles / {} events)",
                profile.name,
                stepped.cycles,
                stepped.chaos_events,
                skipped.cycles,
                skipped.chaos_events,
            );
        }
    }
}

#[test]
fn observation_is_invisible_in_metrics() {
    // The observability layer is passive by contract: sampling, trace
    // recording and self-profiling together must not move a single
    // simulated metric. Same discipline as chaos — one branch on the hot
    // path when off, and nothing ever feeds back when on. (The sampler
    // does cap fast-forward jumps at sample boundaries, so this also
    // proves boundary-stepping changes engine telemetry only.)
    let cfg = GpuConfig::small();
    for kind in KINDS {
        let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
        let plain = simulate(kind, &cfg, &wl, &opts(true));
        let observed = simulate(kind, &cfg, &wl, &SimOptions::observed(64));
        assert!(plain.obs.is_none(), "{kind}: unarmed run carries a report");
        let report = observed.obs.as_ref().expect("observer was armed");
        assert!(report.series.rows() > 0, "{kind}: sampler never fired");
        assert!(
            !report.trace.is_empty(),
            "{kind}: tracer recorded nothing on a full benchmark"
        );
        assert!(
            plain.same_simulated_results(&observed),
            "{kind}: observation changed simulated results \
             (plain {} cycles, observed {} cycles)",
            plain.cycles,
            observed.cycles,
        );
        assert_eq!(
            plain.digest(3),
            observed.digest(3),
            "{kind}: digest disagrees though results compare equal"
        );
    }
}

#[test]
fn observation_is_invisible_on_every_litmus_test() {
    // Same invariant over the full litmus suite: the short, racy runs
    // are where an off-by-one sample boundary or a trace-driven borrow
    // would bite timing first.
    let cfg = GpuConfig::small();
    for kind in [ProtocolKind::RccSc, ProtocolKind::TcWeak] {
        for lit in rcc_workloads::litmus::all(cfg.num_cores, 11) {
            let wl = rcc_sim::litmus::litmus_workload(&lit);
            let plain = simulate(kind, &cfg, &wl, &opts(true));
            let observed = simulate(kind, &cfg, &wl, &SimOptions::observed(16));
            assert!(
                plain.same_simulated_results(&observed),
                "{kind} on {}: observation changed a litmus run",
                lit.name
            );
        }
    }
}

// Skipping idle cycles must not merely reproduce the *metrics* of
// stepping through them — the machine state itself must match at every
// checkpoint boundary, or a checkpoint taken in one mode would not
// resume bit-identically in the other. Stepped mode is the same engine
// loop with every component due every cycle, so this checks exactly one
// thing: that each skip is sound. Lockstep the two modes with
// `run_until` and compare full state digests at each boundary, then the
// final metrics.
fn lockstep_digests<P: rcc_core::protocol::Protocol>(
    proto: &P,
    cfg: &GpuConfig,
    wl: &rcc_workloads::Workload,
    stride: u64,
    label: &str,
) {
    let mut stepped = rcc_sim::System::new(proto, cfg, wl, false);
    stepped.set_fast_forward(false);
    let mut sched = rcc_sim::System::new(proto, cfg, wl, false);
    sched.set_fast_forward(true);
    let mut boundary = 0;
    let mut boundaries = 0u32;
    while !(stepped.done() && sched.done()) {
        boundary += stride;
        assert!(boundary < 50_000_000, "{label}: lockstep run never retired");
        stepped.run_until(boundary).unwrap();
        sched.run_until(boundary).unwrap();
        boundaries += 1;
        assert_eq!(
            stepped.state_digest(),
            sched.state_digest(),
            "{label}: engines diverged at checkpoint boundary {boundary}"
        );
    }
    assert!(boundaries > 0, "{label}: no boundary ever compared");
    assert!(
        stepped.metrics().same_simulated_results(&sched.metrics()),
        "{label}: final metrics diverged though every digest matched"
    );
}

fn lockstep_kind(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    wl: &rcc_workloads::Workload,
    stride: u64,
    label: &str,
) {
    rcc_core::with_protocol!(kind, cfg, |p| lockstep_digests(p, cfg, wl, stride, label))
}

#[test]
fn scheduled_engine_matches_stepped_state_on_litmus() {
    // Short racy runs with a fine stride: where a wake posted one cycle
    // late would move an ordering race first.
    let cfg = GpuConfig::small();
    for kind in KINDS {
        for lit in rcc_workloads::litmus::all(cfg.num_cores, 11) {
            let wl = rcc_sim::litmus::litmus_workload(&lit);
            lockstep_kind(kind, &cfg, &wl, 64, &format!("{kind}/{}", lit.name));
        }
    }
}

#[test]
fn scheduled_engine_matches_stepped_state_on_benchmarks() {
    // Long runs with realistic checkpoint spacing: dlb (load balancing,
    // bursty), bh (barrier phases, idle-heavy), hsp (streaming,
    // contention-heavy), lps (MESI-WB load misses spinning on a full
    // MSHR: a rejected miss must not advance the L1's LRU counter, or
    // the stepped retries and the skipped spin drift apart).
    let cfg = GpuConfig::small();
    for kind in KINDS {
        for bench in [
            Benchmark::Dlb,
            Benchmark::Bh,
            Benchmark::Hsp,
            Benchmark::Lps,
        ] {
            let wl = bench.generate(&cfg, &Scale::quick(), 7);
            lockstep_kind(kind, &cfg, &wl, 2500, &format!("{kind}/{}", bench.name()));
        }
    }
}

#[test]
fn scheduled_engine_matches_stepped_state_on_frequent_livelock_bumps() {
    // The min-arm rule (DESIGN.md): a response delivered to an RCC L1 on
    // a livelock-bump cycle must not push the L1's due wake past that
    // cycle. A 7-cycle bump interval makes such coincidences common.
    let mut cfg = GpuConfig::small();
    cfg.rcc.livelock_bump_interval = 7;
    for kind in [ProtocolKind::RccSc, ProtocolKind::RccWo] {
        let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 7);
        lockstep_kind(kind, &cfg, &wl, 2500, &format!("{kind}/dlb/bump-7"));
    }
}

#[test]
fn fast_forward_passes_sc_checking() {
    // The litmus matrix runs elsewhere; here, pin that the SC scoreboard
    // and sanitizer both hold under fast-forward on a real workload.
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 5);
    let mut o = SimOptions::checked();
    o.sanitize = true;
    let m = simulate(ProtocolKind::RccSc, &cfg, &wl, &o);
    assert_eq!(m.sc_violations, 0);
    assert_eq!(m.sanitizer_sc, Some(true));
}
