//! The cooperative slice entry points: a run chopped into checkpoint
//! quanta is bit-identical to the uninterrupted run, and a corrupted
//! in-memory snapshot fails typed instead of resuming wrong state.

use proptest::prelude::*;
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{resume_slice, try_simulate, try_simulate_slice, SimOptions};
use rcc_sim::{SimError, SliceOutcome};
use rcc_workloads::{Benchmark, Scale};

const SEED: u64 = 7;

fn sliced_metrics(quantum: u64) -> (rcc_sim::RunMetrics, u64) {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
    let opts = SimOptions {
        quantum,
        ..SimOptions::fast()
    };
    let mut slices = 0u64;
    let mut out = try_simulate_slice(ProtocolKind::RccSc, &cfg, &wl, &opts).expect("first slice");
    loop {
        slices += 1;
        match out {
            SliceOutcome::Finished(m) => return (*m, slices),
            SliceOutcome::Preempted { ck, progress } => {
                assert_eq!(ck.cycle, progress.cycle, "checkpoint sits at the yield");
                assert!(slices < 1000, "slicing must terminate");
                out = resume_slice(&ck).expect("resume");
            }
        }
    }
}

#[test]
fn slice_chain_is_bit_identical_to_uninterrupted_run() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
    let direct =
        try_simulate(ProtocolKind::RccSc, &cfg, &wl, &SimOptions::fast()).expect("direct run");
    let (chained, slices) = sliced_metrics(4_000);
    assert!(slices > 3, "quantum small enough to actually preempt");
    assert_eq!(chained.cycles, direct.cycles);
    assert_eq!(chained.digest(SEED), direct.digest(SEED), "full field set");
}

#[test]
fn zero_quantum_finishes_in_one_slice() {
    let (m, slices) = sliced_metrics(0);
    assert_eq!(slices, 1);
    assert!(m.cycles > 0);
}

#[test]
fn quantum_past_the_run_length_never_yields() {
    let (m, slices) = sliced_metrics(u64::MAX);
    assert_eq!(slices, 1);
    assert!(m.cycles > 0);
}

#[test]
fn corrupted_snapshot_is_a_typed_checkpoint_error() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
    let opts = SimOptions {
        quantum: 4_000,
        ..SimOptions::fast()
    };
    let out = try_simulate_slice(ProtocolKind::RccSc, &cfg, &wl, &opts).expect("first slice");
    let SliceOutcome::Preempted { mut ck, .. } = out else {
        panic!("quantum 4000 must preempt dlb-quick");
    };
    ck.state_digest ^= 1;
    match resume_slice(&ck) {
        Err(SimError::Checkpoint(msg)) => {
            assert!(msg.contains("digest"), "names the mismatch: {msg}")
        }
        other => panic!("corrupted snapshot must fail typed, got {other:?}"),
    }
}

#[test]
fn profiled_slices_return_a_self_profile() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
    for quantum in [0, 4_000] {
        let opts = SimOptions {
            quantum,
            profile: true,
            ..SimOptions::fast()
        };
        let mut out = try_simulate_slice(ProtocolKind::RccSc, &cfg, &wl, &opts).expect("slice");
        let m = loop {
            match out {
                SliceOutcome::Finished(m) => break m,
                SliceOutcome::Preempted { ck, .. } => out = resume_slice(&ck).expect("resume"),
            }
        };
        assert!(m.profile.is_some(), "quantum {quantum}: profile requested");
        let (plain, _) = sliced_metrics(quantum);
        assert_eq!(m.digest(SEED), plain.digest(SEED), "profiling is passive");
    }
}

/// Runs a slice chain at `quantum` to completion.
fn chain(kind: ProtocolKind, opts: &SimOptions) -> rcc_sim::RunMetrics {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
    let mut out = try_simulate_slice(kind, &cfg, &wl, opts).expect("first slice");
    loop {
        match out {
            SliceOutcome::Finished(m) => return *m,
            SliceOutcome::Preempted { ck, .. } => out = resume_slice(&ck).expect("resume"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any quantum from an eighth of the run to the whole run, on every
    /// protocol: the slice chain's results equal the uninterrupted run's.
    #[test]
    fn any_quantum_reproduces_the_uninterrupted_run(permille in 125u64..=1000) {
        let cfg = GpuConfig::small();
        let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
        for kind in ProtocolKind::ALL {
            let direct = try_simulate(kind, &cfg, &wl, &SimOptions::fast()).expect("direct run");
            let opts = SimOptions {
                quantum: (direct.cycles * permille / 1000).max(1),
                ..SimOptions::fast()
            };
            let sliced = chain(kind, &opts);
            prop_assert!(
                sliced.same_simulated_results(&direct),
                "{kind}: quantum {} changed the results",
                opts.quantum
            );
        }
    }
}

#[test]
fn recording_run_finishes_in_one_slice_and_writes_its_trace() {
    let cfg = GpuConfig::small();
    let wl = Benchmark::Dlb.generate(&cfg, &Scale::quick(), SEED);
    let path = std::env::temp_dir()
        .join(format!("rcc-slice-record-{}.rcct", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let opts = SimOptions {
        quantum: 4_000,
        record_trace: Some(path.clone()),
        ..SimOptions::fast()
    };
    let out = try_simulate_slice(ProtocolKind::RccSc, &cfg, &wl, &opts).expect("slice");
    let SliceOutcome::Finished(m) = out else {
        panic!("a recording run must not be preempted");
    };
    let trace = rcc_trace::Trace::load(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(format!("{path}.manifest.json"));
    let direct =
        try_simulate(ProtocolKind::RccSc, &cfg, &wl, &SimOptions::fast()).expect("direct run");
    assert!(m.same_simulated_results(&direct), "recording is passive");
    assert_eq!(trace.source.expect("provenance").cycles, m.cycles);
}
