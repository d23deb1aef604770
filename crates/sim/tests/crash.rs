//! Typed failure handling, end to end: a crafted deadlock produces a
//! schema-valid forensic hang-dump (and a replayable auto-checkpoint)
//! instead of a panic, broken completion bookkeeping surfaces as
//! [`SimError::ProtocolInvariant`], and an exhausted cycle budget as
//! [`SimError::CyclesExceeded`].

use rcc_common::addr::LineAddr;
use rcc_common::ids::WorkgroupId;
use rcc_common::GpuConfig;
use rcc_core::mesi::MesiProtocol;
use rcc_core::ProtocolKind;
use rcc_gpu::{MemOp, WarpProgram};
use rcc_sim::error::SimError;
use rcc_sim::runner::{resume, try_simulate, SimOptions};
use rcc_sim::System;
use rcc_workloads::{Sharing, Workload};

const HANGDUMP_SCHEMA: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../schemas/hangdump.schema.json"
));

/// A guaranteed deadlock: warp 0 of core 0 waits for workgroup-barrier
/// epoch 1, but no warp ever passes a [`MemOp::Barrier`], so the epoch
/// stays 0 forever. The warp issues nothing (a local wait costs no
/// memory traffic), so the watchdog's progress clock never advances.
fn deadlock_workload() -> Workload {
    Workload {
        name: "crafted-deadlock",
        category: Sharing::IntraWorkgroup,
        programs: vec![vec![WarpProgram::new(
            WorkgroupId(0),
            vec![MemOp::LocalWait { epoch: 1 }],
        )]],
        warps_per_workgroup: 2,
    }
}

fn small_watchdog() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.watchdog_cycles = 10_000;
    cfg
}

fn tmp(name: &str) -> String {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .to_str()
        .expect("utf-8 tmp path")
        .to_string()
}

#[test]
fn watchdog_emits_forensic_hang_dump() {
    let cfg = small_watchdog();
    let err = try_simulate(
        ProtocolKind::RccSc,
        &cfg,
        &deadlock_workload(),
        &SimOptions::fast(),
    )
    .expect_err("the crafted deadlock must trip the watchdog");
    let SimError::Deadlock(dump) = err else {
        panic!("expected Deadlock, got: {err}");
    };

    // The dump names the stuck component and the blocked warp.
    assert_eq!(dump.workload, "crafted-deadlock");
    assert!(
        dump.suspects.iter().any(|s| s == "core0"),
        "core0 holds a live warp but schedules no event; suspects: {:?}",
        dump.suspects
    );
    let blocked = dump
        .blocked_warps
        .iter()
        .find(|b| b.core == 0 && b.state.warp == 0)
        .expect("warp 0 of core 0 is reported blocked");
    assert_eq!(blocked.state.waiting_local, Some(1));
    let stalled = blocked.state.stalled_op.as_deref().unwrap_or_default();
    assert!(
        stalled.contains("LocalWait"),
        "stalled op names the wait: {stalled:?}"
    );
    assert!(dump.cycle > cfg.watchdog_cycles);
    assert_eq!(dump.last_progress, 0, "nothing ever issued");

    // The JSON rendering is pinned by the in-repo schema.
    let json = dump.to_json();
    let errs =
        rcc_obs::schema::validate_text(HANGDUMP_SCHEMA, &json).expect("schema and dump must parse");
    assert!(errs.is_empty(), "hang-dump schema violations: {errs:?}");

    // The error's Display names the essentials for log-only consumers.
    let msg = SimError::Deadlock(dump).to_string();
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("core0"), "{msg}");
}

#[test]
fn watchdog_auto_checkpoint_replays_the_hang() {
    let cfg = small_watchdog();
    let path = tmp("hang-auto.ck");
    let mut opts = SimOptions::fast();
    opts.checkpoint = Some(path.clone());
    let err =
        try_simulate(ProtocolKind::RccSc, &cfg, &deadlock_workload(), &opts).expect_err("deadlock");
    let SimError::Deadlock(dump) = err else {
        panic!("expected Deadlock, got: {err}");
    };
    let hang_path = dump.checkpoint.clone().expect("auto-checkpoint written");
    assert_eq!(hang_path, format!("{path}.hang"));

    // Replaying the auto-checkpoint deterministically re-reaches the
    // deadlock — same cycle, same suspects.
    let replay_err = resume(&hang_path).expect_err("replay reproduces the hang");
    let SimError::Deadlock(replayed) = replay_err else {
        panic!("expected replayed Deadlock, got: {replay_err}");
    };
    assert_eq!(replayed.cycle, dump.cycle);
    assert_eq!(replayed.suspects, dump.suspects);
    assert_eq!(replayed.state_digest, dump.state_digest);
}

#[test]
fn fast_forward_and_stepping_agree_on_the_deadlock() {
    let cfg = small_watchdog();
    let mut opts = SimOptions::fast();
    opts.fast_forward = false;
    let slow = try_simulate(ProtocolKind::RccSc, &cfg, &deadlock_workload(), &opts)
        .expect_err("deadlock without FF");
    let fast = try_simulate(
        ProtocolKind::RccSc,
        &cfg,
        &deadlock_workload(),
        &SimOptions::fast(),
    )
    .expect_err("deadlock with FF");
    let (SimError::Deadlock(a), SimError::Deadlock(b)) = (slow, fast) else {
        panic!("both must be deadlocks");
    };
    assert_eq!(a.cycle, b.cycle);
    assert_eq!(a.state_digest, b.state_digest);
}

#[test]
fn corrupted_completion_bookkeeping_is_a_typed_invariant_error() {
    let cfg = GpuConfig::small();
    let wl = Workload {
        name: "store-invariant",
        category: Sharing::InterWorkgroup,
        programs: vec![vec![WarpProgram::new(
            WorkgroupId(0),
            vec![MemOp::Store(LineAddr(4).word(0), 7)],
        )]],
        warps_per_workgroup: 1,
    };
    let p = MesiProtocol::new(&cfg);
    let mut sys = System::new(&p, &cfg, &wl, false);
    let mut outcome = Ok(());
    while !sys.done() {
        // Wipe the recorder's pending-value table every cycle, so the
        // store's eventual completion finds no matching entry.
        sys.corrupt_pending_values_for_test();
        outcome = sys.run_until(sys.cycle().raw() + 1);
        if outcome.is_err() {
            break;
        }
        assert!(sys.cycle().raw() < 1_000_000, "test run away");
    }
    let err = outcome.expect_err("the corrupted completion must be flagged");
    let SimError::ProtocolInvariant {
        kind,
        workload,
        cycle,
        detail,
    } = err
    else {
        panic!("expected ProtocolInvariant, got: {err}");
    };
    assert_eq!(kind, ProtocolKind::Mesi);
    assert_eq!(workload, "store-invariant");
    assert!(cycle > 0);
    assert!(
        detail.contains("store completion without value"),
        "{detail}"
    );
}

#[test]
fn exhausted_cycle_budget_is_typed() {
    let cfg = GpuConfig::small();
    let wl = rcc_workloads::Benchmark::Dlb.generate(&cfg, &rcc_workloads::Scale::quick(), 3);
    let mut opts = SimOptions::fast();
    opts.max_cycles = 10;
    let err = try_simulate(ProtocolKind::RccSc, &cfg, &wl, &opts)
        .expect_err("10 cycles cannot finish a benchmark");
    let SimError::CyclesExceeded {
        kind, max_cycles, ..
    } = err
    else {
        panic!("expected CyclesExceeded, got: {err}");
    };
    assert_eq!(kind, ProtocolKind::RccSc);
    assert_eq!(max_cycles, 10);
}
