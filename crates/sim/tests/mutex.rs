//! Mutual-exclusion verification: spin locks built from CAS must
//! serialize critical sections under EVERY protocol (including the
//! weakly ordered ones — atomics are always serialized at the L2).
//!
//! Each warp's critical section stores its unique token into a shared
//! word and immediately loads it back: if any other warp entered the
//! section concurrently, some warp reads back a foreign token.

use rcc_common::addr::LineAddr;
use rcc_common::ids::WorkgroupId;
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_gpu::op::{MemOp, WarpProgram};
use rcc_sim::system::System;
use rcc_workloads::{Sharing, Workload};

fn mutex_workload(cfg: &GpuConfig, iters: usize) -> (Workload, Vec<(usize, usize, u64)>) {
    let lock = LineAddr(0).word(0);
    let shared = LineAddr(1).word(0);
    let mut programs = Vec::new();
    let mut tokens = Vec::new();
    for core in 0..cfg.num_cores {
        let mut warps = Vec::new();
        for w in 0..2 {
            let token = 1 + (core as u64) * 100 + w as u64;
            tokens.push((core, w, token));
            let mut ops = vec![MemOp::Compute(1 + (core * 7 + w * 3) as u32)];
            for _ in 0..iters {
                ops.push(MemOp::Lock(lock));
                ops.push(MemOp::Fence);
                ops.push(MemOp::Store(shared, token));
                ops.push(MemOp::Compute(20));
                ops.push(MemOp::Load(shared)); // must read back `token`
                ops.push(MemOp::Fence);
                ops.push(MemOp::Unlock(lock));
            }
            warps.push(WarpProgram::new(WorkgroupId(core * 2 + w), ops));
        }
        programs.push(warps);
    }
    (
        Workload {
            name: "mutex",
            category: Sharing::InterWorkgroup,
            programs,
            warps_per_workgroup: 1,
        },
        tokens,
    )
}

fn check_mutex(kind: ProtocolKind) {
    let cfg = GpuConfig::small();
    let (wl, tokens) = mutex_workload(&cfg, 6);
    let shared = LineAddr(1).word(0);
    // Run via the concrete system to reach the load log.
    let loads: Vec<Vec<u64>> = rcc_core::with_protocol!(kind, &cfg, |p| {
        let mut sys = System::new(p, &cfg, &wl, false);
        while !sys.done() {
            sys.run_until(sys.cycle().raw() + 1)
                .expect("mutex run fails");
        }
        tokens
            .iter()
            .map(|&(core, warp, _)| sys.loads_of(core, warp, shared).to_vec())
            .collect()
    });
    for ((core, warp, token), loads) in tokens.iter().zip(&loads) {
        assert_eq!(loads.len(), 6, "{kind}: every section read back");
        for v in loads {
            assert_eq!(
                v, token,
                "{kind}: warp {core}/{warp} saw a foreign token inside \
                 its critical section — mutual exclusion broken"
            );
        }
    }
}

#[test]
fn mutual_exclusion_mesi() {
    check_mutex(ProtocolKind::Mesi);
}

#[test]
fn mutual_exclusion_tcs() {
    check_mutex(ProtocolKind::TcStrong);
}

#[test]
fn mutual_exclusion_tcw() {
    check_mutex(ProtocolKind::TcWeak);
}

#[test]
fn mutual_exclusion_rcc_sc() {
    check_mutex(ProtocolKind::RccSc);
}

#[test]
fn mutual_exclusion_rcc_wo() {
    check_mutex(ProtocolKind::RccWo);
}

#[test]
fn mutual_exclusion_mesi_wb() {
    check_mutex(ProtocolKind::MesiWb);
}
