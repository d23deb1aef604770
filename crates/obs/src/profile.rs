//! Self-profiling: wall-clock attribution of the simulator's own phases.
//!
//! When profiling is armed, `System::step_cycle` timestamps each phase of the
//! cycle loop and charges the elapsed wall-clock to a [`SimPhase`]
//! bucket. The result answers "where does sim time go" — cores vs caches
//! vs NoC vs DRAM vs engine bookkeeping — so a perf PR can see what it
//! actually moved. Entirely off the simulated-results path: wall-clock
//! never feeds back into simulation, and the whole profile is excluded
//! from `same_simulated_results`.

use std::time::Duration;

/// A phase of the simulator's cycle loop that wall-clock is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Core issue/retire ticks (including L1 access attempts they drive).
    Core,
    /// L1 cache ticks and response handling.
    L1,
    /// L2 bank ticks and request handling.
    L2,
    /// Request/response network delivery and injection.
    Noc,
    /// DRAM channel ticks and fill handling.
    Dram,
    /// Timestamp-rollover drain/flush bookkeeping.
    Rollover,
    /// Fast-forward planning and jump bookkeeping.
    FastForward,
    /// Observer sampling and trace emission.
    Sample,
}

impl SimPhase {
    /// Every phase, in reporting order.
    pub const ALL: [SimPhase; 8] = [
        SimPhase::Core,
        SimPhase::L1,
        SimPhase::L2,
        SimPhase::Noc,
        SimPhase::Dram,
        SimPhase::Rollover,
        SimPhase::FastForward,
        SimPhase::Sample,
    ];

    /// Stable label used in reports and BENCH_sim.json.
    pub fn label(self) -> &'static str {
        match self {
            SimPhase::Core => "core",
            SimPhase::L1 => "l1",
            SimPhase::L2 => "l2",
            SimPhase::Noc => "noc",
            SimPhase::Dram => "dram",
            SimPhase::Rollover => "rollover",
            SimPhase::FastForward => "fast_forward",
            SimPhase::Sample => "sample",
        }
    }

    fn idx(self) -> usize {
        match self {
            SimPhase::Core => 0,
            SimPhase::L1 => 1,
            SimPhase::L2 => 2,
            SimPhase::Noc => 3,
            SimPhase::Dram => 4,
            SimPhase::Rollover => 5,
            SimPhase::FastForward => 6,
            SimPhase::Sample => 7,
        }
    }
}

/// Accumulated wall-clock per simulator phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimProfile {
    nanos: [u64; 8],
    /// Number of executed cycles (`step_cycle` calls) profiled.
    pub steps: u64,
}

impl SimProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        SimProfile::default()
    }

    /// Charges `d` of wall-clock to `phase`.
    pub fn charge(&mut self, phase: SimPhase, d: Duration) {
        self.nanos[phase.idx()] = self.nanos[phase.idx()].saturating_add(d.as_nanos() as u64);
    }

    /// Wall-clock charged to `phase`, in nanoseconds.
    pub fn nanos(&self, phase: SimPhase) -> u64 {
        self.nanos[phase.idx()]
    }

    /// Total wall-clock across all phases, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Fraction of the profiled total spent in `phase` (0 when nothing
    /// was profiled).
    pub fn share(&self, phase: SimPhase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos(phase) as f64 / total as f64
        }
    }

    /// Merges another profile into this one (used when aggregating across
    /// runs in perfsmoke).
    pub fn merge(&mut self, other: &SimProfile) {
        for (a, b) in self.nanos.iter_mut().zip(&other.nanos) {
            *a = a.saturating_add(*b);
        }
        self.steps += other.steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_share_sums() {
        let mut p = SimProfile::new();
        p.charge(SimPhase::Core, Duration::from_nanos(300));
        p.charge(SimPhase::Core, Duration::from_nanos(200));
        p.charge(SimPhase::Dram, Duration::from_nanos(500));
        assert_eq!(p.nanos(SimPhase::Core), 500);
        assert_eq!(p.total_nanos(), 1000);
        assert!((p.share(SimPhase::Dram) - 0.5).abs() < 1e-12);
        assert_eq!(p.share(SimPhase::Noc), 0.0);
    }

    #[test]
    fn empty_profile_has_zero_shares() {
        let p = SimProfile::new();
        for ph in SimPhase::ALL {
            assert_eq!(p.share(ph), 0.0);
        }
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = SimProfile::new();
        a.charge(SimPhase::L2, Duration::from_nanos(10));
        a.steps = 3;
        let mut b = SimProfile::new();
        b.charge(SimPhase::L2, Duration::from_nanos(5));
        b.charge(SimPhase::Sample, Duration::from_nanos(7));
        b.steps = 2;
        a.merge(&b);
        assert_eq!(a.nanos(SimPhase::L2), 15);
        assert_eq!(a.nanos(SimPhase::Sample), 7);
        assert_eq!(a.steps, 5);
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for ph in SimPhase::ALL {
            assert!(seen.insert(ph.label()));
        }
    }
}
