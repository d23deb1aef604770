//! Property-based tests for the DRAM channel.

use proptest::prelude::*;
use rcc_common::addr::LineAddr;
use rcc_common::config::GpuConfig;
use rcc_common::time::Cycle;
use rcc_dram::DramChannel;

proptest! {
    /// Every read completes exactly once, no earlier than the minimum
    /// CAS + transfer time after enqueue, and the channel drains.
    #[test]
    fn reads_complete_exactly_once(
        reqs in prop::collection::vec((0u64..256, any::<bool>()), 1..60),
    ) {
        let cfg = GpuConfig::small();
        let mut ch = DramChannel::new(&cfg.dram);
        let mut expected = std::collections::HashMap::new();
        for (i, (line, is_write)) in reqs.iter().enumerate() {
            ch.enqueue(Cycle(i as u64), LineAddr(*line), *is_write);
            if !*is_write {
                *expected.entry(LineAddr(*line)).or_insert(0u32) += 1;
            }
        }
        let mut got = std::collections::HashMap::new();
        let mut t = 0u64;
        while ch.pending() > 0 {
            t += 1;
            prop_assert!(t < 1_000_000, "channel failed to drain");
            for line in ch.tick(Cycle(t)) {
                *got.entry(line).or_insert(0u32) += 1;
            }
        }
        prop_assert_eq!(got, expected);
        let min_service = cfg.dram.t_cl + 128 / cfg.dram.bytes_per_cycle as u64;
        if ch.reads() > 0 {
            prop_assert!(ch.mean_read_latency() >= min_service as f64);
        }
    }
}

/// A channel, optionally with a chaos hook on `seed` (same stream for
/// every channel built from the same arguments).
fn channel(chaos: Option<u64>) -> DramChannel {
    use rcc_chaos::{ChaosProfile, ChaosSpec, Perturber};
    let mut ch = DramChannel::new(&GpuConfig::small().dram);
    if let Some(seed) = chaos {
        let spec = ChaosSpec::new(seed, ChaosProfile::heavy());
        ch.set_chaos(Box::new(Perturber::standalone(&spec, 0)));
    }
    ch
}

proptest! {
    /// The issue horizon is exact: a channel ticked only on the cycles
    /// `next_event()` names (and on arrivals) services the same requests
    /// at the same cycles as one ticked every cycle — same completions,
    /// and the same full state (banks, queue, chaos stream, statistics)
    /// at every cycle the jumping channel runs.
    #[test]
    fn jumping_to_next_event_matches_ticking_every_cycle(
        reqs in prop::collection::vec((0u64..512, any::<bool>(), 0u64..60), 1..50),
        chaos in 0u64..4,
    ) {
        // Chaos seeds 1..=3 perturb; 0 runs clean.
        let chaos = (chaos > 0).then_some(chaos);
        let mut arrivals = Vec::new();
        let mut at = 0u64;
        for &(line, is_write, gap) in &reqs {
            at += gap;
            arrivals.push((at, LineAddr(line), is_write));
        }
        let enqueue_at = |ch: &mut DramChannel, c: u64| {
            for &(_, line, is_write) in arrivals.iter().filter(|a| a.0 == c) {
                ch.enqueue(Cycle(c), line, is_write);
            }
        };

        let mut stepped = channel(chaos);
        let mut jumped = channel(chaos);
        let (mut stepped_done, mut jumped_done) = (Vec::new(), Vec::new());
        let (mut stepped_ticks, mut jumped_ticks) = (0u64, 0u64);
        let mut stepped_at = 0u64; // next cycle the reference runs
        let mut now = 0u64; // earliest cycle the jumping channel may run
        loop {
            let wake = jumped.next_event().map(|w| w.raw().max(now));
            let arrival = arrivals.iter().map(|a| a.0).find(|&a| a >= now);
            let Some(next) = wake.into_iter().chain(arrival).min() else {
                break;
            };
            prop_assert!(next < 10_000_000, "channel failed to drain");
            while stepped_at <= next {
                enqueue_at(&mut stepped, stepped_at);
                stepped_done.extend(stepped.tick(Cycle(stepped_at)).into_iter().map(|l| (stepped_at, l)));
                stepped_ticks += 1;
                stepped_at += 1;
            }
            enqueue_at(&mut jumped, next);
            if jumped.next_event().is_some_and(|w| w.raw() <= next) {
                jumped_done.extend(jumped.tick(Cycle(next)).into_iter().map(|l| (next, l)));
                jumped_ticks += 1;
            }
            prop_assert_eq!(format!("{stepped:?}"), format!("{jumped:?}"), "state at {}", next);
            now = next + 1;
        }
        prop_assert_eq!(jumped.pending(), 0);
        prop_assert_eq!(stepped.pending(), 0, "the reference has nothing left either");
        prop_assert_eq!(stepped_done, jumped_done);
        prop_assert!(jumped_ticks <= stepped_ticks);
    }
}
