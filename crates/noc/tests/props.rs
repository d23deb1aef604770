//! Property-based tests for the network (crossbar and mesh).

use proptest::prelude::*;
use rcc_common::config::GpuConfig;
use rcc_common::time::Cycle;
use rcc_noc::Network;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    /// Every injected packet is delivered exactly once, to the right
    /// destination, and per-(src,dst) pairs arrive in injection order.
    #[test]
    fn exactly_once_in_order_delivery(
        packets in prop::collection::vec((0usize..4, 0usize..3, 1u64..40), 1..100),
    ) {
        let cfg = GpuConfig::small();
        let mut net: Network<(usize, usize, usize)> = Network::new(&cfg.noc, 4, 3, 2);
        for (i, (src, dst, flits)) in packets.iter().enumerate() {
            net.inject(Cycle(i as u64), *src, *dst, 0, *flits, (*src, *dst, i));
        }
        let delivered = net.deliver(Cycle(u64::MAX / 2));
        prop_assert_eq!(delivered.len(), packets.len());
        prop_assert!(net.is_empty());
        let mut last_index = std::collections::HashMap::new();
        for (dst, (s, d, i)) in delivered {
            prop_assert_eq!(dst, d);
            if let Some(p) = last_index.insert((s, d), i) {
                prop_assert!(i > p, "per-pair FIFO violated");
            }
        }
    }

    /// Delivery never happens before the zero-load latency.
    #[test]
    fn latency_lower_bound(flits in 1u64..64, start in 0u64..1000) {
        let cfg = GpuConfig::small();
        let mut net: Network<u8> = Network::new(&cfg.noc, 2, 2, 2);
        net.inject(Cycle(start), 0, 1, 0, flits, 1);
        let cpf = cfg.noc.core_cycles_per_noc_cycle;
        let min = start + flits * cpf + cfg.noc.traversal_latency * cpf + flits * cpf;
        prop_assert!(net.deliver(Cycle(min - 1)).is_empty());
        prop_assert_eq!(net.deliver(Cycle(min)).len(), 1);
    }
}

/// A 4 × 3 network on the crossbar or the mesh, optionally jittered by
/// chaos `seed`.
fn network(mesh: bool, chaos: Option<u64>) -> Network<usize> {
    use rcc_chaos::{ChaosProfile, ChaosSpec, Perturber};
    let mut params = GpuConfig::small().noc;
    if mesh {
        params.topology = rcc_common::config::NocTopology::Mesh;
    }
    let mut net = Network::new(&params, 4, 3, 2);
    if let Some(seed) = chaos {
        let spec = ChaosSpec::new(seed, ChaosProfile::heavy());
        net.set_chaos(Box::new(Perturber::standalone(&spec, 0)));
    }
    net
}

/// Pops every reference entry due at `now`, in `(deliver_at, order)`
/// order.
fn pop_due(heap: &mut BinaryHeap<Reverse<(u64, usize, usize)>>, now: u64) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    while heap.peek().is_some_and(|Reverse((at, ..))| *at <= now) {
        let Reverse((_, order, dst)) = heap.pop().expect("peeked");
        out.push((dst, order));
    }
    out
}

proptest! {
    /// Per-port FIFOs deliver exactly what one queue over all in-flight
    /// packets, ordered by `(deliver_at, order)`, would: the same
    /// packets, in the same order, on every `deliver` call — including
    /// late calls that batch deliveries from several ports — and the
    /// same `next_event`, on both topologies, with and without jitter.
    #[test]
    fn port_fifos_match_a_global_delivery_queue(
        ops in prop::collection::vec(
            (0usize..4, 0usize..3, 1u64..20, 0u64..40, any::<bool>()),
            1..60,
        ),
        mesh in any::<bool>(),
        chaos in 0u64..3,
    ) {
        let mut net = network(mesh, (chaos > 0).then_some(chaos));
        let mut heap = BinaryHeap::new();
        let mut now = 0u64;
        for (order, &(src, dst, flits, gap, drain)) in ops.iter().enumerate() {
            now += gap;
            if drain {
                let got = net.deliver(Cycle(now));
                prop_assert_eq!(got, pop_due(&mut heap, now), "deliver at {}", now);
            }
            let at = net.inject(Cycle(now), src, dst, 0, flits, order);
            heap.push(Reverse((at.raw(), order, dst)));
            let head = heap.peek().map(|Reverse((at, ..))| Cycle(*at));
            prop_assert_eq!(net.next_event(), head);
            prop_assert_eq!(net.in_flight(), heap.len());
        }
        // Drain in a few large steps so batches span ports.
        while let Some(next) = net.next_event() {
            let t = next.raw() + 25;
            prop_assert_eq!(net.deliver(Cycle(t)), pop_due(&mut heap, t), "deliver at {}", t);
        }
        prop_assert!(heap.is_empty() && net.is_empty());
    }
}
