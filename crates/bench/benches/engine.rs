//! Criterion benchmarks for the simulation engine itself.
//!
//! Full-run throughput with the calendar-queue scheduler (fast-forward)
//! on vs off, across the three regimes that stress it differently:
//! idle-heavy (long quiet stretches the queue jumps over),
//! contention-heavy (near-every-cycle activity, where scheduling must
//! cost ~nothing), and rollover-heavy (a tiny timestamp threshold keeps
//! the RCC rollover FSM — a global, every-component event source —
//! firing). Plus a microbench of the queue's own post/cancel/pop ops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_sim::runner::{simulate, SimOptions};
use rcc_sim::EventQueue;
use rcc_workloads::{Benchmark, Scale};

fn engine_fast_forward(c: &mut Criterion) {
    let scale = Scale::quick();
    let mut rollover_cfg = GpuConfig::small();
    // Hardware rolls a 32-bit timestamp over ~never; a tiny threshold
    // makes the global flush FSM a first-class event source.
    rollover_cfg.rcc.rollover_threshold = 4096;
    // bh's barrier phases leave the machine idle between bursts;
    // hsp keeps every core streaming so almost no cycle is skippable.
    for (label, bench, cfg) in [
        ("idle-heavy/bh", Benchmark::Bh, GpuConfig::small()),
        ("contention/hsp", Benchmark::Hsp, GpuConfig::small()),
        ("rollover/hsp", Benchmark::Hsp, rollover_cfg),
    ] {
        let wl = bench.generate(&cfg, &scale, 7);
        let mut group = c.benchmark_group(format!("engine/{label}"));
        group.sample_size(10);
        for (name, ff) in [("ff-on", true), ("ff-off", false)] {
            let mut opts = SimOptions::fast();
            opts.fast_forward = ff;
            group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
                b.iter(|| simulate(ProtocolKind::RccSc, &cfg, &wl, opts).cycles)
            });
        }
        group.finish();
    }
}

// The queue's three hot operations, at a realistic component count
// (gtx480: 15 cores + 15 L1s + 2 NoC directions + banks/pipes/DRAM
// + rollover ≈ 64). A set-arm over an armed slot is the cancel path
// (supersede + repost); `next_wake` pops through the lazy heap.
fn event_queue_ops(c: &mut Criterion) {
    const COMPS: usize = 64;
    let mut group = c.benchmark_group("sched/queue");
    // Deterministic wake pattern; an LCG stands in for arrival jitter.
    let lcg = |s: &mut u64| {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 33
    };
    group.bench_function("post", |b| {
        let mut q = EventQueue::new(COMPS);
        let mut seed = 7u64;
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            for comp in 0..COMPS {
                q.arm_min(comp, now + 1 + lcg(&mut seed) % 512);
            }
        });
    });
    group.bench_function("cancel", |b| {
        let mut q = EventQueue::new(COMPS);
        let mut seed = 7u64;
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            for comp in 0..COMPS {
                q.arm_at(comp, now + 1 + lcg(&mut seed) % 512);
                q.arm_at(comp, now + 1 + lcg(&mut seed) % 512);
            }
        });
    });
    group.bench_function("pop", |b| {
        let mut q = EventQueue::new(COMPS);
        let mut seed = 7u64;
        b.iter(|| {
            for comp in 0..COMPS {
                q.arm_at(comp, 1 + lcg(&mut seed) % 512);
            }
            let mut sum = 0u64;
            while let Some(w) = q.next_wake() {
                sum += w;
                // Retire every component due at the popped horizon so
                // the drain terminates.
                for comp in 0..COMPS {
                    q.take_due(comp, w);
                }
            }
            sum
        });
    });
    group.finish();
}

criterion_group!(benches, engine_fast_forward, event_queue_ops);
criterion_main!(benches);
