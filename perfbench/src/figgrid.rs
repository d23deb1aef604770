//! `figgrid`: the `fig9` grid — the 12 Table IV benchmarks × {MESI,
//! TC-Strong, TC-Weak, RCC-SC} — run single-threaded through
//! `rcc_sim::runner::try_simulate` with fast-forward on.
//!
//! Long jobs are the standard-scale grid on the GTX 480 machine (what
//! `fig9` runs); short jobs are the quick-scale grid on the small
//! machine (what `fig9 --quick` runs). Every cell's `RunMetrics::digest`
//! and `final_mem_digest` must equal the values recorded in
//! `golden/figgrid.tsv` for its workload seed.
//!
//! Every cell runs several times, spread over the run; its time is the
//! upper quartile of its repetitions (see [`base_times`]).

use crate::report::Metrics;
use crate::stats;
use crate::{Outcome, SETUP_REPS};
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_obs::SimPhase;
use rcc_sim::runner::{try_simulate, SimOptions};
use rcc_sim::RunMetrics;
use rcc_workloads::{Benchmark, Scale, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// The protocols of Fig. 9, in column order.
pub const KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Mesi,
    ProtocolKind::TcStrong,
    ProtocolKind::TcWeak,
    ProtocolKind::RccSc,
];

/// Workload seeds with recorded digests; `--seed n` runs workload seed
/// `n % GOLDEN_SEEDS`.
pub const GOLDEN_SEEDS: u64 = 32;

/// Quick-grid cells run after each standard cell (5 quick passes per
/// standard pass: the short-job samples).
const QUICK_PER_CELL: usize = 5;
/// Standard cells between set-up repetitions (48 / 8).
const SETUP_EVERY: usize = 6;
/// Seconds of `--seconds` per standard pass. The pass count follows from
/// the run length alone, never from how fast the host happens to be, so
/// every run takes the same samples (and its tails sit at the same
/// percentiles).
const PASS_SECONDS: f64 = 15.0;
/// Seed `RunMetrics::digest` is keyed with (the bench harness seed).
const DIGEST_SEED: u64 = 7;

/// The recorded digests: `scale/bench/protocol/seed → (digest, final
/// memory digest)`.
#[derive(Debug, Default)]
pub struct Golden(BTreeMap<String, (u64, u64)>);

impl Golden {
    /// The table compiled into the benchmark.
    pub fn recorded() -> Golden {
        Golden::parse(include_str!("../golden/figgrid.tsv"))
    }

    /// Parses the TSV form (`#` lines are comments).
    pub fn parse(text: &str) -> Golden {
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            if let [scale, bench, proto, seed, digest, mem, ..] = f[..] {
                let hex = |s: &str| u64::from_str_radix(s, 16).ok();
                if let (Some(d), Some(m)) = (hex(digest), hex(mem)) {
                    map.insert(format!("{scale}/{bench}/{proto}/{seed}"), (d, m));
                }
            }
        }
        Golden(map)
    }

    /// True when `m` matches the recorded digests of its cell.
    pub fn matches(&self, scale: &str, seed: u64, m: &RunMetrics) -> bool {
        let key = format!("{scale}/{}/{}/{seed}", m.workload, m.kind.label());
        self.0.get(&key) == Some(&(m.digest(DIGEST_SEED), m.final_mem_digest))
    }
}

/// One scale of the grid with its generated workloads.
struct Grid {
    scale_name: &'static str,
    cfg: GpuConfig,
    workloads: Vec<(Benchmark, Workload)>,
}

impl Grid {
    fn generate(scale_name: &'static str, seed: u64) -> Grid {
        let (cfg, scale) = match scale_name {
            "standard" => (GpuConfig::gtx480(), Scale::standard()),
            _ => (GpuConfig::small(), Scale::quick()),
        };
        let workloads = Benchmark::ALL
            .into_iter()
            .map(|b| (b, b.generate(&cfg, &scale, seed)))
            .collect();
        Grid {
            scale_name,
            cfg,
            workloads,
        }
    }

    fn cells(&self) -> impl Iterator<Item = (ProtocolKind, &Workload)> {
        self.workloads
            .iter()
            .flat_map(|(_, wl)| KINDS.map(|k| (k, wl)))
    }
}

/// One timed `try_simulate` call.
struct Cell {
    wall_s: f64,
    metrics: Option<RunMetrics>,
    ok: bool,
}

/// Cells of one grid, in run order.
#[derive(Default)]
struct Pass {
    cells: Vec<Cell>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }

    fn failed(&self) -> u64 {
        self.cells.iter().filter(|c| !c.ok).count() as u64
    }

    fn runs(&self) -> impl Iterator<Item = &RunMetrics> {
        self.cells.iter().filter_map(|c| c.metrics.as_ref())
    }
}

/// Distinct cells of one grid (both scales have the same cells).
fn grid_cells() -> usize {
    Benchmark::ALL.len() * KINDS.len()
}

/// Each cell's time at the host's usual speed, in grid order: the
/// upper quartile of its repetitions (the slowest of up to 3). `reps`
/// cycles through the grid's cells in order.
///
/// The host speeds up by up to 1.6× for seconds at a time. A sum or a
/// median of all repetitions moves with the share of the run those
/// bursts cover; the upper quartile moves only when three in four
/// repetitions of a cell fall into one.
fn base_times<'a>(reps: impl Iterator<Item = &'a Cell>) -> Vec<f64> {
    let cells = grid_cells();
    let mut by_cell = vec![Vec::new(); cells];
    for (i, c) in reps.enumerate() {
        by_cell[i % cells].push(c.wall_s);
    }
    by_cell
        .iter()
        .filter_map(|xs| stats::upper_quartile(xs))
        .collect()
}

/// Host time of `reps` cells run in grid order, each at its base time.
fn base_busy(base: &[f64], reps: usize) -> f64 {
    (0..reps).map(|i| base[i % base.len()]).sum()
}

/// Runs and times one cell, checking it against the recorded digests.
fn run_cell(
    grid: &Grid,
    kind: ProtocolKind,
    wl: &Workload,
    seed: u64,
    golden: &Golden,
    opts: &SimOptions,
) -> Cell {
    let t = Instant::now();
    let res = try_simulate(kind, &grid.cfg, wl, opts);
    let wall_s = t.elapsed().as_secs_f64();
    match res {
        Ok(m) => {
            let ok = golden.matches(grid.scale_name, seed, &m);
            if !ok {
                eprintln!(
                    "figgrid: {} {} {} seed {seed}: digest {:016x} / memory {:016x} \
                     does not match the recorded value",
                    grid.scale_name,
                    m.workload,
                    kind.label(),
                    m.digest(DIGEST_SEED),
                    m.final_mem_digest
                );
            }
            Cell {
                wall_s,
                metrics: Some(m),
                ok,
            }
        }
        Err(e) => {
            eprintln!("figgrid: {} {} {kind}: {e}", grid.scale_name, wl.name);
            Cell {
                wall_s,
                metrics: None,
                ok: false,
            }
        }
    }
}

fn run_pass(grid: &Grid, seed: u64, golden: &Golden, profile: bool) -> Pass {
    let opts = SimOptions {
        profile,
        ..SimOptions::fast()
    };
    Pass {
        cells: grid
            .cells()
            .map(|(kind, wl)| run_cell(grid, kind, wl, seed, golden, &opts))
            .collect(),
    }
}

/// Prints the golden table for workload seeds `0..seeds` (both grids),
/// using `threads` worker threads.
pub fn record_golden(seeds: u64, threads: usize) -> String {
    let rows = std::sync::Mutex::new(Vec::new());
    let next = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let seed = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if seed >= seeds {
                    return;
                }
                for scale in ["quick", "standard"] {
                    let grid = Grid::generate(scale, seed);
                    for (kind, wl) in grid.cells() {
                        let m = try_simulate(kind, &grid.cfg, wl, &SimOptions::fast())
                            .unwrap_or_else(|e| panic!("{scale} {} {kind}: {e}", wl.name));
                        let row = format!(
                            "{scale}\t{}\t{}\t{seed}\t{:016x}\t{:016x}\t{}",
                            m.workload,
                            kind.label(),
                            m.digest(DIGEST_SEED),
                            m.final_mem_digest,
                            m.cycles
                        );
                        rows.lock().expect("row list poisoned").push((seed, row));
                    }
                }
            });
        }
    });
    let mut rows = rows.into_inner().expect("row list poisoned");
    rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = String::from(
        "# figgrid golden digests: scale, bench, protocol, workload seed,\n\
         # RunMetrics::digest(7), final_mem_digest, cycles.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- \
         --record-golden 32\n",
    );
    for (_, row) in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// What the untraced body of a run measured.
struct Measured {
    setup_s: f64,
    std_grid: Grid,
    quick: Pass,
    standard: Vec<Pass>,
    rss_mb: f64,
}

/// Generates both grids, timed.
fn generate(seed: u64) -> (Grid, Grid, f64) {
    let t = Instant::now();
    let quick = Grid::generate("quick", seed);
    let standard = Grid::generate("standard", seed);
    (quick, standard, t.elapsed().as_secs_f64())
}

/// Runs one standard pass per [`PASS_SECONDS`] of `seconds` (at least
/// one). The host's speed drifts on a scale of seconds, so the short
/// measurements are spread over the same time: after each standard cell
/// come [`QUICK_PER_CELL`] quick cells, and after every
/// [`SETUP_EVERY`]-th one a repeat of the set-up.
fn measure(seed: u64, seconds: f64, golden: &Golden) -> Measured {
    let (quick_grid, std_grid, first) = generate(seed);
    let mut setups = vec![first];
    let quick_cells: Vec<(ProtocolKind, &Workload)> = quick_grid.cells().collect();
    let opts = SimOptions::fast();
    let mut quick = Pass::default();
    let passes = ((seconds / PASS_SECONDS) as usize).max(1);
    let mut standard = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut pass = Pass::default();
        for (i, (kind, wl)) in std_grid.cells().enumerate() {
            pass.cells
                .push(run_cell(&std_grid, kind, wl, seed, golden, &opts));
            for _ in 0..QUICK_PER_CELL {
                let (k, w) = quick_cells[quick.cells.len() % quick_cells.len()];
                quick
                    .cells
                    .push(run_cell(&quick_grid, k, w, seed, golden, &opts));
            }
            if (i + 1) % SETUP_EVERY == 0 && setups.len() < SETUP_REPS {
                setups.push(std::hint::black_box(generate(seed)).2);
            }
        }
        standard.push(pass);
    }
    Measured {
        setup_s: stats::median(&setups).expect("set-up ran"),
        std_grid,
        quick,
        standard,
        rss_mb: crate::peak_rss_mb(),
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let golden = Golden::recorded();
    let wl_seed = seed % GOLDEN_SEEDS;
    let m = measure(wl_seed, seconds, &golden);
    let passes: Vec<&Pass> = std::iter::once(&m.quick).chain(&m.standard).collect();
    let attempted: u64 = passes.iter().map(|p| p.cells.len() as u64).sum();
    let failed: u64 = passes.iter().map(|p| p.failed()).sum();
    let mut out = Outcome::new(attempted, failed);
    out.param("workload_seed", wl_seed as f64);
    out.param("threads", 1.0);
    out.param("standard_passes", m.standard.len() as f64);
    out.param("quick_cells", m.quick.cells.len() as f64);
    out.param("cell_time_percentile", 75.0);
    let first = &m.standard[0];
    let long = base_times(m.standard.iter().flat_map(|p| &p.cells));
    let short = base_times(m.quick.cells.iter());
    let first_cycles: u64 = first.runs().map(|r| r.cycles).sum();
    let cycles_per_s = first_cycles as f64 / long.iter().sum::<f64>();
    if !trace {
        let busy = base_busy(&long, m.standard.len() * grid_cells())
            + base_busy(&short, m.quick.cells.len());
        let x = &mut out.metrics;
        x.set("setup_s", m.setup_s);
        x.set("sim_cycles_per_s", cycles_per_s);
        x.set("jobs_per_s", attempted as f64 / busy);
        x.set("peak_rss_mb", m.rss_mb);
        out.latency("long", &long);
        out.latency("short", &short);
        return out;
    }
    let traced = run_pass(&m.std_grid, wl_seed, &golden, true);
    out.attempted += traced.cells.len() as u64;
    out.failed += traced.failed();
    // Exact counters must repeat between the two passes.
    for (a, b) in first.runs().zip(traced.runs()) {
        if !a.same_simulated_results(b) {
            eprintln!("figgrid: traced pass diverged on {} {}", a.workload, a.kind);
            out.failed += 1;
        }
    }
    let x = &mut out.metrics;
    x.set("workloads.generate_s", m.setup_s);
    x.set("sim.host_ns_per_cycle", 1e9 / cycles_per_s);
    set_phases(x, &traced.runs().collect::<Vec<_>>());
    set_engine_counters(x, &first.runs().collect::<Vec<_>>());
    x.set("model.rcc_speedup_inter_gmean", rcc_speedup(first));
    x.set("sim.slices_per_job", 1.0);
    x.set("sim.replay_ratio", 1.0);
    x.set("bench.trace_overhead", traced.wall_s() / first.wall_s());
    out
}

/// Sums the self-profile phases of `runs` into `sim.phase.*_s`.
pub fn set_phases(x: &mut Metrics, runs: &[&RunMetrics]) {
    let mut nanos = [0u64; 7];
    for r in runs {
        if let Some(p) = &r.profile {
            for (i, phase) in SimPhase::ALL.iter().take(7).enumerate() {
                nanos[i] += p.nanos(*phase);
            }
        }
    }
    let names = [
        "sim.phase.core_s",
        "sim.phase.l1_s",
        "sim.phase.l2_s",
        "sim.phase.noc_s",
        "sim.phase.dram_s",
        "sim.phase.rollover_s",
        "sim.phase.fast_forward_s",
    ];
    for (name, ns) in names.into_iter().zip(nanos) {
        x.set(name, ns as f64 / 1e9);
    }
}

/// Sums the exact engine and model counters of `runs`.
pub fn set_engine_counters(x: &mut Metrics, runs: &[&RunMetrics]) {
    let sum = |f: fn(&RunMetrics) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let cycles = sum(|r| r.cycles);
    x.set("sim.cycles", cycles);
    let skipped = sum(|r| r.skipped_cycles);
    x.set(
        "sim.skip_ratio",
        if cycles > 0.0 { skipped / cycles } else { 0.0 },
    );
    x.set("sim.ff_jumps", sum(|r| r.ff_jumps));
    x.set("sim.events_posted", sum(|r| r.sched.events_posted));
    x.set("sim.events_cancelled", sum(|r| r.sched.events_cancelled));
    let depth = runs.iter().map(|r| r.sched.queue_depth_max).max();
    x.set("sim.queue_depth_max", depth.unwrap_or(0) as f64);
    x.set("gpu.issued", sum(|r| r.core.issued));
    x.set("gpu.mem_ops", sum(|r| r.core.mem_ops));
    x.set("gpu.sc_stall_cycles", sum(|r| r.core.sc_stall_cycles));
    x.set("core.l1_loads", sum(|r| r.l1.loads));
    x.set("core.l1_load_hits", sum(|r| r.l1.load_hits));
    x.set("core.l1_expired_loads", sum(|r| r.l1.expired_loads));
    x.set("core.l1_renewed_loads", sum(|r| r.l1.renewed_loads));
    x.set("core.l2_gets", sum(|r| r.l2.gets));
    x.set("core.l2_renews_granted", sum(|r| r.l2.renews_granted));
    x.set(
        "core.l2_store_stall_cycles",
        sum(|r| r.l2.store_stall_cycles),
    );
    x.set("noc.flits", sum(|r| r.traffic.total_flits()));
    x.set("dram.reads", sum(|r| r.dram_reads));
    x.set("dram.writes", sum(|r| r.dram_writes));
    x.set("sim.rollovers", sum(|r| r.rollovers));
}

/// Geometric-mean speedup of RCC-SC over MESI on the inter-workgroup
/// benchmarks (the paper reports 1.76).
fn rcc_speedup(pass: &Pass) -> f64 {
    let runs: Vec<&RunMetrics> = pass.runs().collect();
    let cycles = |bench: Benchmark, kind: ProtocolKind| {
        runs.iter()
            .find(|r| r.workload == bench.name() && r.kind == kind)
            .map(|r| r.cycles as f64)
    };
    let speedups: Vec<f64> = Benchmark::inter_workgroup()
        .into_iter()
        .filter_map(|b| Some(cycles(b, ProtocolKind::Mesi)? / cycles(b, ProtocolKind::RccSc)?))
        .collect();
    stats::gmean(&speedups).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_digest_fails_the_gate() {
        let grid = Grid::generate("quick", 0);
        let (kind, wl) = grid.cells().next().expect("grid has cells");
        let m = try_simulate(kind, &grid.cfg, wl, &SimOptions::fast()).expect("cell runs");
        let row = |digest: u64, mem: u64| {
            format!(
                "quick\t{}\t{}\t0\t{digest:016x}\t{mem:016x}\t{}\n",
                m.workload,
                kind.label(),
                m.cycles
            )
        };
        let (d, mem) = (m.digest(DIGEST_SEED), m.final_mem_digest);
        assert!(Golden::parse(&row(d, mem)).matches("quick", 0, &m));
        assert!(!Golden::parse(&row(d ^ 1, mem)).matches("quick", 0, &m));
        assert!(!Golden::parse(&row(d, mem ^ (1 << 63))).matches("quick", 0, &m));
        assert!(
            !Golden::parse(&row(d, mem)).matches("quick", 1, &m),
            "other seed"
        );
        assert!(!Golden::default().matches("quick", 0, &m), "missing entry");

        // The same flip inside a whole pass is counted as a failure.
        let mut text = String::new();
        for (kind, wl) in grid.cells() {
            let m = try_simulate(kind, &grid.cfg, wl, &SimOptions::fast()).expect("cell runs");
            let flip = u64::from(text.is_empty());
            text.push_str(&format!(
                "quick\t{}\t{}\t0\t{:016x}\t{:016x}\t0\n",
                m.workload,
                kind.label(),
                m.digest(DIGEST_SEED) ^ flip,
                m.final_mem_digest
            ));
        }
        let pass = run_pass(&grid, 0, &Golden::parse(&text), false);
        assert_eq!(pass.failed(), 1);
    }

    #[test]
    fn recorded_table_covers_every_cell_and_seed() {
        let g = Golden::recorded();
        assert_eq!(
            g.0.len() as u64,
            2 * 12 * KINDS.len() as u64 * GOLDEN_SEEDS,
            "regenerate golden/figgrid.tsv with --record-golden {GOLDEN_SEEDS}"
        );
    }
}
