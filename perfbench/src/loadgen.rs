//! Seeded job generators for the service workloads.
//!
//! Everything here is a pure function of the seed: the same seed always
//! yields the same per-client job sequence and the same probe jobs. The
//! service only ever sees the generated spec texts.

/// SplitMix64: small, fast, and good enough to draw workloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Every protocol the service accepts, by its wire name.
pub const PROTOCOLS: [&str; 7] = ["mesi", "mesi-wb", "tcs", "tcw", "rcc", "rcc-wo", "ideal"];
/// The litmus suite, by name.
pub const LITMUS: [&str; 9] = [
    "mp",
    "mp+fence",
    "mp+atomic",
    "sb",
    "sb+fence",
    "lb",
    "wrc",
    "corr",
    "iriw",
];
/// The Table IV benchmarks, by name.
pub const BENCHES: [&str; 12] = [
    "bh", "bfs", "cl", "dlb", "stn", "vpr", "hsp", "kmn", "lps", "ndl", "sr", "lud",
];
/// Preemption-probe jobs: these benchmarks × these protocols at
/// standard scale on 8 cores (5–7 quanta each at the default quantum).
pub const LONG_BENCHES: [&str; 4] = ["bh", "dlb", "hsp", "kmn"];
/// Protocols of the preemption-probe jobs.
pub const LONG_PROTOCOLS: [&str; 3] = ["rcc", "tcw", "mesi"];

/// Share of `serve-short` jobs that record an RCCT trace, in percent.
/// Not measured from real traffic: nothing in the repository says how
/// often users set `record_trace`. It is off by default, so most jobs
/// skip the trace path; a minority share exercises that path on every
/// run without letting it dominate. See `perfbench/README.md`.
pub const TRACE_PERCENT: u64 = 20;

/// Which latency class a job reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The workload's heavy jobs.
    Long,
    /// The workload's light jobs.
    Short,
}

fn bench_spec(protocol: &str, bench: &str, scale: &str, cores: Option<u64>, seed: u64) -> String {
    let cores = cores
        .map(|c| format!(", \"cores\": {c}"))
        .unwrap_or_default();
    format!(
        "{{\"version\": 1, \"protocol\": \"{protocol}\", \"workload\": {{\"kind\": \"bench\", \
         \"name\": \"{bench}\", \"scale\": \"{scale}\"{cores}, \"seed\": {seed}}}"
    )
}

fn litmus_spec(protocol: &str, name: &str, seed: u64) -> String {
    format!(
        "{{\"version\": 1, \"protocol\": \"{protocol}\", \"workload\": {{\"kind\": \"litmus\", \
         \"name\": \"{name}\", \"seed\": {seed}}}"
    )
}

/// A probe job: `bench` at standard scale on 8 cores under `protocol`,
/// priority 2, with a workload seed drawn from `rng`.
fn long_spec(bench: &str, protocol: &str, rng: &mut Rng) -> String {
    let body = bench_spec(protocol, bench, "standard", Some(8), rng.below(1 << 16));
    format!("{body}, \"options\": {{\"priority\": 2}}}}")
}

/// One long job per (bench, protocol) pair, with workload seeds drawn
/// from `seed`: the jobs of the preemption probe.
pub fn long_specs(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 3);
    LONG_BENCHES
        .iter()
        .flat_map(|b| LONG_PROTOCOLS.iter().map(move |p| (*b, *p)))
        .map(|(b, p)| long_spec(b, p, &mut rng))
        .collect()
}

/// Closed-loop jobs a `serve-short` client gets per second of run, at
/// most: a client on the host the benchmark was sized on finished about
/// 11 per second, so the generated sequence is not exhausted.
const CLIENT_JOBS_PER_S: f64 = 15.0;

/// The closed-loop job sequence of one `serve-short` client: quick-scale
/// litmus jobs (short class) and quick-scale bench jobs (long class)
/// on every protocol, a share of them recording a trace. The sequence is
/// made of shuffled blocks that hold every (protocol, workload) pair
/// once, so the job mix a run completes barely depends on the seed.
pub fn client_jobs(seed: u64, client: u64, seconds: f64) -> Vec<(Class, String)> {
    let mut rng = Rng::new(seed, 100 + client);
    let mut block: Vec<(Class, &str, &str)> = Vec::new();
    for p in PROTOCOLS {
        block.extend(LITMUS.iter().map(|l| (Class::Short, p, *l)));
        block.extend(BENCHES.iter().map(|b| (Class::Long, p, *b)));
    }
    let want = (seconds * CLIENT_JOBS_PER_S).ceil() as usize;
    let mut out = Vec::with_capacity(want.div_ceil(block.len()) * block.len());
    while out.len() < want {
        rng.shuffle(&mut block);
        for &(class, protocol, name) in &block {
            let seed = rng.below(8);
            let body = match class {
                Class::Short => litmus_spec(protocol, name, seed),
                Class::Long => bench_spec(protocol, name, "quick", None, seed),
            };
            let trace = rng.below(100) < TRACE_PERCENT;
            out.push((
                class,
                format!("{body}, \"options\": {{\"record_trace\": {trace}}}}}"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_schedule() {
        assert_eq!(long_specs(42), long_specs(42));
        assert_ne!(long_specs(42), long_specs(43));
        assert_eq!(client_jobs(42, 0, 20.0), client_jobs(42, 0, 20.0));
        assert_ne!(client_jobs(42, 0, 20.0), client_jobs(42, 1, 20.0));
        assert_ne!(client_jobs(42, 0, 20.0), client_jobs(43, 0, 20.0));
    }

    #[test]
    fn generated_specs_are_valid() {
        for text in long_specs(7) {
            let spec = rcc_serve::JobSpec::parse(&text).expect("generated spec is valid");
            assert_eq!(spec.priority, 2);
        }
        let jobs = client_jobs(7, 0, 20.0);
        assert!(jobs.len() >= 300);
        for (_, text) in &jobs {
            rcc_serve::JobSpec::parse(text).expect("generated spec is valid");
        }
    }
}
