//! Pieces every workload shares: options, training, trace synthesis,
//! the seeded input generator, digests, and process measurements.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ppep_core::Ppep;
use ppep_rig::TrainingRig;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::SimPlatform;
use ppep_telemetry::{IntervalRecord, Platform};
use ppep_workloads::WorkloadSpec;

use crate::report::Report;
use crate::stats::{Samples, Summary, Windows, P99_SAMPLES};

/// The benchmark's error type: any failure ends the run.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;
/// Result alias over [`BenchError`].
pub type BenchResult<T> = Result<T, BenchError>;

/// The model bundle is part of the program's configuration, not of the
/// workload inputs: every run trains with this seed, so `--seed` moves
/// only the generated traffic.
pub const TRAIN_SEED: u64 = 42;

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed for every generated input.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// How many times set-up runs; `setup_s` is the median pass.
    pub setup_repeats: usize,
}

impl Opts {
    /// `share` of the measuring budget, in seconds.
    pub fn budget(&self, share: f64) -> f64 {
        self.seconds * share
    }
}

/// When a time-bounded phase stops: once its budget has elapsed and it
/// has measured [`P99_SAMPLES`] operations, or once it has measured its
/// cap.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Seconds to run for.
    pub budget_s: f64,
    /// Operations to measure at most.
    pub max_ops: usize,
}

impl Stop {
    /// A phase of `budget_s` seconds and at least [`P99_SAMPLES`]
    /// operations.
    pub fn after(budget_s: f64) -> Self {
        Self {
            budget_s,
            max_ops: usize::MAX,
        }
    }

    /// A phase that ends once it has measured `n` operations, however
    /// long they take.
    pub fn ops(n: usize) -> Self {
        Self {
            budget_s: f64::INFINITY,
            max_ops: n,
        }
    }

    /// The same phase, ending early after [`TRACED_OPS`] operations: a
    /// traced phase keeps every span in memory.
    pub fn traced(self) -> Self {
        Self {
            max_ops: TRACED_OPS,
            ..self
        }
    }

    /// Whether a phase that began at `start` and measured `ops`
    /// operations is done.
    pub fn reached(&self, start: Instant, ops: usize) -> bool {
        ops >= self.max_ops || (secs(start) >= self.budget_s && ops >= P99_SAMPLES)
    }
}

/// Most end-to-end operations a traced phase records.
pub const TRACED_OPS: usize = 20_000;

/// Reports a measured phase's [`Windows`]: `latency_p50_us` and
/// `latency_p99_us` from the fastest window, and under `name` the
/// window count and the median window's p50, p99 and rate.
///
/// # Errors
///
/// [`crate::stats::EmptySamples`] when no window held enough samples.
pub fn report_windows(report: &mut Report, name: &str, windows: Windows) -> BenchResult<Summary> {
    let s = windows.finish()?;
    report.put("latency_p50_us", s.best.p50, "us");
    report.put("latency_p99_us", s.best.p99, "us");
    report.put(format!("{name}.windows"), s.windows as f64, "count");
    report.put(format!("{name}.window_median_p50_us"), s.median.p50, "us");
    report.put(format!("{name}.window_median_p99_us"), s.median.p99, "us");
    report.put(format!("{name}.window_median_rate"), s.median.rate, "1/s");
    Ok(s)
}

/// Trains the model bundle the program under test runs with.
///
/// # Errors
///
/// Propagates training failures.
pub fn train() -> BenchResult<Ppep> {
    Ok(Ppep::new(TrainingRig::fx8320(TRAIN_SEED).train_quick()?))
}

/// Wall-clock seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Microseconds since `start`.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// What one set-up pass cost, by layer.
#[derive(Debug, Default, Clone)]
pub struct SetupCost {
    /// Whole set-up, seconds.
    pub total_s: f64,
    /// `TrainingRig` training, seconds.
    pub train_s: f64,
    /// Trace synthesis on the simulator, seconds.
    pub synth_s: f64,
}

/// A hook the measurement calls between its operations, outside any
/// timed span, to run the set-up passes that are due.
pub type Between<'a> = &'a mut dyn FnMut() -> BenchResult<()>;

/// Runs set-up `opts.setup_repeats` times and reports `setup_s` as the
/// median pass. The first pass builds what `measure` runs on. The
/// others run when `measure` calls its [`Between`] hook, spaced evenly
/// over `opts.seconds`, so the passes sample the whole run rather than
/// one stretch of a shared machine; any still owed run after it.
///
/// # Errors
///
/// Propagates set-up and measurement failures.
pub fn with_setups<T, R>(
    opts: &Opts,
    report: &mut Report,
    mut setup: impl FnMut(&mut SetupCost) -> BenchResult<T>,
    measure: impl FnOnce(T, &mut Report, Between<'_>) -> BenchResult<R>,
) -> BenchResult<R> {
    let mut costs = Vec::new();
    let mut pass = |costs: &mut Vec<SetupCost>| -> BenchResult<T> {
        let mut cost = SetupCost::default();
        let start = Instant::now();
        let built = setup(&mut cost)?;
        cost.total_s = secs(start);
        costs.push(cost);
        Ok(built)
    };
    let built = pass(&mut costs)?;
    let start = Instant::now();
    let every_s = opts.seconds / opts.setup_repeats as f64;
    let out = {
        let mut between = || -> BenchResult<()> {
            while costs.len() < opts.setup_repeats && secs(start) >= every_s * costs.len() as f64 {
                drop(pass(&mut costs)?);
            }
            Ok(())
        };
        measure(built, report, &mut between)?
    };
    while costs.len() < opts.setup_repeats {
        drop(pass(&mut costs)?);
    }
    report_setup(report, &costs);
    Ok(out)
}

/// Reports the set-up passes: `setup_s` and each layer's share as
/// medians over the passes, and the fastest pass as a diagnostic.
fn report_setup(report: &mut Report, costs: &[SetupCost]) {
    let column = |f: fn(&SetupCost) -> f64| Samples::new(costs.iter().map(f).collect());
    let Ok(total) = column(|c| c.total_s) else {
        return;
    };
    report.put("setup_s", total.percentile(0.5), "s");
    report.put("setup.fastest_s", total.min(), "s");
    if let Ok(train) = column(|c| c.train_s) {
        report.put("rig.train_s", train.percentile(0.5), "s");
    }
    if let Ok(synth) = column(|c| c.synth_s) {
        report.put("sim.synthesize_s", synth.percentile(0.5), "s");
    }
    report.put("setup_repeats", costs.len() as f64, "count");
}

/// Samples `n` fault-free intervals of `spec` on a PG-enabled
/// simulated FX-8320, timing every `Platform::sample` call (the same
/// loop as `ppep_serve::loadgen::synthesize_trace`, over any mix).
///
/// # Errors
///
/// A sample error: with no fault plan installed none is expected.
pub fn synthesize(
    spec: &WorkloadSpec,
    sim_seed: u64,
    n: usize,
    sample_us: &mut Vec<f64>,
) -> BenchResult<Vec<IntervalRecord>> {
    let mut platform = SimPlatform::new(ChipSimulator::new(SimConfig::fx8320_pg(sim_seed)));
    platform.load_workload(spec);
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let record = platform.sample();
        sample_us.push(us_since(start));
        records.push(record?);
    }
    Ok(records)
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend
/// on nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// FNV-1a, 64-bit: the semantic digests over decoded decisions, and
/// the running hash of each reply transcript.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The directory runs write into (sockets, spans): `target/run` under
/// the benchmark package, spelled relative to the working directory
/// when possible so Unix socket paths stay short.
pub fn run_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("run");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(&cwd).ok().map(Path::to_path_buf))
        .filter(|rel| !rel.as_os_str().is_empty())
        .unwrap_or(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_stream_separated() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed, same draw");
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
