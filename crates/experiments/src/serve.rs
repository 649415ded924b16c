//! Multi-tenant serving harnesses (beyond the paper): the scripted
//! service demo and the sharding benchmark.
//!
//! Two subcommands on the binary drive one
//! [`CappingService`](ppep_serve::CappingService) each:
//!
//! * `serve` — a clean scripted fleet: every tenant admitted, no
//!   faults, per-tenant health printed at the end. `--out`
//!   additionally writes the per-tenant `serve_health.jsonl`.
//! * `serve-bench` — the sharding gate: the same concurrent trace
//!   replay in single-lock-compat (`shards = 1`) and sharded modes;
//!   fails unless the per-tenant reply transcripts are byte-identical
//!   *and* the sharded p99 beats the single-lock p99
//!   (`BENCH_serve_shard.json` under `--out`).
//!
//! `--shards N`, `--tenants N`, and `--transport unix|tcp` override
//! the shard count, fleet size, and route the frames over a real
//! socket instead of in-process calls.
//!
//! The chaos containment gate is a test of `ppep_serve::chaos`.

use crate::common::{Context, Scale};
use ppep_core::Ppep;
use ppep_serve::chaos::{self, ChaosConfig, ChaosReport};
use ppep_serve::loadgen::{self, LoadGenConfig, LoadGenReport};
use ppep_serve::TransportKind;
use ppep_types::{Error, Result};

/// CLI overrides shared by the serve subcommands (`0` = keep the
/// subcommand's default).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOpts {
    /// Service shards (`--shards`).
    pub shards: u32,
    /// Fleet / client count (`--tenants`).
    pub tenants: u32,
    /// Route frames over a real socket (`--transport unix|tcp`).
    pub transport: Option<TransportKind>,
}

/// Interval counts per scale.
fn intervals(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 120,
        Scale::Quick => 40,
    }
}

/// Runs the clean scripted fleet (the `serve` subcommand).
///
/// # Errors
///
/// Propagates training and service-level errors.
pub fn run_demo(ctx: &Context, opts: ServeOpts) -> Result<ChaosReport> {
    let ppep = Ppep::new(ctx.train_models()?);
    let mut config = ChaosConfig::smoke(ctx.seed);
    config.tenants = if opts.tenants > 0 { opts.tenants } else { 4 };
    config.storm_rate = 0.0; // no faults: a clean hosting run
    config.intervals = intervals(ctx.scale);
    config.shards = opts.shards.max(1);
    config.transport = opts.transport;
    chaos::run(&ppep, &config)
}

/// The sharding benchmark: one replay in single-lock-compat mode, one
/// sharded, plus the correctness cross-check.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Shards the sharded side ran.
    pub shards: u32,
    /// Best-of attempts taken (latency gates retry under timing
    /// noise; correctness never does).
    pub attempts: u32,
    /// The `shards = 1` baseline.
    pub single: LoadGenReport,
    /// The sharded run.
    pub sharded: LoadGenReport,
    /// Whether every tenant's reply transcript was byte-identical
    /// across the two modes.
    pub transcripts_identical: bool,
}

impl ServeBenchReport {
    /// single-lock p99 / sharded p99 (>1 means sharding won).
    pub fn speedup_p99(&self) -> f64 {
        self.single.p99_us / self.sharded.p99_us.max(1e-9)
    }

    /// One JSON object for the `BENCH_serve_shard.json` artifact.
    pub fn to_json(&self) -> String {
        let side = |r: &LoadGenReport| {
            format!(
                "{{\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1},\
                 \"throughput_fps\":{:.2},\"transcript_digest\":\"{:016x}\"}}",
                r.p50_us,
                r.p95_us,
                r.p99_us,
                r.throughput_fps,
                r.transcript_digest(),
            )
        };
        format!(
            "{{\"clients\":{},\"workers\":{},\"shards\":{},\"attempts\":{},\
             \"transcripts_identical\":{},\"single\":{},\"sharded\":{},\
             \"speedup_p99\":{:.3},\"speedup_throughput\":{:.3}}}",
            self.single.clients,
            self.single.workers,
            self.shards,
            self.attempts,
            self.transcripts_identical,
            side(&self.single),
            side(&self.sharded),
            self.speedup_p99(),
            self.sharded.throughput_fps / self.single.throughput_fps.max(1e-9),
        )
    }

    /// The sharding gate: byte-identical transcripts AND a sharded
    /// p99 strictly below the single-lock baseline.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] naming the violated clause.
    pub fn gate(&self) -> Result<()> {
        if !self.transcripts_identical {
            return Err(Error::InvalidInput(
                "serve-bench gate: sharded reply transcripts diverged from the \
                 single-lock baseline"
                    .into(),
            ));
        }
        if self.sharded.p99_us >= self.single.p99_us {
            return Err(Error::InvalidInput(format!(
                "serve-bench gate: sharded p99 {:.1} us is not below the \
                 single-lock p99 {:.1} us",
                self.sharded.p99_us, self.single.p99_us
            )));
        }
        Ok(())
    }
}

/// Runs the sharding benchmark (the `serve-bench` subcommand): at
/// least 8 tenants replayed under real thread contention, once
/// through one lock and once sharded. The latency comparison is
/// best-of-3 (timing noise); the transcript comparison is not — one
/// divergent byte fails immediately.
///
/// # Errors
///
/// Propagates training, admission, and wire errors. The gate verdict
/// is the caller's to enforce via [`ServeBenchReport::gate`].
pub fn run_serve_bench(ctx: &Context, opts: ServeOpts) -> Result<ServeBenchReport> {
    let ppep = Ppep::new(ctx.train_models()?);
    let clients = opts.tenants.max(8);
    let shards = if opts.shards > 1 { opts.shards } else { 4 };
    let mut config = LoadGenConfig::new(ctx.seed);
    config.clients = clients;
    config.intervals = intervals(ctx.scale);
    // Enough workers that the single lock is genuinely contended.
    config.workers = clients.clamp(4, 8);
    config.transport = opts.transport;

    let mut best: Option<ServeBenchReport> = None;
    for attempt in 1..=3u32 {
        config.shards = 1;
        let single = loadgen::run(&ppep, &config)?;
        config.shards = shards;
        let sharded = loadgen::run(&ppep, &config)?;
        let report = ServeBenchReport {
            shards,
            attempts: attempt,
            transcripts_identical: single.transcripts == sharded.transcripts,
            single,
            sharded,
        };
        if !report.transcripts_identical || report.gate().is_ok() {
            return Ok(report);
        }
        let better = match &best {
            Some(b) => report.speedup_p99() > b.speedup_p99(),
            None => true,
        };
        if better {
            best = Some(report);
        }
    }
    best.ok_or_else(|| Error::InvalidInput("serve-bench: no attempt completed".into()))
}

/// Prints the clean hosting summary.
pub fn print_demo(report: &ChaosReport) {
    println!("== Multi-tenant capping service: clean hosting run ==");
    println!("{}", report.summary());
    println!("tenant  slot  health    avail   fresh  held  failsafe  retries  granted");
    for t in &report.tenants {
        let health = match &t.evicted {
            Some(_) => "evicted".to_string(),
            None => t.health.to_string(),
        };
        println!(
            "{:>6}  {:>4}  {:<8}  {:.3}  {:>5}  {:>4}  {:>8}  {:>7}  {}",
            t.tenant,
            t.slot,
            health,
            t.availability,
            t.fresh_decisions,
            t.held_decisions,
            t.failsafe_intervals,
            t.retries,
            t.granted,
        );
    }
    println!(
        "granted budget: peak {} / final {} / socket cap {}",
        report.max_total_granted, report.final_total_granted, report.config.socket_cap
    );
}

/// Prints the sharding-benchmark summary.
pub fn print_serve_bench(report: &ServeBenchReport) {
    println!("== Multi-tenant capping service: sharding benchmark ==");
    println!(
        "{} clients x {} workers, single lock vs {} shards (best of {} attempt(s))",
        report.single.clients, report.single.workers, report.shards, report.attempts
    );
    println!(
        "single lock: p50 {:.0} us, p95 {:.0} us, p99 {:.0} us, {:.0} frames/s",
        report.single.p50_us,
        report.single.p95_us,
        report.single.p99_us,
        report.single.throughput_fps
    );
    println!(
        "    sharded: p50 {:.0} us, p95 {:.0} us, p99 {:.0} us, {:.0} frames/s",
        report.sharded.p50_us,
        report.sharded.p95_us,
        report.sharded.p99_us,
        report.sharded.throughput_fps
    );
    println!(
        "p99 speedup {:.2}x; transcripts {}",
        report.speedup_p99(),
        if report.transcripts_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    match report.gate() {
        Ok(()) => println!("sharding gate: PASS"),
        Err(e) => println!("sharding gate: FAIL — {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::DEFAULT_SEED;

    #[test]
    fn serve_bench_gate_passes_at_quick_scale() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED).with_jobs(4);
        let report = run_serve_bench(&ctx, ServeOpts::default()).expect("bench completes");
        assert!(
            report.transcripts_identical,
            "modes must agree byte-for-byte"
        );
        assert!(report.single.clients >= 8);
        assert_eq!(report.sharded.shards as u32, report.shards);
        let json = report.to_json();
        assert!(json.contains("\"speedup_p99\""), "{json}");
        assert!(json.contains("\"transcripts_identical\":true"), "{json}");
    }

    #[test]
    fn clean_demo_keeps_every_tenant_healthy() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let report = run_demo(&ctx, ServeOpts::default()).expect("demo run completes");
        for t in &report.tenants {
            assert!(t.evicted.is_none(), "tenant {} evicted", t.tenant);
            assert!(
                (t.availability - 1.0).abs() < 1e-9,
                "tenant {}: availability {}",
                t.tenant,
                t.availability
            );
        }
        assert!(report.max_total_granted <= report.config.socket_cap);
    }
}
