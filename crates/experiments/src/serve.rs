//! Multi-tenant serving harnesses (beyond the paper): the scripted
//! service demo, the chaos containment gate, the load generator, and
//! the sharding benchmark.
//!
//! Four subcommands on the binary drive one [`CappingService`] each:
//!
//! * `serve` — a clean scripted fleet: every tenant admitted, no
//!   faults, per-tenant health printed at the end.
//! * `serve-chaos` — the CI containment gate: a fault storm aimed at
//!   exactly one tenant; the run *fails* (nonzero exit) unless the
//!   victim visibly degrades while every survivor sustains its
//!   availability floor and the granted budget never exceeds the
//!   socket cap. `--out` additionally writes the per-tenant
//!   `serve_health.jsonl` artifact.
//! * `load-gen` — concurrent trace replay against the service,
//!   reporting sustained frame throughput and p50/p95/p99 round-trip
//!   latency (`BENCH_serve.json` under `--out`).
//! * `serve-bench` — the sharding gate: the same replay in
//!   single-lock-compat (`shards = 1`) and sharded modes; fails
//!   unless the per-tenant reply transcripts are byte-identical *and*
//!   the sharded p99 beats the single-lock p99
//!   (`BENCH_serve_shard.json` under `--out`).
//!
//! `--shards N`, `--tenants N`, and `--transport unix|tcp` override
//! the shard count, fleet size, and (for chaos/load-gen) route the
//! frames over a real socket instead of in-process calls.

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

/// Runs the containment gate scenario (the `serve-chaos` subcommand).
///
/// # Errors
///
/// Propagates training and service-level errors; the *gate* verdict is
/// the caller's to enforce via [`ChaosReport::gate`].
pub fn run_chaos(ctx: &Context, opts: ServeOpts) -> Result<ChaosReport> {
    let ppep = Ppep::new(ctx.train_models()?);
    let mut config = ChaosConfig::smoke(ctx.seed);
    config.intervals = intervals(ctx.scale);
    if opts.tenants > 0 {
        config.tenants = opts.tenants;
    }
    config.shards = opts.shards.max(1);
    config.transport = opts.transport;
    chaos::run(&ppep, &config)
}

/// Runs the load generator (the `load-gen` subcommand). `--jobs` sets
/// the replay workers; `--tenants` the client count (default: the
/// worker count, min 2).
///
/// # Errors
///
/// Propagates training, admission, and wire errors.
pub fn run_loadgen(ctx: &Context, opts: ServeOpts) -> Result<LoadGenReport> {
    let ppep = Ppep::new(ctx.train_models()?);
    let mut config = LoadGenConfig::new(ctx.seed);
    let workers = (ctx.jobs.max(2)) as u32;
    config.workers = workers;
    config.clients = if opts.tenants > 0 {
        opts.tenants
    } else {
        workers
    };
    config.intervals = intervals(ctx.scale);
    config.shards = opts.shards.max(1);
    config.transport = opts.transport;
    loadgen::run(&ppep, &config)
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

fn print_tenants(report: &ChaosReport) {
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
}

/// Prints the clean hosting summary.
pub fn print_demo(report: &ChaosReport) {
    println!("== Multi-tenant capping service: clean hosting run ==");
    println!("{}", report.summary());
    print_tenants(report);
    println!(
        "granted budget: peak {} / final {} / socket cap {}",
        report.max_total_granted, report.final_total_granted, report.config.socket_cap
    );
}

/// Prints the chaos containment summary.
pub fn print_chaos(report: &ChaosReport) {
    println!("== Multi-tenant capping service: chaos containment gate ==");
    println!("{}", report.summary());
    print_tenants(report);
    println!(
        "victim received {} failsafe-pinned replies; granted budget peak {} / cap {}",
        report.victim_failsafe_replies, report.max_total_granted, report.config.socket_cap
    );
    match report.gate() {
        Ok(()) => println!("containment gate: PASS"),
        Err(e) => println!("containment gate: FAIL — {e}"),
    }
}

/// Prints the load-generator summary.
pub fn print_loadgen(report: &LoadGenReport) {
    println!("== Multi-tenant capping service: concurrent load generator ==");
    println!(
        "{} clients on {} shard(s) via {} ({} workers): {} frames in {:.3} s -> {:.0} frames/s ({} evictions)",
        report.clients,
        report.shards,
        report.transport,
        report.workers,
        report.frames,
        report.wall_seconds,
        report.throughput_fps,
        report.evictions
    );
    println!(
        "frame round-trip: p50 {:.0} us, p95 {:.0} us, p99 {:.0} us, max {:.0} us",
        report.p50_us, report.p95_us, report.p99_us, report.max_us
    );
    for (shard, p99) in &report.shard_p99_us {
        let gauge = report.shard_gauges.iter().find(|g| g.shard == *shard);
        println!(
            "  shard {shard}: p99 {:.0} us, {} tenants, queue depth {}",
            p99,
            gauge.map_or(0, |g| g.live),
            gauge.map_or(0, |g| g.queue_depth),
        );
    }
    println!("aggregate granted budget at end: {}", report.total_granted);
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
    fn chaos_gate_passes_at_quick_scale() {
        let ctx = Context::fx8320(Scale::Quick, DEFAULT_SEED);
        let report = run_chaos(&ctx, ServeOpts::default()).expect("chaos run completes");
        report.gate().expect("containment gate holds");
        assert_eq!(report.tenants.len(), 8);
    }

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
