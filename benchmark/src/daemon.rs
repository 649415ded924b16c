//! `daemon-capping`: the paper's single-machine online loop.
//!
//! One thread drives `ResilientDaemon<SimPlatform, OneStepCapping>`
//! closed loop over episodes of the Fig. 7 mix. Episode `k` simulates
//! with seed `seed + k` under a 5% `FaultPlan::storm`, while the power
//! cap alternates between 95 W and 40 W every 500 intervals. The first
//! 1,000 intervals of the first episode warm up untimed. An interval
//! (the end-to-end operation) is one cap update plus one supervised
//! `step`: sample → validate → project → decide → apply.
//!
//! The traced run wraps the simulator and the controller in
//! benchmark-side `Platform` / `DvfsController` impls, so the real
//! `ResilientDaemon::step` calls through timed `sample`, `apply` and
//! `decide`. Projection happens inside the step where nothing outside
//! can time it; `core` is priced by re-projecting each sampled record
//! after the step, off the interval's path.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use ppep_core::daemon::{DvfsController, PpepDaemon};
use ppep_core::ppe::PpeProjection;
use ppep_core::resilient::{Action, ResilientDaemon, SupervisedStep, SupervisorConfig};
use ppep_core::Ppep;
use ppep_dvfs::OneStepCapping;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::{IntervalRecord, Platform};
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Result, Topology, VfStateId, Watts};
use ppep_workloads::combos::fig7_workload;

use crate::common::{
    peak_rss_mb, report_windows, secs, train, us_since, with_setups, BenchResult, Between, Fnv,
    Opts, SetupCost, Stop,
};
use crate::report::Report;
use crate::serve::{self, Op, Traffic};
use crate::spans::{report_layers, Interleaved, Req, Tracer};
use crate::stats::{Samples, Windows};

/// Intervals per episode.
const EPISODE: u64 = 2_500;
/// Intervals between cap changes.
const CAP_PERIOD: u64 = 500;
/// Untimed intervals at the start of the first episode.
const WARMUP: u64 = 1_000;
/// Per-interval fault probability of each episode's storm.
const STORM_RATE: f64 = 0.05;
/// Intervals whose decisions the golden digest covers.
const GOLDEN_INTERVALS: u64 = 4_000;
/// Most records the traced run hands the serve-layer pricing.
const PROBE_OPS: usize = 4_000;
/// Intervals between calls to the set-up hook (~12 ms).
const BETWEEN_EVERY: u64 = 512;
/// Window over which interval latency and rate are summarized: ~4,000
/// intervals, short enough to fall inside one quiet stretch.
const WINDOW_S: f64 = 0.1;

/// The cap in force at interval `i` of an episode.
fn cap_at(i: u64) -> Watts {
    if (i / CAP_PERIOD).is_multiple_of(2) {
        Watts::new(95.0)
    } else {
        Watts::new(40.0)
    }
}

/// Episode `k`'s simulated chip: the Fig. 7 mix under a seeded storm.
fn platform(seed: u64, k: u64) -> SimPlatform {
    let s = seed.wrapping_add(k);
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(s));
    sim.load_workload(&fig7_workload(s));
    let cores = sim.topology().core_count();
    sim.set_fault_plan(FaultPlan::storm(s, EPISODE, STORM_RATE, cores));
    SimPlatform::new(sim)
}

fn supervised<P: Platform, C: DvfsController>(
    ppep: &Ppep,
    platform: P,
    controller: C,
) -> ResilientDaemon<P, C> {
    let lowest = ppep.models().vf_table().lowest();
    ResilientDaemon::new(
        PpepDaemon::new(ppep.clone(), platform, controller),
        SupervisorConfig::new(lowest),
    )
}

/// A benchmark-side wrapper that times the calls the daemon makes into
/// the platform (`sim`) or the controller (`dvfs`).
struct Timed<'a, T> {
    inner: T,
    tracer: &'a RefCell<Tracer>,
    interval: &'a Cell<u64>,
}

impl<T> Timed<'_, T> {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        let req = Req::Interval(self.interval.get());
        let id = self.tracer.borrow_mut().open(name, req);
        let out = f(&mut self.inner);
        self.tracer.borrow_mut().close(id);
        out
    }
}

impl<P: Platform> Platform for Timed<'_, P> {
    fn sample(&mut self) -> Result<IntervalRecord> {
        self.time("sim.sample", P::sample)
    }

    fn resample(&mut self, backoff_us: u64) -> Option<Result<IntervalRecord>> {
        self.inner.resample(backoff_us)
    }

    fn apply(&mut self, assignment: &[VfStateId]) -> Result<()> {
        self.time("sim.apply", |p| p.apply(assignment))
    }

    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn current_interval(&self) -> IntervalIndex {
        self.inner.current_interval()
    }
}

impl<C: DvfsController> DvfsController for Timed<'_, C> {
    fn decide(&mut self, projection: &PpeProjection) -> Result<Vec<VfStateId>> {
        self.time("dvfs.decide", |c| c.decide(projection))
    }

    fn enforced_cap(&self) -> Option<Watts> {
        self.inner.enforced_cap()
    }

    fn set_enforced_cap(&mut self, cap: Watts) {
        self.inner.set_enforced_cap(cap);
    }
}

/// What a run over episodes measured.
#[derive(Debug)]
struct Episodes {
    /// Per timed interval: cap update + supervised step, by when it
    /// ended (seconds after the first timed interval began).
    windows: Windows,
    /// Timed intervals.
    count: usize,
    failed: u64,
    digest: Fnv,
    fresh: u64,
    held: u64,
    failsafe: u64,
    retries: u64,
}

/// Runs episodes until `stop`, checking the clock at every cap change.
/// `make` builds episode `k`'s daemon; `after` sees every completed
/// step, outside the interval's timing. With `split`, every other
/// timed interval is traced and each one's duration lands there.
fn drive<P: Platform, C: DvfsController>(
    stop: Stop,
    tracer: &RefCell<Tracer>,
    interval: &Cell<u64>,
    mut split: Option<&mut Interleaved>,
    mut make: impl FnMut(u64) -> ResilientDaemon<P, C>,
    mut after: impl FnMut(u64, &SupervisedStep) -> BenchResult<()>,
) -> BenchResult<Episodes> {
    let mut out = Episodes {
        windows: Windows::new(WINDOW_S),
        count: 0,
        failed: 0,
        digest: Fnv::default(),
        fresh: 0,
        held: 0,
        failsafe: 0,
        retries: 0,
    };
    let mut timed_from: Option<Instant> = None;
    let mut global = 0u64;
    for k in 0.. {
        let mut daemon = make(k);
        let mut finished = false;
        for i in 0..EPISODE {
            if i % CAP_PERIOD == 0 && timed_from.is_some_and(|t| stop.reached(t, out.count)) {
                finished = true;
                break;
            }
            let warm = k == 0 && i < WARMUP;
            if !warm && timed_from.is_none() {
                timed_from = Some(Instant::now());
            }
            interval.set(global);
            let req = Req::Interval(global);
            let traced = !warm && split.as_deref_mut().is_some_and(Interleaved::next_traced);
            if split.is_some() {
                tracer.borrow_mut().set_enabled(traced);
            }
            let start = Instant::now();
            let root = tracer.borrow_mut().open("op.interval", req);
            daemon
                .inner_mut()
                .controller_mut()
                .set_enforced_cap(cap_at(i));
            let span = tracer.borrow_mut().open("daemon.step", req);
            let step = daemon.step();
            tracer.borrow_mut().close(span);
            tracer.borrow_mut().close(root);
            let us = us_since(start);
            if let (false, Some(from)) = (warm, timed_from) {
                out.windows.push(secs(from), us);
                out.count += 1;
                if let Some(split) = split.as_deref_mut() {
                    split.push(traced, us);
                }
            }
            match step {
                Ok(step) => {
                    if global < GOLDEN_INTERVALS {
                        out.digest.u64(match step.action {
                            Action::Fresh => 0,
                            Action::Held => 1,
                            Action::Failsafe => 2,
                        });
                        for vf in &step.decision {
                            out.digest.u64(vf.index() as u64);
                        }
                    }
                    after(global, &step)?;
                }
                Err(_) => {
                    // Only a non-transient error escapes the
                    // supervisor; that episode's daemon is done.
                    out.failed += 1;
                    global += 1;
                    break;
                }
            }
            global += 1;
        }
        let report = daemon.report();
        out.fresh += report.fresh_decisions;
        out.held += report.held_decisions;
        out.failsafe += report.failsafe_intervals;
        out.retries += report.retries;
        if finished {
            break;
        }
    }
    Ok(out)
}

fn setup(cost: &mut SetupCost) -> BenchResult<Ppep> {
    let start = Instant::now();
    let ppep = train()?;
    cost.train_s = secs(start);
    Ok(ppep)
}

/// The untraced daemon run over plain `SimPlatform` / `OneStepCapping`,
/// calling `between` every [`BETWEEN_EVERY`] intervals.
fn run_plain(ppep: &Ppep, seed: u64, stop: Stop, between: Between<'_>) -> BenchResult<Episodes> {
    let tracer = RefCell::new(Tracer::disabled());
    let interval = Cell::new(0);
    drive(
        stop,
        &tracer,
        &interval,
        None,
        |k| {
            supervised(
                ppep,
                platform(seed, k),
                OneStepCapping::new(ppep.clone(), cap_at(0)),
            )
        },
        |global, _| {
            if global % BETWEEN_EVERY == 0 {
                between()?;
            }
            Ok(())
        },
    )
}

fn report_health(report: &mut Report, run: &Episodes) {
    report.put("daemon.fresh", run.fresh as f64, "count");
    report.put("daemon.held", run.held as f64, "count");
    report.put("daemon.failsafe", run.failsafe as f64, "count");
    report.put("daemon.retries", run.retries as f64, "count");
}

/// `daemon-capping`, untraced.
///
/// # Errors
///
/// Training failures end the run.
pub fn run(opts: &Opts, report: &mut Report) -> BenchResult<()> {
    with_setups(opts, report, setup, |ppep, report, between| {
        measure(opts, &ppep, report, between)
    })
}

fn measure(opts: &Opts, ppep: &Ppep, report: &mut Report, between: Between<'_>) -> BenchResult<()> {
    let run = run_plain(ppep, opts.seed, Stop::after(opts.seconds), between)?;
    if let Some(rss) = peak_rss_mb() {
        report.put("peak_rss_mb", rss, "MB");
    }
    report_health(report, &run);
    report.attempted = run.count as u64;
    report.failed = run.failed;
    report.digest = Some(run.digest.finish());
    let s = report_windows(report, "interval", run.windows)?;
    report.put("throughput_per_s", s.best.rate, "1/s");
    Ok(())
}

/// `daemon-capping`, traced: episodes through the timed wrappers with
/// every other interval traced (the untraced half gives the end-to-end
/// p50), the same intervals untraced (whose decisions must match bit
/// for bit), then the serve layers priced on the records the traced
/// run sampled.
///
/// # Errors
///
/// Training or pricing failures end the run.
pub fn run_traced(opts: &Opts, report: &mut Report) -> BenchResult<Tracer> {
    with_setups(opts, report, setup, |ppep, report, _| {
        measure_traced(opts, &ppep, report)
    })
}

fn measure_traced(opts: &Opts, ppep: &Ppep, report: &mut Report) -> BenchResult<Tracer> {
    let tracer = RefCell::new(Tracer::new());
    let interval = Cell::new(0);
    let mut split = Interleaved::default();
    let mut records = Vec::new();
    let mut ops = Vec::new();
    let mut busy = Vec::new();
    let seed = opts.seed;
    let traced = drive(
        Stop::after(opts.budget(0.4)).traced(),
        &tracer,
        &interval,
        Some(&mut split),
        |k| {
            supervised(
                ppep,
                Timed {
                    inner: platform(seed, k),
                    tracer: &tracer,
                    interval: &interval,
                },
                Timed {
                    inner: OneStepCapping::new(ppep.clone(), cap_at(0)),
                    tracer: &tracer,
                    interval: &interval,
                },
            )
        },
        |global, step| {
            let req = Req::Interval(global);
            let mut t = tracer.borrow_mut();
            if let Some(record) = &step.record {
                let high = t.time("core.project", req, || ppep.project(record))?;
                t.time("core.project_nb", req, || {
                    ppep.project_nb(record, NbVfState::Low)
                })?;
                let cap = cap_at(global % EPISODE);
                t.time("dvfs.select", req, || {
                    std::hint::black_box((
                        high.best_energy_vf(),
                        high.best_edp_vf(),
                        high.fastest_under_cap(cap),
                    ))
                });
                busy.push(high.busy_core_count() as f64);
            }
            if ops.len() < PROBE_OPS {
                match (&step.record, &step.fault) {
                    (Some(record), _) => {
                        ops.push(Op::Submit(records.len()));
                        records.push(record.clone());
                    }
                    (None, Some(fault)) => ops.push(Op::Fault(fault.clone())),
                    (None, None) => {}
                }
            }
            Ok(())
        },
    )?;
    let e2e = split.untraced_p50_us()?;
    report.put("e2e_p50_us", e2e, "us");
    report.put("trace_overhead_us", split.overhead_us()?, "us");
    let plain = run_plain(ppep, opts.seed, Stop::ops(traced.count), &mut || Ok(()))?;
    report.check(traced.digest.finish() == plain.digest.finish(), || {
        "traced daemon decisions differ from the untraced run".into()
    });
    report.put("core.busy_cores", Samples::new(busy)?.mean(), "count");

    let mut tracer = tracer.into_inner();
    serve::price_layers(
        ppep,
        &Traffic::probe(records, ops),
        &mut tracer,
        Stop::after(opts.budget(0.2)),
        false,
        report,
    )?;
    report_health(report, &traced);
    report_layers(report, &tracer, "op.interval", e2e, &[]);
    report.attempted = (plain.count + traced.count) as u64;
    report.failed += plain.failed + traced.failed;
    report.digest = Some(plain.digest.finish());
    Ok(tracer)
}
