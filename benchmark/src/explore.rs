//! `explore-sweep`: the paper's DVFS-space exploration (Figs. 6, 10,
//! 11).
//!
//! Set-up synthesizes four recorded traces of 2,500 intervals, from 1-,
//! 2-, 4- and 8-thread runs of benchmarks drawn by `--seed`. The run
//! then sweeps them, pass after pass, on one thread: each interval is
//! projected at both NB operating points, and from each projection the
//! energy- and EDP-optimal states and the fastest state under each of
//! five power caps are selected. An explored interval is the
//! end-to-end operation; throughput is projections per second.

use std::time::Instant;

use ppep_core::daemon::DvfsController;
use ppep_core::ppe::PpeProjection;
use ppep_core::Ppep;
use ppep_dvfs::OneStepCapping;
use ppep_telemetry::IntervalRecord;
use ppep_types::vf::NbVfState;
use ppep_types::{VfStateId, Watts};
use ppep_workloads::combos::instances;

use crate::common::{
    peak_rss_mb, report_windows, secs, synthesize, train, us_since, with_setups, BenchResult,
    Between, Fnv, Opts, Rng, SetupCost, Stop,
};
use crate::report::Report;
use crate::serve::{self, Op, Traffic};
use crate::spans::{report_layers, Interleaved, Req, Tracer};
use crate::stats::{Samples, Windows};

/// Intervals per recorded trace.
const TRACE_LEN: usize = 2_500;
/// Threads in each trace's run.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Benchmarks a trace's run is drawn from.
const BENCHMARKS: [&str; 8] = [
    "433.milc",
    "458.sjeng",
    "403.gcc",
    "429.mcf",
    "416.gamess",
    "swaptions",
    "canneal",
    "facesim",
];
/// The cap ladder each projection is searched under.
const CAPS_W: [f64; 5] = [40.0, 55.0, 70.0, 85.0, 100.0];
/// Most records the traced run hands the serve-layer pricing.
const PROBE_OPS: usize = 4_000;
/// Explored intervals between calls to the set-up hook (~10 ms).
const BETWEEN_EVERY: u64 = 2_048;
/// Window over which exploration latency and rate are summarized:
/// ~15,000 explored intervals, short enough to fall inside one quiet
/// stretch.
const WINDOW_S: f64 = 0.05;

struct Sweep {
    ppep: Ppep,
    traces: Vec<Vec<IntervalRecord>>,
    sample_us: Vec<f64>,
}

fn setup(seed: u64, cost: &mut SetupCost) -> BenchResult<Sweep> {
    let start = Instant::now();
    let ppep = train()?;
    cost.train_s = secs(start);
    let start = Instant::now();
    let mut rng = Rng::new(seed, 3);
    let mut sample_us = Vec::new();
    let mut traces = Vec::new();
    for threads in THREADS {
        let name = BENCHMARKS[rng.below(BENCHMARKS.len())];
        let sim_seed = rng.next_u64();
        let spec = instances(name, threads, sim_seed);
        traces.push(synthesize(&spec, sim_seed, TRACE_LEN, &mut sample_us)?);
    }
    cost.synth_s = secs(start);
    Ok(Sweep {
        ppep,
        traces,
        sample_us,
    })
}

/// The states chosen from one projection: energy-optimal, EDP-optimal,
/// and the fastest under each cap (`None` when nothing fits).
fn choose(p: &PpeProjection) -> [Option<VfStateId>; 2 + CAPS_W.len()] {
    let mut picks = [None; 2 + CAPS_W.len()];
    picks[0] = Some(p.best_energy_vf());
    picks[1] = Some(p.best_edp_vf());
    for (pick, cap) in picks[2..].iter_mut().zip(CAPS_W) {
        *pick = p.fastest_under_cap(Watts::new(cap));
    }
    picks
}

/// What a sweep measured.
#[derive(Debug)]
struct Swept {
    /// Each explored interval's time, by when it ended (seconds into
    /// the sweep).
    windows: Windows,
    /// Explored intervals.
    count: usize,
    failed: u64,
    digest: Fnv,
}

/// Sweeps the traces pass after pass until `stop` (always finishing the
/// first pass, which the golden digest covers). `after` sees each
/// interval's stock-NB projection, outside its timing. With `split`,
/// every other interval is traced and each one's duration lands there.
fn sweep(
    s: &Sweep,
    stop: Stop,
    tracer: &mut Tracer,
    mut split: Option<&mut Interleaved>,
    mut after: impl FnMut(&mut Tracer, u64, &PpeProjection) -> BenchResult<()>,
) -> BenchResult<Swept> {
    let mut out = Swept {
        windows: Windows::new(WINDOW_S),
        count: 0,
        failed: 0,
        digest: Fnv::default(),
    };
    let start = Instant::now();
    let mut global = 0u64;
    for pass in 0.. {
        for trace in &s.traces {
            if pass > 0 && stop.reached(start, out.count) {
                return Ok(out);
            }
            for record in trace {
                let req = Req::Interval(global);
                let traced = split.as_deref_mut().is_some_and(Interleaved::next_traced);
                if split.is_some() {
                    tracer.set_enabled(traced);
                }
                let at = Instant::now();
                let root = tracer.open("op.explore", req);
                let explored = (|| -> ppep_types::Result<_> {
                    let high = tracer.time("core.project", req, || s.ppep.project(record))?;
                    let low = tracer.time("core.project_nb", req, || {
                        s.ppep.project_nb(record, NbVfState::Low)
                    })?;
                    let picks = tracer.time("dvfs.select", req, || (choose(&high), choose(&low)));
                    Ok((high, picks))
                })();
                tracer.close(root);
                let us = us_since(at);
                out.windows.push(secs(start), us);
                out.count += 1;
                if let Some(split) = split.as_deref_mut() {
                    split.push(traced, us);
                }
                match explored {
                    Ok((high, (hi, lo))) => {
                        if pass == 0 {
                            for pick in hi.iter().chain(&lo) {
                                out.digest.u64(pick.map_or(u64::MAX, |v| v.index() as u64));
                            }
                        }
                        after(tracer, global, &high)?;
                    }
                    Err(_) => out.failed += 1,
                }
                global += 1;
            }
        }
    }
    unreachable!("the pass loop only exits by returning")
}

/// `explore-sweep`, untraced.
///
/// # Errors
///
/// Set-up failures end the run.
pub fn run(opts: &Opts, report: &mut Report) -> BenchResult<()> {
    let make = |c: &mut SetupCost| setup(opts.seed, c);
    with_setups(opts, report, make, |s, report, between| {
        measure(opts, &s, report, between)
    })
}

fn measure(opts: &Opts, s: &Sweep, report: &mut Report, between: Between<'_>) -> BenchResult<()> {
    let run = sweep(
        s,
        Stop::after(opts.seconds),
        &mut Tracer::disabled(),
        None,
        |_, global, _| {
            if global % BETWEEN_EVERY == 0 {
                between()?;
            }
            Ok(())
        },
    )?;
    if let Some(rss) = peak_rss_mb() {
        report.put("peak_rss_mb", rss, "MB");
    }
    let attempted = run.count as u64;
    let s = report_windows(report, "explore", run.windows)?;
    // Two projections per explored interval.
    report.put("throughput_per_s", 2.0 * s.best.rate, "1/s");
    report.attempted = attempted;
    report.failed = run.failed;
    report.digest = Some(run.digest.finish());
    Ok(())
}

/// `explore-sweep`, traced: a sweep with every other interval traced
/// (the untraced half gives the end-to-end p50) and off-path pricing of
/// the one-step capping search on each traced projection, one untraced
/// pass whose choices must match, then the serve layers priced on the
/// swept records.
///
/// # Errors
///
/// Set-up or pricing failures end the run.
pub fn run_traced(opts: &Opts, report: &mut Report) -> BenchResult<Tracer> {
    let make = |c: &mut SetupCost| setup(opts.seed, c);
    with_setups(opts, report, make, |s, report, _| {
        measure_traced(opts, &s, report)
    })
}

fn measure_traced(opts: &Opts, s: &Sweep, report: &mut Report) -> BenchResult<Tracer> {
    report.put_latency("sim.sample", &s.sample_us);
    let mut tracer = Tracer::new();
    let mut split = Interleaved::default();
    let mut controller = OneStepCapping::new(s.ppep.clone(), Watts::new(CAPS_W[0]));
    let mut busy = Vec::new();
    let traced = sweep(
        s,
        Stop::after(opts.budget(0.4)).traced(),
        &mut tracer,
        Some(&mut split),
        |tracer, global, high| {
            controller.set_cap(Watts::new(CAPS_W[global as usize % CAPS_W.len()]));
            let req = Req::Interval(global);
            tracer.time("dvfs.decide", req, || controller.decide(high))?;
            busy.push(high.busy_core_count() as f64);
            Ok(())
        },
    )?;
    let e2e = split.untraced_p50_us()?;
    report.put("e2e_p50_us", e2e, "us");
    report.put("trace_overhead_us", split.overhead_us()?, "us");
    // One untraced pass: all the golden digest covers.
    let plain = sweep(s, Stop::ops(1), &mut Tracer::disabled(), None, |_, _, _| {
        Ok(())
    })?;
    report.check(traced.digest.finish() == plain.digest.finish(), || {
        "traced exploration choices differ from the untraced sweep".into()
    });
    report.put("core.busy_cores", Samples::new(busy)?.mean(), "count");

    let records: Vec<IntervalRecord> = s.traces.iter().flatten().take(PROBE_OPS).cloned().collect();
    let ops = (0..records.len()).map(Op::Submit).collect();
    serve::price_layers(
        &s.ppep,
        &Traffic::probe(records, ops),
        &mut tracer,
        Stop::after(opts.budget(0.2)),
        true,
        report,
    )?;
    report_layers(report, &tracer, "op.explore", e2e, &[]);
    report.attempted = (plain.count + traced.count) as u64;
    report.failed += plain.failed + traced.failed;
    report.digest = Some(plain.digest.finish());
    Ok(tracer)
}
