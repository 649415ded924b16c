//! The `ppep-experiments` binary: one subcommand per table/figure.
//!
//! ```text
//! ppep-experiments [--quick] [--seed N] [--out DIR] [--jobs N] \
//!     [--shards N] [--tenants N] [--transport unix|tcp] \
//!     <fig1|cpi|idle|obs|fig2|fig3|fig4|fig6|fig7|fig8|fig9|fig10|fig11|phenom|ablations|resilience|overhead|serve|serve-bench|summary|all>
//! ```
//!
//! With `--out DIR`, figure commands additionally write their data as
//! CSV (one file per figure, columns mirroring the paper's axes).
//!
//! `--quick` uses the reduced rosters and interval counts (the
//! configuration the test suite and benches run); the default is the
//! paper-sized full configuration.
//!
//! `--jobs N` shards the sweep collections (Figs. 2/3/6, phenom,
//! summary) across `N` worker threads; `--jobs 0` means "all cores".
//! Results are identical for every worker count.
//!
//! `--shards N` / `--tenants N` / `--transport unix|tcp` tune the
//! serving subcommands: shard count, fleet size, and a real
//! Unix-socket (or localhost-TCP) transport instead of in-process
//! calls. `serve-bench` compares single-lock vs sharded replays and
//! gates on byte-identical transcripts plus a lower sharded p99.
//!
//! The record/replay, policy-diff, parallel-sweep, chaos-containment
//! and accuracy gates are tests, not subcommands: `cargo test
//! --workspace --release` runs them.

use ppep_experiments::common::{Context, Scale, DEFAULT_SEED};
use ppep_experiments::*;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ppep-experiments [--quick] [--seed N] [--out DIR] [--jobs N] \
         [--shards N] [--tenants N] [--transport unix|tcp] \
         <fig1|cpi|idle|obs|fig2|fig3|fig4|fig6|fig7|fig8|fig9|fig10|fig11|phenom|ablations|\
         resilience|overhead|serve|serve-bench|summary|all>"
    );
    ExitCode::FAILURE
}

/// Writes one output file under the `--out` directory, creating it on
/// first use. Returns the path written.
fn write_csv(dir: &std::path::Path, name: &str, contents: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut seed = DEFAULT_SEED;
    let mut jobs = 1usize;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut command: Option<String> = None;
    let mut serve_opts = serve::ServeOpts::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                seed = v;
            }
            "--jobs" => {
                let Some(v) = args.next().and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                jobs = if v == 0 { fleet::default_jobs() } else { v };
            }
            "--out" => {
                let Some(dir) = args.next() else {
                    return usage();
                };
                out_dir = Some(std::path::PathBuf::from(dir));
            }
            "--shards" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                serve_opts.shards = v;
            }
            "--tenants" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                serve_opts.tenants = v;
            }
            "--transport" => {
                let Some(kind) = args
                    .next()
                    .and_then(|s| ppep_serve::TransportKind::parse(&s).ok())
                else {
                    return usage();
                };
                serve_opts.transport = Some(kind);
            }
            cmd if !cmd.starts_with('-') && command.is_none() => {
                command = Some(cmd.to_string());
            }
            _ => return usage(),
        }
    }
    let Some(command) = command else {
        return usage();
    };
    let ctx = Context::fx8320(scale, seed).with_jobs(jobs);

    let result = dispatch(&ctx, &command, out_dir.as_deref(), serve_opts);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => usage(),
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(
    ctx: &Context,
    command: &str,
    out: Option<&std::path::Path>,
    serve_opts: serve::ServeOpts,
) -> ppep_types::Result<bool> {
    let table = ctx.rig.config().topology.vf_table().clone();
    let mut written: Vec<String> = Vec::new();
    let mut save = |out: Option<&std::path::Path>, name: &str, contents: String| {
        if let Some(dir) = out {
            match write_csv(dir, name, &contents) {
                Ok(path) => written.push(path),
                Err(e) => eprintln!("could not write {name}: {e}"),
            }
        }
    };
    match command {
        "fig1" => {
            let r = fig01_idle_trace::run(ctx)?;
            fig01_idle_trace::print(&r);
            save(out, "fig1.csv", report::fig01_csv(&r));
        }
        "cpi" => {
            let r = cpi_accuracy::run(ctx)?;
            cpi_accuracy::print(&r);
            save(out, "cpi.csv", report::cpi_csv(&r));
        }
        "idle" => idle_accuracy::print(&idle_accuracy::run(ctx)?),
        "obs" => observations::print(&observations::run(ctx)?),
        "fig2" => {
            let r = fig02_model_error::run(ctx)?;
            fig02_model_error::print(&r);
            save(out, "fig2.csv", report::fig02_csv(&r));
        }
        "fig3" => {
            let r = fig03_cross_vf::run(ctx)?;
            fig03_cross_vf::print(&r);
            save(out, "fig3.csv", report::fig03_csv(&r));
        }
        "fig4" => fig04_pg_sweep::print(&fig04_pg_sweep::run(ctx)?, &table),
        "fig6" => {
            let r = fig06_energy::run(ctx)?;
            fig06_energy::print(&r);
            save(out, "fig6.csv", report::fig06_csv(&r));
        }
        "fig7" => {
            let r = fig07_capping::run(ctx)?;
            fig07_capping::print(&r);
            save(out, "fig7.csv", report::fig07_csv(&r));
        }
        "fig8" | "fig9" => {
            let r = fig08_09_background::run(ctx)?;
            fig08_09_background::print(&r);
            save(out, "fig8_9.csv", report::fig08_09_csv(&r));
        }
        "fig10" => {
            let r = fig10_nb_share::run(ctx)?;
            fig10_nb_share::print(&r);
            save(out, "fig10.csv", report::fig10_csv(&r));
        }
        "fig11" => {
            let r = fig11_nb_dvfs::run(ctx)?;
            fig11_nb_dvfs::print(&r);
            save(out, "fig11.csv", report::fig11_csv(&r));
        }
        "phenom" => phenom::print(&phenom::run(ctx)?),
        "resilience" => resilience::print(&resilience::run(ctx)?),
        "overhead" => {
            let r = overhead::run(ctx)?;
            overhead::print(&r);
            save(out, "overhead.csv", report::overhead_csv(&r));
            save(out, "overhead_spans.jsonl", overhead::spans_export(&r));
            save(out, "overhead_trace.json", overhead::trace_export(&r));
            save(out, "overhead_metrics.jsonl", overhead::metrics_export(&r));
            if !r.identical {
                return Err(ppep_types::Error::InvalidInput(
                    "trace-on and trace-off runs diverged".into(),
                ));
            }
            if r.mean_fraction > 0.10 {
                return Err(ppep_types::Error::InvalidInput(format!(
                    "mean framework overhead {:.2}% exceeds 10% of the 200 ms budget",
                    r.mean_fraction * 100.0
                )));
            }
        }
        "serve" => {
            let r = serve::run_demo(ctx, serve_opts)?;
            serve::print_demo(&r);
            save(out, "serve_health.jsonl", r.health_jsonl.clone());
        }
        "serve-bench" => {
            let r = serve::run_serve_bench(ctx, serve_opts)?;
            serve::print_serve_bench(&r);
            save(out, "BENCH_serve_shard.json", r.to_json());
            // The sharding gate IS the exit code: CI relies on it.
            r.gate()?;
        }
        "summary" => summary::print(&summary::run(ctx)?),
        "ablations" => {
            let r = ablations::run(ctx)?;
            ablations::print(&r);
            save(out, "ablations.csv", report::ablations_csv(&r));
        }
        "all" => {
            let r1 = fig01_idle_trace::run(ctx)?;
            fig01_idle_trace::print(&r1);
            save(out, "fig1.csv", report::fig01_csv(&r1));
            println!();
            let rc = cpi_accuracy::run(ctx)?;
            cpi_accuracy::print(&rc);
            save(out, "cpi.csv", report::cpi_csv(&rc));
            println!();
            idle_accuracy::print(&idle_accuracy::run(ctx)?);
            println!();
            observations::print(&observations::run(ctx)?);
            println!();
            // Figs. 2 and 3 share one trace store.
            let vfs: Vec<ppep_types::VfStateId> = table.states().collect();
            let store = common::TraceStore::collect_sharded(
                &ctx.rig,
                &ctx.scale.roster(ctx.seed),
                &vfs,
                &ctx.scale.budget(),
                ctx.jobs,
            );
            let r2 = fig02_model_error::run_with_store(ctx, &store)?;
            fig02_model_error::print(&r2);
            save(out, "fig2.csv", report::fig02_csv(&r2));
            println!();
            let r3 = fig03_cross_vf::run_with_store(ctx, &store)?;
            fig03_cross_vf::print(&r3);
            save(out, "fig3.csv", report::fig03_csv(&r3));
            println!();
            fig04_pg_sweep::print(&fig04_pg_sweep::run(ctx)?, &table);
            println!();
            let r6 = fig06_energy::run(ctx)?;
            fig06_energy::print(&r6);
            save(out, "fig6.csv", report::fig06_csv(&r6));
            println!();
            let r7 = fig07_capping::run(ctx)?;
            fig07_capping::print(&r7);
            save(out, "fig7.csv", report::fig07_csv(&r7));
            println!();
            // §V studies share one trained engine.
            let engine = ppep_core::Ppep::new(ctx.train_models()?);
            let r89 = fig08_09_background::run_with_engine(ctx, &engine)?;
            fig08_09_background::print(&r89);
            save(out, "fig8_9.csv", report::fig08_09_csv(&r89));
            println!();
            let r10 = fig10_nb_share::run_with_engine(ctx, &engine)?;
            fig10_nb_share::print(&r10);
            save(out, "fig10.csv", report::fig10_csv(&r10));
            println!();
            let r11 = fig11_nb_dvfs::run_with_engine(ctx, &engine)?;
            fig11_nb_dvfs::print(&r11);
            save(out, "fig11.csv", report::fig11_csv(&r11));
            println!();
            phenom::print(&phenom::run(ctx)?);
            println!();
            let ra = ablations::run(ctx)?;
            ablations::print(&ra);
            save(out, "ablations.csv", report::ablations_csv(&ra));
            println!();
            resilience::print(&resilience::run(ctx)?);
        }
        _ => return Ok(false),
    }
    if !written.is_empty() {
        println!("{}", report::written_summary(&written));
    }
    Ok(true)
}
