//! `ppep-benchmark`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve-steady|serve-churn|daemon-capping|explore-sweep|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] \
//!     [--repeat N] [--out FILE] [--smoke] [--golden FILE]
//! ```
//!
//! One workload per process: the run generates its inputs from
//! `--seed`, measures for `--seconds`, checks every output, prints each
//! metric as `name value unit`, and ends with one JSON line. Untraced
//! (`--trace 0`) the JSON holds the end-to-end metrics; traced
//! (`--trace 1`) it holds the per-layer metrics and the spans are
//! written as JSONL. `all`, `--repeat` and `--out` run each workload
//! in fresh child processes and summarize median, quartiles and range.
//!
//! Exit status: 0 correct, 1 an output failed its check (or the run
//! failed), 2 usage, 3 a run that was otherwise correct but invalid
//! (the open-loop generator fell behind its schedule). A supervising
//! run leaves invalid children out of its summary, counts them, and
//! exits 3 if any were invalid and none incorrect.

mod common;
mod daemon;
mod explore;
mod report;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use common::{peak_rss_mb, run_dir, Opts};
use report::{Report, EXIT_INCORRECT, EXIT_INVALID};
use stats::Spread;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = [
    "serve-steady",
    "serve-churn",
    "daemon-capping",
    "explore-sweep",
];

/// Metrics in the JSON result of an untraced run (`BENCHMARK.json`
/// `end_to_end`). `latency_p99_us` and `throughput_per_s` are printed
/// but not gated: their run-to-run spread on shared cores can exceed
/// the largest bound.
const END_TO_END: [&str; 3] = ["latency_p50_us", "setup_s", "peak_rss_mb"];

/// Metrics in the JSON result of a traced run (`BENCHMARK.json`
/// `per_layer`). Every workload reports all of them: layers off its
/// path are priced on its own inputs.
const PER_LAYER: [&str; 43] = [
    "codec.encode_submit_p50_us",
    "codec.encode_submit_p99_us",
    "codec.decode_submit_p50_us",
    "codec.decode_submit_p99_us",
    "codec.encode_reply_p50_us",
    "codec.encode_reply_p99_us",
    "codec.decode_reply_p50_us",
    "codec.decode_reply_p99_us",
    "codec.submit_bytes",
    "codec.reply_bytes",
    "transport.roundtrip_p50_us",
    "transport.roundtrip_p99_us",
    "transport.overhead_us",
    "serve.handle_frame_p50_us",
    "serve.handle_frame_p99_us",
    "service.submit_p50_us",
    "service.submit_p99_us",
    "service.tick_p50_us",
    "service.replies.fresh",
    "service.replies.held",
    "service.replies.failsafe",
    "service.evictions",
    "service.rejects",
    "service.live_tenants",
    "daemon.fresh",
    "daemon.held",
    "daemon.failsafe",
    "daemon.retries",
    "core.project_p50_us",
    "core.project_p99_us",
    "core.project_nb_p50_us",
    "core.project_nb_p99_us",
    "core.busy_cores",
    "dvfs.decide_p50_us",
    "dvfs.decide_p99_us",
    "dvfs.select_p50_us",
    "dvfs.select_p99_us",
    "sim.sample_p50_us",
    "sim.sample_p99_us",
    "rig.train_s",
    "unattributed_us",
    "trace_overhead_us",
    "e2e_p50_us",
];

/// The seed the golden digests are pinned at.
const GOLDEN_SEED: u64 = 42;
/// The pinned digests.
const GOLDEN: &str = include_str!("../golden/seed-42.json");

const EXIT_USAGE: i32 = 2;

/// Set-up passes in a full-size run.
const SETUP_REPEATS: usize = 11;

const USAGE: &str = "usage: ppep-benchmark --workload <serve-steady|serve-churn|daemon-capping|\
explore-sweep|all> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--repeat N] \
[--out FILE] [--smoke] [--golden FILE]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    spans: Option<PathBuf>,
    repeat: usize,
    out: Option<PathBuf>,
    smoke: bool,
    golden: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: None,
        trace: false,
        spans: None,
        repeat: 1,
        out: None,
        smoke: false,
        golden: None,
    };
    while let Some(flag) = argv.next() {
        let (flag, inline) = match flag.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (flag, None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| argv.next())
                .ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--golden" => args.golden = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let code = match parse(std::env::args().skip(1)) {
        Ok(args) => {
            // Sockets and spans stay inside the checkout: the serve
            // transport binds its Unix socket under the temp dir.
            let dir = run_dir();
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(EXIT_INCORRECT);
            }
            std::env::set_var("TMPDIR", &dir);
            if args.workload == "all" || args.repeat > 1 || args.out.is_some() {
                supervise(&args)
            } else {
                run_one(&args)
            }
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            EXIT_USAGE
        }
    };
    std::process::exit(code);
}

/// The digest pinned for `workload` in a golden file's `digests`.
fn golden_digest(text: &str, workload: &str) -> Option<u64> {
    let text = &text[text.find("\"digests\"")?..];
    let key = format!("\"{workload}\"");
    let rest = &text[text.find(&key)? + key.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    u64::from_str_radix(&rest[..rest.find('"')?], 16).ok()
}

fn run_one(args: &Args) -> i32 {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { 15.0 }),
        setup_repeats: if args.smoke { 1 } else { SETUP_REPEATS },
    };
    let workload = args.workload.as_str();
    println!(
        "# workload {workload} seed {} seconds {} trace {}",
        opts.seed,
        opts.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let traced = |tracer: spans::Tracer| -> common::BenchResult<()> {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| run_dir().join(format!("spans-{workload}.jsonl")));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut out)?;
        println!(
            "# spans {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        Ok(())
    };
    let result = match (workload, args.trace) {
        ("serve-steady", false) => serve::run(&opts, false, &mut report),
        ("serve-churn", false) => serve::run(&opts, true, &mut report),
        ("daemon-capping", false) => daemon::run(&opts, &mut report),
        ("explore-sweep", false) => explore::run(&opts, &mut report),
        ("serve-steady", true) => serve::run_traced(&opts, false, &mut report).and_then(traced),
        ("serve-churn", true) => serve::run_traced(&opts, true, &mut report).and_then(traced),
        ("daemon-capping", true) => daemon::run_traced(&opts, &mut report).and_then(traced),
        ("explore-sweep", true) => explore::run_traced(&opts, &mut report).and_then(traced),
        _ => Err(format!("unknown workload {workload:?}").into()),
    };
    if let Err(e) = result {
        eprintln!("{workload}: {e}");
        return EXIT_INCORRECT;
    }
    // Untraced workloads read their peak right after the measured
    // phase; a traced run reports the whole process's.
    if report.get("peak_rss_mb").is_none() {
        if let Some(rss) = peak_rss_mb() {
            report.put("peak_rss_mb", rss, "MB");
        }
    }
    if opts.seed == GOLDEN_SEED {
        let golden = match &args.golden {
            Some(path) => std::fs::read_to_string(path).unwrap_or_default(),
            None => GOLDEN.to_string(),
        };
        let want = golden_digest(&golden, workload);
        let got = report.digest;
        let matches = want.is_some() && want == got;
        report.check(matches, || {
            format!(
                "golden digest for {workload}: pinned {}, got {}",
                want.map_or("nothing".into(), |d| format!("{d:016x}")),
                got.map_or("nothing".into(), |d| format!("{d:016x}"))
            )
        });
        report.put("check.golden_matches", f64::from(u8::from(matches)), "bool");
    }
    report.emit(if args.trace { &PER_LAYER } else { &END_TO_END })
}

/// One child run's output.
#[derive(Debug, Default)]
struct ChildRun {
    metrics: Vec<(String, f64, String)>,
    digest: Option<String>,
    attempted: u64,
    failed: u64,
}

fn parse_child(stdout: &str) -> ChildRun {
    let mut run = ChildRun::default();
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value), Some(unit), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if name == "digest" {
            run.digest = Some(value.to_string());
        } else if let Ok(v) = value.parse::<f64>() {
            match name {
                "attempted" => run.attempted = v as u64,
                "failed" => run.failed = v as u64,
                _ => {}
            }
            run.metrics.push((name.to_string(), v, unit.to_string()));
        }
    }
    run
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Runs each workload `--repeat` times, each in a fresh child process,
/// and summarizes every metric as median, quartiles and range.
fn supervise(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find the benchmark executable: {e}");
            return EXIT_INCORRECT;
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let (mut attempted, mut failed, mut invalid) = (0u64, 0u64, 0usize);
    let mut summary: Vec<(&str, Vec<ChildRun>, usize)> = Vec::new();
    for workload in names {
        let mut runs = Vec::new();
        let mut invalid_runs = 0;
        for _ in 0..args.repeat {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(g) = &args.golden {
                cmd.arg("--golden").arg(g);
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{workload}: cannot run child: {e}");
                    return EXIT_INCORRECT;
                }
            };
            if output.status.code() == Some(EXIT_INVALID) {
                // Its metric lines measured a generator that fell
                // behind: keep them out of the summary.
                eprintln!("{workload}: invalid run left out");
                invalid_runs += 1;
                continue;
            }
            let run = parse_child(&String::from_utf8_lossy(&output.stdout));
            if !output.status.success() {
                eprintln!("{workload}: child exited with {}", output.status);
                correct = false;
            }
            attempted += run.attempted;
            failed += run.failed;
            runs.push(run);
        }
        invalid += invalid_runs;
        summary.push((workload, runs, invalid_runs));
    }

    let selected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json_metrics = Vec::new();
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n  \"rev\": \"{}\",\n  \"rustc\": \"{}\",\n  \"nproc\": {},\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"trace\": {},\n  \"repeats\": {},\n  \"workloads\": {{",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
        std::thread::available_parallelism().map_or(0, usize::from),
        args.seed,
        args.seconds.map_or("null".into(), |s| s.to_string()),
        args.trace,
        args.repeat
    );
    for (w, (workload, runs, invalid_runs)) in summary.iter().enumerate() {
        let mut by_name: BTreeMap<&str, (Vec<f64>, &str)> = BTreeMap::new();
        let mut order = Vec::new();
        for run in runs {
            for (name, value, unit) in &run.metrics {
                let entry = by_name.entry(name).or_insert_with(|| {
                    order.push(name.as_str());
                    (Vec::new(), unit)
                });
                entry.0.push(*value);
            }
        }
        let digests: Vec<&str> = runs.iter().filter_map(|r| r.digest.as_deref()).collect();
        println!("{workload}.invalid_runs {invalid_runs} count");
        let _ = write!(
            doc,
            "{}\n    \"{workload}\": {{\n      \"invalid_runs\": {invalid_runs},\n      \
             \"digests\": [{}],\n      \"metrics\": {{",
            if w == 0 { "" } else { "," },
            digests
                .iter()
                .map(|d| format!("\"{d}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (m, name) in order.iter().enumerate() {
            let (values, unit) = &by_name[name];
            let Ok(s) = Spread::of(values) else { continue };
            println!("{workload}.{name} {} {unit}", s.median);
            if args.repeat > 1 {
                println!(
                    "{workload}.{name}.spread q1 {} q3 {} iqr_share {} min {} max {}",
                    s.q1,
                    s.q3,
                    s.iqr_share(),
                    s.min,
                    s.max
                );
            }
            let _ = write!(
                doc,
                "{}\n        \"{name}\": {{\"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \
                 \"q3\": {}, \"iqr_share\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
                if m == 0 { "" } else { "," },
                s.median,
                s.q1,
                s.q3,
                s.iqr_share(),
                s.min,
                s.max,
                values.len()
            );
            if selected.contains(name) {
                json_metrics.push(format!(
                    "\"{workload}.{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    s.median
                ));
            }
        }
        let _ = write!(doc, "\n      }}\n    }}");
        if digests.windows(2).any(|d| d[0] != d[1]) {
            eprintln!("{workload}: digests differ across repeats: {digests:?}");
            correct = false;
        }
    }
    doc.push_str("\n  }\n}\n");
    if let Some(path) = &args.out {
        let written = std::fs::File::create(path).and_then(|mut f| f.write_all(doc.as_bytes()));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            correct = false;
        }
    }
    // As for one run: incorrect outranks invalid, and a run with an
    // invalid child prints no result.
    if correct && invalid > 0 {
        eprintln!("{invalid} invalid run(s) left out of the summary");
        return EXIT_INVALID;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        json_metrics.join(", ")
    );
    if correct {
        0
    } else {
        EXIT_INCORRECT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve-churn --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve-churn");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Some(10.0));
        assert!(a.trace);
        let a = args("--workload=all --repeat=5 --smoke").unwrap();
        assert_eq!((a.workload.as_str(), a.repeat, a.smoke), ("all", 5, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload all --trace 2").is_err());
        assert!(args("--workload all --seconds 0").is_err());
        assert!(args("--workload all --bogus").is_err());
        assert!(args("--seed 3").is_err(), "a workload is required");
    }

    #[test]
    fn golden_lookup() {
        let text = "{\"covers\": {\"serve-steady\": \"prose\"}, \
                    \"digests\": {\"serve-steady\": \"00000000000000ff\", \"x\" : \"10\"}}";
        assert_eq!(golden_digest(text, "serve-steady"), Some(255));
        assert_eq!(golden_digest(text, "x"), Some(16));
        assert_eq!(golden_digest(text, "daemon-capping"), None);
        for w in WORKLOADS {
            assert!(golden_digest(GOLDEN, w).is_some(), "{w} is pinned");
        }
    }

    #[test]
    fn child_output_parses_metric_lines_only() {
        let run = parse_child(
            "# workload x\nlatency_p50_us 12.5 us\ndigest 00ab fnv64\nattempted 10 count\n\
             failed 0 count\n{\"correct\": true}\n",
        );
        assert_eq!(run.metrics.len(), 3);
        assert_eq!(run.digest.as_deref(), Some("00ab"));
        assert_eq!((run.attempted, run.failed), (10, 0));
    }
}
