//! Smoke-sized runs of every workload through the real binary.
//!
//! Each workload runs twice untraced and once traced at seed 42. The
//! checks: every run exits 0 with `correct: true`; its JSON result
//! holds every metric `BENCHMARK.json` names for that mode; the two
//! untraced runs print the same digest (which the binary has already
//! matched against the golden file, and the serve runs' socket
//! transcripts against an in-process replay); and a corrupted golden
//! digest fails the run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;

/// The open-loop generator keeps a schedule: runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const WORKLOADS: [&str; 4] = [
    "serve-steady",
    "serve-churn",
    "daemon-capping",
    "explore-sweep",
];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppep-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn line_value<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    text.lines().find_map(|l| {
        let mut parts = l.split_whitespace();
        (parts.next() == Some(name)).then(|| parts.next()).flatten()
    })
}

/// The (name, unit) pairs one section of `BENCHMARK.json` lists.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("quoted")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn check_result(out: &Output, section: &str, what: &str) -> String {
    let text = stdout(out);
    assert!(
        out.status.success(),
        "{what} failed ({}):\n{text}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = text.lines().last().expect("output is not empty");
    assert!(last.starts_with("{\"correct\": true,"), "{what}: {last}");
    for (name, unit) in benchmark_metrics(section) {
        let at = last
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{what}: {name} missing from {last}"));
        let entry = &last[at..at + last[at..].find('}').expect("entry closes")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{what}: {entry}"
        );
    }
    text
}

fn smoke(workload: &str) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let args = ["--workload", workload, "--seed", "42", "--smoke"];
    let first = check_result(&run(&args), "end_to_end", workload);
    let second = check_result(&run(&args), "end_to_end", workload);
    let digest = line_value(&first, "digest").expect("a digest is printed");
    assert_eq!(Some(digest), line_value(&second, "digest"), "{workload}");
    assert_eq!(line_value(&first, "check.golden_matches"), Some("1"));
    if workload.starts_with("serve") {
        assert_eq!(line_value(&first, "check.socket_matches_replay"), Some("1"));
    }

    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}.jsonl"));
    let spans_arg = spans.to_string_lossy().into_owned();
    let traced = run(&[
        "--workload",
        workload,
        "--seed",
        "42",
        "--smoke",
        "--trace",
        "1",
        "--spans",
        &spans_arg,
    ]);
    let text = check_result(&traced, "per_layer", &format!("{workload} traced"));
    assert_eq!(
        line_value(&text, "digest"),
        Some(digest),
        "tracing is inert"
    );
    let written = std::fs::read_to_string(&spans).expect("spans were written");
    assert!(written.lines().count() > 1_000, "{workload}: few spans");
    assert!(written.lines().all(|l| l.starts_with("{\"id\":")));
}

#[test]
fn serve_steady() {
    smoke(WORKLOADS[0]);
}

#[test]
fn serve_churn() {
    smoke(WORKLOADS[1]);
}

#[test]
fn daemon_capping() {
    smoke(WORKLOADS[2]);
}

#[test]
fn explore_sweep() {
    smoke(WORKLOADS[3]);
}

#[test]
fn a_corrupted_golden_digest_fails_the_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let golden = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted-golden.json");
    let real =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/seed-42.json"))
            .expect("golden file is readable");
    let key = "\"explore-sweep\": \"";
    let digests = real.find("\"digests\"").expect("digests section");
    let at = digests + real[digests..].find(key).expect("explore-sweep pinned") + key.len();
    let mut corrupted = real.clone();
    let flipped = if &real[at..=at] == "0" { "1" } else { "0" };
    corrupted.replace_range(at..=at, flipped);
    std::fs::write(&golden, corrupted).expect("temp golden is writable");
    let out = run(&[
        "--workload",
        "explore-sweep",
        "--seed",
        "42",
        "--smoke",
        "--golden",
        &golden.to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let last = stdout(&out).lines().last().map(str::to_string);
    assert!(last.is_some_and(|l| l.starts_with("{\"correct\": false,")));
}

#[test]
fn usage_errors_exit_2() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &[]] {
        assert_eq!(run(args).status.code(), Some(2), "{args:?}");
    }
}
