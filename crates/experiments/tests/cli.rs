//! Integration tests for the `ppep-experiments` binary itself:
//! argument parsing, exit codes, and output shape, exercised through
//! the compiled executable exactly as a user would run it.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ppep-experiments"))
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    assert!(
        stderr.contains("summary"),
        "usage must list every subcommand"
    );
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    // Retired subcommands and options fail like any unknown one.
    let cases: [&[&str]; 9] = [
        &["figNaN"],
        &["load-gen"],
        &["replay"],
        &["diff-policies"],
        &["bench-parallel"],
        &["serve-chaos"],
        &["accuracy-watch"],
        &["--trace", "x", "fig4"],
        &["--policy-a", "one-step", "fig4"],
    ];
    for args in cases {
        let out = bin().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: stderr: {stderr}");
    }
}

#[test]
fn dangling_seed_flag_fails() {
    let out = bin().args(["--seed"]).output().expect("binary runs");
    assert!(!out.status.success());
    let out = bin()
        .args(["--seed", "not-a-number", "fig4"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn quick_fig4_succeeds_with_table_output() {
    let out = bin()
        .args(["--quick", "fig4"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fig. 4"));
    assert!(stdout.contains("Pidle(CU)"));
    // 5 VF × 5 busy counts × 2 gating settings of sweep rows.
    assert!(stdout.lines().filter(|l| l.starts_with("VF")).count() >= 50);
}

#[test]
fn seed_changes_the_numbers_deterministically() {
    let run = |seed: &str| {
        let out = bin()
            .args(["--quick", "--seed", seed, "fig4"])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a1 = run("7");
    let a2 = run("7");
    assert_eq!(a1, a2, "same seed must reproduce byte-identical output");
    let b = run("8");
    assert_ne!(a1, b, "different seeds must change the measurements");
}

#[test]
fn out_dir_writes_csv() {
    let dir = std::env::temp_dir().join(format!("ppep_cli_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .args(["--quick", "--out", dir.to_str().unwrap(), "fig11"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(dir.join("fig11.csv")).expect("CSV written");
    assert!(csv.starts_with("benchmark,instances,energy_saving,speedup"));
    assert!(
        csv.lines().count() == 9,
        "8 sweep rows + header: {}",
        csv.lines().count()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_out_dir_warns_but_succeeds() {
    let out = bin()
        .args(["--quick", "--out", "/proc/definitely/not/writable", "fig11"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "experiment itself succeeded");
    assert!(String::from_utf8_lossy(&out.stderr).contains("could not write"));
}
