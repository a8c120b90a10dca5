//! The command-line binaries reject bad arguments with a usage line and a
//! non-zero exit — never a panic — and answer `--help` with status 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to start {bin}: {e}"))
}

fn assert_rejected(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked:\n{stderr}"
    );
    assert!(
        stderr.contains("error: ") && stderr.contains("usage: "),
        "{bin} {args:?} must print a reason and the usage; stderr:\n{stderr}"
    );
}

fn assert_help(bin: &str) {
    let out = run(bin, &["--help"]);
    assert!(out.status.success(), "{bin} --help must exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: "));
}

#[test]
fn run_scenario_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_run_scenario");
    assert_help(bin);
    for args in [
        &[][..],
        &["fig01/no-freeriders", "--seed"],
        &["fig01/no-freeriders", "--seed", "many"],
        &["no/such-scenario", "--quick"],
        &["fig01/no-freeriders", "--quick", "--bogus", "2"],
        &["fig01/no-freeriders", "fig01/with-freeriders"],
        &[
            "fig01/no-freeriders",
            "--quick",
            "--exporter",
            "no-such-exporter",
        ],
    ] {
        assert_rejected(bin, args);
    }
}

#[test]
fn profile_scenario_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_profile_scenario");
    assert_help(bin);
    for args in [
        &["--scenario"][..],
        &["--scenario", "no/such-scenario"],
        &["--bogus", "2"],
    ] {
        assert_rejected(bin, args);
    }
}

#[test]
fn run_all_experiments_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_run_all_experiments");
    assert_help(bin);
    for args in [
        &["--bogus"][..],
        &["--quick", "--filter"],
        &["--quick", "--tier", "no-such-tier"],
        &["--quick", "stray"],
    ] {
        assert_rejected(bin, args);
    }
}
