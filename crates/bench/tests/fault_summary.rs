//! What `train` says about the faults it injected: a crash that forced
//! a restart is counted, and a crash rule that never fired fails the run
//! instead of passing for a survived fault.

use std::process::{Command, Output};

fn train(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_train"))
        .args(args)
        .output()
        .expect("run train")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn a_crash_rule_whose_op_is_never_reached_fails_the_run() {
    let out = train(&[
        "--dataset",
        "amazon",
        "--scale",
        "8",
        "--p",
        "2",
        "--epochs",
        "3",
        "--faults",
        "crash=1@1:999999",
        "--max-restarts",
        "1",
    ]);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("restarts:          0"), "{stdout}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(
        stderr.starts_with("--faults rule crash=1@1:999999 never fired"),
        "stderr: {stderr}"
    );
}

#[test]
fn a_crash_that_forced_a_restart_is_an_injected_fault() {
    let out = train(&[
        "--dataset",
        "amazon",
        "--scale",
        "8",
        "--algo",
        "1.5d",
        "--c",
        "2",
        "--p",
        "8",
        "--epochs",
        "6",
        "--faults",
        "crash=5@3",
        "--checkpoint-every",
        "2",
        "--max-restarts",
        "1",
    ]);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("restarts:          1"), "{stdout}");
    assert!(stdout.contains("injected faults:   1\n"), "{stdout}");
}
