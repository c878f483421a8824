//! A report whose reader went away (`train … | head -1`) is a quiet,
//! successful stop: exit status 0 and nothing on stderr, never a panic.
//! A report that cannot be written for any other reason (a full disk)
//! is a failure: one line on stderr and a nonzero exit status.

use std::process::{Command, Stdio};

fn train() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_train"));
    cmd.args([
        "--dataset",
        "amazon",
        "--scale",
        "8",
        "--p",
        "2",
        "--epochs",
        "2",
    ]);
    cmd
}

#[test]
fn train_with_a_closed_stdout_exits_zero_and_quiet() {
    let mut child = train()
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn train");
    // Close the read end before `train` writes its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for train");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

/// Every write to `/dev/full` fails with `ENOSPC`, as on a full disk.
#[cfg(target_os = "linux")]
#[test]
fn train_with_a_full_stdout_fails_with_one_stderr_line() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        eprintln!("no /dev/full on this host; skipped");
        return;
    };
    let out = train()
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("run train");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("stdout: "), "stderr: {stderr}");
}
