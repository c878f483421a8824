//! The one stdout writer of `train`, `repro` and `trace-report`.
//!
//! Every report line goes through [`write()`] (via [`out!`](crate::out!)
//! and [`outln!`](crate::outln!)) instead of `print!`, which panics when
//! stdout fails. A closed stdout — the reader went away, as in
//! `train … | head -1` — is a quiet, successful stop of the report: the
//! run goes on (its trace and metrics files are still written), writes
//! nothing more to stdout and exits with its own status. Any other write
//! error (a full disk under `repro > file`) stops the report the same
//! way, after one line on stderr, and [`finish`] turns the run's status
//! into a failure: a cut-short report never reads as success.

use std::fmt;
use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write to stdout failed: later report lines are dropped.
static STOPPED: AtomicBool = AtomicBool::new(false);

/// Set once a write to stdout failed for a reason other than a closed
/// pipe: the report is incomplete and the run must not exit 0.
static FAILED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout, unless an earlier write failed.
pub fn write(args: fmt::Arguments<'_>) {
    if STOPPED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        stop(&e);
    }
}

/// Records the first failed write; later ones are already dropped.
fn stop(e: &io::Error) {
    if STOPPED.swap(true, Ordering::Relaxed) || e.kind() == ErrorKind::BrokenPipe {
        return;
    }
    FAILED.store(true, Ordering::Relaxed);
    eprintln!("stdout: {e}; no further report lines");
}

/// Flushes what stdout still buffers and returns `status`, or
/// [`ExitCode::FAILURE`] if the report was cut short by an error other
/// than a closed pipe. Each binary's `main` returns through it.
pub fn finish(status: ExitCode) -> ExitCode {
    if !STOPPED.load(Ordering::Relaxed) {
        if let Err(e) = io::stdout().lock().flush() {
            stop(&e);
        }
    }
    if FAILED.load(Ordering::Relaxed) {
        ExitCode::FAILURE
    } else {
        status
    }
}

/// `print!` through [`write()`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write()`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_closed_pipe_is_a_quiet_success_any_other_error_a_failure() {
        // One test owns the process-wide flags; stdout is never touched.
        stop(&io::Error::from(ErrorKind::BrokenPipe));
        assert!(STOPPED.load(Ordering::Relaxed));
        assert!(!FAILED.load(Ordering::Relaxed));
        assert!(finish(ExitCode::SUCCESS) == ExitCode::SUCCESS);

        STOPPED.store(false, Ordering::Relaxed);
        stop(&io::Error::from(ErrorKind::StorageFull));
        assert!(FAILED.load(Ordering::Relaxed));
        assert!(finish(ExitCode::SUCCESS) == ExitCode::FAILURE);
    }
}
