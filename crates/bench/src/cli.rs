//! The flag grammar of the `train` and `repro` binaries, written once:
//! a flag is one [`Flag`] row, [`Cli::parse`] is the only argv loop and
//! [`Cli::usage`] the only synopsis. The rows both binaries accept are
//! [`common_flags`] over the [`Common`] settings they store into.

use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::str::FromStr;

use crate::traceio::TraceFormat;

/// How a flag consumes argv, and the setter that stores it into `A`.
pub enum Kind<A> {
    /// `--flag`.
    Switch(fn(&mut A)),
    /// `--flag VALUE`. The setter returns only the reason a value is
    /// bad; [`Cli::parse`] names the flag. A token that is the name of a
    /// row of the same table is never taken as the value.
    Value(fn(&mut A, &str) -> Result<(), String>),
    /// `--flag [VALUE]`: the next token is the value when it does not
    /// start with `-` and `takes` accepts it.
    Optional {
        /// Whether a following token reads as this flag's value.
        takes: fn(&str) -> bool,
        /// Stores the flag with or without its value.
        set: fn(&mut A, Option<&str>),
    },
}

/// One row of a flag table.
pub struct Flag<A> {
    /// The spelling, dashes included.
    pub name: &'static str,
    /// What the synopsis prints for the value (empty for a switch).
    pub metavar: &'static str,
    /// Value kind and setter.
    pub kind: Kind<A>,
}

/// A `--flag` row.
pub fn switch<A>(name: &'static str, set: fn(&mut A)) -> Flag<A> {
    Flag {
        name,
        metavar: "",
        kind: Kind::Switch(set),
    }
}

/// A `--flag VALUE` row.
pub fn value<A>(
    name: &'static str,
    metavar: &'static str,
    set: fn(&mut A, &str) -> Result<(), String>,
) -> Flag<A> {
    Flag {
        name,
        metavar,
        kind: Kind::Value(set),
    }
}

/// A binary's whole command line: its flag table plus the synopsis of
/// the bare-word operands it takes (empty when it takes none).
pub struct Cli<A> {
    /// Name the synopsis opens with.
    pub program: &'static str,
    /// The flag table.
    pub flags: Vec<Flag<A>>,
    /// Operand synopsis, e.g. `<table2|fig3> ...`.
    pub operands: &'static str,
}

impl<A> Cli<A> {
    /// Stores every flag of `argv` into `a` through its row's setter and
    /// returns the operands in order. `--help`/`-h` is an `Err` carrying
    /// the synopsis, like every other rejected line.
    pub fn parse(
        &self,
        a: &mut A,
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Vec<String>, String> {
        let mut it = argv.into_iter().peekable();
        let mut operands = Vec::new();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(self.usage());
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                if !arg.starts_with('-') && !self.operands.is_empty() {
                    operands.push(arg);
                    continue;
                }
                return Err(format!("unknown flag {arg}\n{}", self.usage()));
            };
            match flag.kind {
                Kind::Switch(set) => set(a),
                Kind::Value(set) => {
                    // A row's name is the next flag, never this one's value.
                    let is_flag = |v: &String| self.flags.iter().any(|f| f.name == v);
                    let v = it
                        .next_if(|v| !is_flag(v))
                        .ok_or(format!("{arg} needs a value"))?;
                    set(a, &v).map_err(|why| format!("bad {arg}: {why}"))?;
                }
                Kind::Optional { takes, set } => {
                    let v = it.next_if(|v| !v.starts_with('-') && takes(v));
                    set(a, v.as_deref());
                }
            }
        }
        Ok(operands)
    }

    /// The one-line synopsis, generated from the table.
    pub fn usage(&self) -> String {
        let mut s = format!("usage: {}", self.program);
        for f in &self.flags {
            let _ = match f.kind {
                Kind::Switch(_) => write!(s, " [{}]", f.name),
                Kind::Value(_) => write!(s, " [{} {}]", f.name, f.metavar),
                Kind::Optional { .. } => write!(s, " [{} [{}]]", f.name, f.metavar),
            };
        }
        if !self.operands.is_empty() {
            let _ = write!(s, " {}", self.operands);
        }
        s
    }
}

/// Setter body: `*slot = v.parse()`.
pub fn store<T: FromStr<Err: Display>>(slot: &mut T, v: &str) -> Result<(), String> {
    *slot = v.parse().map_err(|e: T::Err| e.to_string())?;
    Ok(())
}

/// Setter body: `*slot = Some(v.parse())`.
pub fn store_some<T: FromStr<Err: Display>>(slot: &mut Option<T>, v: &str) -> Result<(), String> {
    *slot = Some(v.parse().map_err(|e: T::Err| e.to_string())?);
    Ok(())
}

/// Setter body: `*slot` becomes the choice spelled `v`.
pub fn choose<T: Copy>(slot: &mut T, v: &str, choices: &[(&str, T)]) -> Result<(), String> {
    match choices.iter().find(|(name, _)| *name == v) {
        Some(&(_, choice)) => *slot = choice,
        None => {
            let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
            return Err(format!("wants {}, got {v}", names.join("|")));
        }
    }
    Ok(())
}

/// What the rows shared by `train` and `repro` store into, one field
/// per flag of the same name.
#[derive(Debug)]
pub struct Common {
    pub seed: u64,
    /// 0 keeps the `GNN_THREADS` / available-parallelism default.
    pub threads: usize,
    pub trace: bool,
    /// `--trace`'s optional value.
    pub trace_prefix: Option<PathBuf>,
    pub trace_format: TraceFormat,
    pub metrics_out: Option<PathBuf>,
}

impl Default for Common {
    fn default() -> Self {
        Self {
            seed: 1,
            threads: 0,
            trace: false,
            trace_prefix: None,
            trace_format: TraceFormat::Both,
            metrics_out: None,
        }
    }
}

/// The five rows both binaries accept. `prefix_like` is the binary's rule
/// for telling `--trace`'s optional `PREFIX` from whatever else may
/// follow the flag.
pub fn common_flags<A: AsMut<Common>>(prefix_like: fn(&str) -> bool) -> Vec<Flag<A>> {
    vec![
        value("--seed", "N", |a, v| store(&mut a.as_mut().seed, v)),
        value("--threads", "N", |a, v| store(&mut a.as_mut().threads, v)),
        Flag {
            name: "--trace",
            metavar: "PREFIX",
            kind: Kind::Optional {
                takes: prefix_like,
                set: |a, prefix| {
                    a.as_mut().trace = true;
                    if let Some(prefix) = prefix {
                        a.as_mut().trace_prefix = Some(PathBuf::from(prefix));
                    }
                },
            },
        },
        value("--trace-format", "jsonl|chrome|both", |a, v| {
            a.as_mut().trace_format = TraceFormat::parse(v)?;
            Ok(())
        }),
        value("--metrics-out", "FILE", |a, v| {
            store_some(&mut a.as_mut().metrics_out, v)
        }),
    ]
}
