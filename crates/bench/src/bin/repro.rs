//! `repro` — regenerate the paper's tables and figures.
//!
//! `repro --help` prints the synopsis generated from two tables: the
//! flags in `cli()`, and the commands in `ARTIFACTS`, where every
//! artifact is one row (command, CSV name, title, run). `all` and the
//! dispatch read the same rows.
//!
//! Prints each artifact as an aligned table and writes a CSV twin to
//! `--out` (default `results/`). `--small` runs miniature datasets with
//! the same sweep shapes (seconds instead of minutes; used by CI).
//! `--threads N` sets the kernel thread count for every local SpMM/GEMM
//! (default: `GNN_THREADS` env, then available parallelism); results are
//! bit-identical at any thread count and across the scalar, AVX2 and
//! NEON kernel backends.
//!
//! Everything here is the paper's layer order, `(ÂH)W` at every layer —
//! there is no flag for the other one; `repro ablations` prices both side
//! by side in its *layer order* table.
//!
//! The tables and figures are computed analytically from recorded
//! volumes, so `--trace` instead runs a short *executor-backed*
//! training pass (1D sparsity-aware on the Reddit analogue) with the
//! structured tracer armed, writes `<PREFIX>.jsonl` /
//! `<PREFIX>.chrome.json` (default prefix under `results/traces/`),
//! and prints the bottleneck-rank attribution report. `--trace` may be
//! given with no table/figure commands at all.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use gnn_bench::cli::{common_flags, store, switch, value, Cli, Common};
use gnn_bench::experiments::{self, Suite};
use gnn_bench::table::Table;
use gnn_bench::traceio;
use gnn_bench::{out, outln};
use gnn_comm::CostModel;
use gnn_core::{try_train_distributed, Algo, DistConfig, GcnConfig};
use partition::{partition_graph, Method, PartitionConfig};

#[derive(Debug)]
struct Args {
    small: bool,
    out: PathBuf,
    commands: Vec<String>,
    /// The flags `train` takes too.
    common: Common,
}

impl AsMut<Common> for Args {
    fn as_mut(&mut self) -> &mut Common {
        &mut self.common
    }
}

/// Flags of `train`'s process-backend launcher, which `repro` never is.
const LAUNCHER_FLAGS: [&str; 5] = [
    "--backend",
    "--ranks",
    "--proc-dir",
    "--proc-child",
    "--hostfile",
];

fn parse_args_from(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let argv: Vec<String> = raw.collect();
    // Named all at once, not one per attempt.
    let launcher: Vec<&str> = argv
        .iter()
        .map(String::as_str)
        .filter(|a| LAUNCHER_FLAGS.contains(a))
        .collect();
    if !launcher.is_empty() {
        return Err(format!(
            "{} belong{} to the process-backend launcher; repro computes its \
             artifacts analytically on the thread backend only — use \
             `train --backend proc` for a process-backed run",
            launcher.join(", "),
            if launcher.len() == 1 { "s" } else { "" }
        ));
    }
    let mut args = Args {
        small: false,
        out: PathBuf::from("results"),
        commands: Vec::new(),
        common: Common::default(),
    };
    args.commands = cli().parse(&mut args, argv)?;
    if args.commands.is_empty() && !args.common.trace {
        return Err(cli().usage());
    }
    Ok(args)
}

/// `repro`'s flag table.
fn cli() -> Cli<Args> {
    let mut flags = vec![
        switch("--small", |a: &mut Args| a.small = true),
        value("--out", "DIR", |a, v| store(&mut a.out, v)),
    ];
    // Bare words are table/figure commands; a `--trace` prefix is a path.
    flags.extend(common_flags(|v| v.contains(['/', '.'])));
    Cli {
        program: "repro",
        flags,
        operands: operands(),
    }
}

/// Computes one artifact: its table, and the lines that fail the run
/// once the table is out (the sweep's nonconformant cells).
type Run = fn(&Suite, &Args) -> (Table, Vec<String>);

/// Every artifact `repro` prints, in synopsis order: (command, CSV name,
/// title, run). A command that prints two tables has two adjacent rows.
const ARTIFACTS: &[(&str, &str, &str, Run)] = &[
    (
        "table2",
        "table2",
        "Table 2: per-SpMM communication under the edgecut-only partitioner (amazon-scaled)",
        |s, a| {
            let ps: &[usize] = if a.small {
                &[4, 8, 16, 32]
            } else {
                &[16, 32, 64, 128, 256]
            };
            (experiments::table2(&s.amazon, ps, a.common.seed).0, vec![])
        },
    ),
    (
        "table3",
        "table3",
        "Table 3: dataset properties (scaled analogues)",
        |s, _| (experiments::table3(s), vec![]),
    ),
    ("fig3", "fig3", "Figure 3: 1D epoch time vs GPUs", |s, a| {
        (experiments::fig3(s, a.common.seed).0, vec![])
    }),
    ("fig4", "fig4", "Figure 4: 1D timing breakdown", |s, a| {
        (experiments::fig4(s, a.common.seed).0, vec![])
    }),
    ("fig5", "fig5", "Figure 5: papers-scaled at p=16", |s, a| {
        (experiments::fig5(s, a.common.seed).0, vec![])
    }),
    ("fig6", "fig6", "Figure 6: SA+METIS vs SA+GVB", |s, a| {
        (experiments::fig6(s, a.common.seed).0, vec![])
    }),
    (
        "fig7",
        "fig7",
        "Figure 7: 1.5D epoch time vs GPUs",
        |s, a| (experiments::fig7(s, a.common.seed).0, vec![]),
    ),
    (
        "volumes",
        "volumes",
        "Communication volume view: bottleneck-rank received MB per epoch",
        |s, a| (experiments::volumes(s, a.common.seed).0, vec![]),
    ),
    (
        "algos",
        "algos",
        "Extension: per-SpMM bottleneck exchange volume across 1D / 1.5D / 2D layouts",
        |s, a| {
            let p = if a.small { 8 } else { 16 };
            (experiments::algos(s, p, a.common.seed).0, vec![])
        },
    ),
    (
        "ablations",
        "ablations",
        "Design ablations: alternatives held to the same answer, then timed on this host",
        |s, a| (experiments::ablations(s, a.common.seed), vec![]),
    ),
    (
        "ablations",
        "layer_order",
        "Layer order (extension): the paper's (ÂH)W vs the narrow side of every layer, 1D modeled",
        |s, a| (experiments::layer_order(s, a.common.seed).0, vec![]),
    ),
    (
        "sweep",
        "sweep",
        "Conformance sweep: executed training vs serial reference and analytic model \
         across 1D / 1.5D / 2D / 3D × oblivious / SA / SA+GVB",
        |s, a| {
            let (table, cells) = experiments::sweep(s, a.small, a.common.seed);
            let bad = cells.iter().filter(|c| !c.conforms()).map(|c| {
                format!(
                    "NONCONFORMANT: {} {} p={} (weight drift {:.3e}, volume match {})",
                    c.algo, c.scheme, c.p, c.weight_drift, c.volume_match
                )
            });
            (table, bad.collect())
        },
    ),
];

/// Commands `all` leaves out: they time this host or run the full
/// conformance check rather than reproduce a paper artifact.
const NOT_IN_ALL: [&str; 2] = ["ablations", "sweep"];

/// Every command once, in table order.
fn command_names() -> Vec<&'static str> {
    let mut names: Vec<_> = ARTIFACTS.iter().map(|&(name, ..)| name).collect();
    names.dedup();
    names
}

/// The usage synopsis's operands: every command, then `all`.
fn operands() -> &'static str {
    static OPERANDS: OnceLock<String> = OnceLock::new();
    OPERANDS.get_or_init(|| format!("<{}|all> ...", command_names().join("|")))
}

fn emit(name: &str, title: &str, table: &Table, out: &std::path::Path) {
    outln!("\n=== {title} ===");
    out!("{}", table.render());
    match table.write_csv(out, name) {
        Ok(()) => outln!("[csv written to {}/{name}.csv]", out.display()),
        Err(e) => eprintln!("warning: could not write csv: {e}"),
    }
}

fn main() -> ExitCode {
    out::finish(run())
}

fn run() -> ExitCode {
    let args = match parse_args_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (common, seed) = (&args.common, args.common.seed);
    spmat::pool::set_threads(common.threads); // 0 keeps the auto default
    let kernels = spmat::kernel::active();
    eprintln!(
        "kernel threads: {} | {} backend ({} mode) — results are \
         thread-count and backend independent",
        spmat::pool::current_threads(),
        kernels.backend.label(),
        kernels.mode.label(),
    );
    eprintln!("layer order: paper (ÂH)W — `train --order narrow` is the extension");
    let t0 = Instant::now();
    eprintln!(
        "building {} dataset suite (seed {})...",
        if args.small { "small" } else { "full" },
        seed
    );
    let suite = if args.small {
        Suite::small(seed)
    } else {
        Suite::full(seed)
    };
    eprintln!("suite ready in {:.1}s", t0.elapsed().as_secs_f64());

    let mut commands = args.commands.clone();
    if commands.iter().any(|c| c == "all") {
        let all = command_names()
            .into_iter()
            .filter(|c| !NOT_IN_ALL.contains(c));
        commands = all.map(String::from).collect();
    }

    for cmd in &commands {
        let t = Instant::now();
        let mut rows = ARTIFACTS
            .iter()
            .filter(|&&(name, ..)| name == cmd)
            .peekable();
        if rows.peek().is_none() {
            eprintln!("unknown command {cmd}\n{}", cli().usage());
            return ExitCode::FAILURE;
        }
        for &(_, csv, title, run) in rows {
            let (table, failures) = run(&suite, &args);
            emit(csv, title, &table, &args.out);
            if !failures.is_empty() {
                for line in &failures {
                    eprintln!("{line}");
                }
                return ExitCode::FAILURE;
            }
        }
        eprintln!("[{cmd} done in {:.1}s]", t.elapsed().as_secs_f64());
    }

    if common.trace {
        let t = Instant::now();
        let p = if args.small { 4 } else { 8 };
        let epochs = 3;
        eprintln!("running traced 1D sparsity-aware training (reddit analogue, p={p}, {epochs} epochs)...");
        let ds = &suite.reddit;
        let part = partition_graph(
            &ds.adj,
            p,
            &PartitionConfig::new(Method::VolumeBalanced).with_seed(seed),
        );
        let ds = ds.permute(&part.to_permutation());
        let bounds = part.block_bounds();
        let mut cfg = DistConfig::new(
            Algo::OneD { aware: true },
            GcnConfig::paper_default(ds.f(), ds.num_classes),
            epochs,
            CostModel::perlmutter_like().with_threads(spmat::pool::current_threads()),
        )
        .paper_order();
        cfg.trace = true;
        let out = match try_train_distributed(&ds, &bounds, &cfg) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("traced run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trace = out.trace.as_ref().expect("tracing was enabled");
        out!("\n{}", traceio::render_report(trace));
        let prefix = common
            .trace_prefix
            .clone()
            .unwrap_or_else(|| traceio::default_prefix(&format!("repro_reddit_1d_p{p}")));
        match traceio::write_trace(&prefix, common.trace_format, trace) {
            Ok(paths) => {
                for p in paths {
                    outln!("[trace written to {}]", p.display());
                }
            }
            Err(e) => eprintln!("warning: could not write trace: {e}"),
        }
        let metrics_path = common
            .metrics_out
            .clone()
            .unwrap_or_else(|| prefix.with_extension("metrics.json"));
        match traceio::write_metrics(&metrics_path, &out) {
            Ok(()) => outln!("[metrics written to {}]", metrics_path.display()),
            Err(e) => eprintln!("warning: could not write metrics: {e}"),
        }
        eprintln!("[trace done in {:.1}s]", t.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
#[path = "../../tests/common/hostile_argv.rs"]
mod hostile_argv;

#[cfg(test)]
mod tests {
    use super::parse_args_from;

    fn parse(argv: &[&str]) -> Result<super::Args, String> {
        parse_args_from(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn hostile_argv_is_rejected_by_flag_name() {
        super::hostile_argv::check(&super::cli(), &["table3"], |argv| {
            parse_args_from(argv.into_iter()).map(drop)
        });
    }

    /// The launcher-flag rejection must name *every* offending flag, not
    /// just the first one encountered (regression: the old match arm
    /// returned on first sight, so `--hostfile h --proc-dir d` only
    /// reported `--hostfile`).
    #[test]
    fn launcher_flag_error_names_all_offenders() {
        let err =
            parse(&["--hostfile", "hosts.txt", "--proc-dir", "/tmp/d", "volumes"]).unwrap_err();
        assert!(err.contains("--hostfile"), "missing --hostfile: {err}");
        assert!(err.contains("--proc-dir"), "missing --proc-dir: {err}");
        assert!(err.contains("train --backend proc"), "no remedy: {err}");

        // A single offender still reads grammatically.
        let err = parse(&["--backend", "proc", "table2"]).unwrap_err();
        assert!(err.contains("--backend belongs"), "singular form: {err}");
        assert!(!err.contains("--ranks"));
    }

    /// Each command once, in table order: a command's rows must be
    /// adjacent in `ARTIFACTS`.
    #[test]
    fn synopsis_lists_each_command_once() {
        assert_eq!(
            super::operands(),
            "<table2|table3|fig3|fig4|fig5|fig6|fig7|volumes|algos|ablations|sweep|all> ..."
        );
    }

    #[test]
    fn sweep_command_is_accepted() {
        let args = parse(&["--small", "sweep"]).unwrap();
        assert_eq!(args.commands, ["sweep"]);
        assert!(args.small);
    }
}
