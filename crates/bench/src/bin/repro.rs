//! `repro` — regenerate the paper's tables and figures.
//!
//! `repro --help` prints the synopsis — flags and commands — generated
//! from the table in `cli()`.
//!
//! Prints each artifact as an aligned table and writes a CSV twin to
//! `--out` (default `results/`). `--small` runs miniature datasets with
//! the same sweep shapes (seconds instead of minutes; used by CI).
//! `--threads N` sets the kernel thread count for every local SpMM/GEMM
//! (default: `GNN_THREADS` env, then available parallelism); results are
//! bit-identical at any thread count. `--kernel strict|fast` sets the
//! SIMD kernel numerics (strict — the default — is also bit-identical
//! across scalar/AVX2/NEON backends; fast trades that for FMA).
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
use std::time::Instant;

use gnn_bench::cli::{common_flags, store, switch, value, Cli, Common};
use gnn_bench::experiments::{self, Suite};
use gnn_bench::table::Table;
use gnn_bench::traceio;
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
const LAUNCHER_FLAGS: [&str; 6] = [
    "--backend",
    "--ranks",
    "--proc-dir",
    "--proc-child",
    "--hostfile",
    "--net-chaos",
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
        operands:
            "<table2|table3|fig3|fig4|fig5|fig6|fig7|volumes|overlap|algos|ablations|sweep|all> ...",
    }
}

fn emit(name: &str, title: &str, table: &Table, out: &std::path::Path) {
    println!("\n=== {title} ===");
    print!("{}", table.render());
    match table.write_csv(out, name) {
        Ok(()) => println!("[csv written to {}/{name}.csv]", out.display()),
        Err(e) => eprintln!("warning: could not write csv: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (common, seed) = (&args.common, args.common.seed);
    spmat::pool::set_threads(common.threads); // 0 keeps the auto default
    if let Some(mode) = common.kernel_mode {
        spmat::kernel::set_mode(mode);
    }
    let kernels = spmat::kernel::active();
    eprintln!(
        "kernel threads: {} | {} backend ({} mode) — results are \
         thread-count independent{}",
        spmat::pool::current_threads(),
        kernels.backend.label(),
        kernels.mode.label(),
        if kernels.mode == spmat::kernel::KernelMode::Strict {
            " and backend-independent"
        } else {
            ""
        }
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
        commands = [
            "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "volumes", "overlap",
            "algos",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    for cmd in &commands {
        let t = Instant::now();
        match cmd.as_str() {
            "table2" => {
                let ps: Vec<usize> = if args.small {
                    vec![4, 8, 16, 32]
                } else {
                    vec![16, 32, 64, 128, 256]
                };
                let (table, _) = experiments::table2(&suite.amazon, &ps, seed);
                emit(
                    "table2",
                    "Table 2: per-SpMM communication under the edgecut-only partitioner (amazon-scaled)",
                    &table,
                    &args.out,
                );
            }
            "table3" => {
                let table = experiments::table3(&suite);
                emit(
                    "table3",
                    "Table 3: dataset properties (scaled analogues)",
                    &table,
                    &args.out,
                );
            }
            "fig3" => {
                let (table, _) = experiments::fig3(&suite, seed);
                emit("fig3", "Figure 3: 1D epoch time vs GPUs", &table, &args.out);
            }
            "fig4" => {
                let (table, _) = experiments::fig4(&suite, seed);
                emit("fig4", "Figure 4: 1D timing breakdown", &table, &args.out);
            }
            "fig5" => {
                let (table, _) = experiments::fig5(&suite, seed);
                emit("fig5", "Figure 5: papers-scaled at p=16", &table, &args.out);
            }
            "fig6" => {
                let (table, _) = experiments::fig6(&suite, seed);
                emit("fig6", "Figure 6: SA+METIS vs SA+GVB", &table, &args.out);
            }
            "fig7" => {
                let (table, _) = experiments::fig7(&suite, seed);
                emit(
                    "fig7",
                    "Figure 7: 1.5D epoch time vs GPUs",
                    &table,
                    &args.out,
                );
            }
            "volumes" => {
                let (table, _) = experiments::volumes(&suite, seed);
                emit(
                    "volumes",
                    "Communication volume view: bottleneck-rank received MB per epoch",
                    &table,
                    &args.out,
                );
            }
            "overlap" => {
                let (table, _) = experiments::overlap(&suite, seed);
                emit(
                    "overlap",
                    "Overlap ablation: measured chunked-pipeline overlap vs blocking schedules",
                    &table,
                    &args.out,
                );
            }
            "algos" => {
                let p = if args.small { 8 } else { 16 };
                let (table, _) = experiments::algos(&suite, p, seed);
                emit(
                    "algos",
                    "Extension: per-SpMM bottleneck exchange volume across 1D / 1.5D / 2D layouts",
                    &table,
                    &args.out,
                );
            }
            "ablations" => {
                let table = experiments::ablations(&suite, seed);
                emit(
                    "ablations",
                    "Design ablations: alternatives held to the same answer, then timed on this host",
                    &table,
                    &args.out,
                );
                let (table, _) = experiments::layer_order(&suite, seed);
                emit(
                    "layer_order",
                    "Layer order (extension): the paper's (ÂH)W vs the narrow side of every layer, 1D modeled",
                    &table,
                    &args.out,
                );
            }
            "sweep" => {
                let (table, cells) = experiments::sweep(&suite, args.small, seed);
                emit(
                    "sweep",
                    "Conformance sweep: executed training vs serial reference and analytic model \
                     across 1D / 1.5D / 2D / 3D × oblivious / SA / SA+GVB",
                    &table,
                    &args.out,
                );
                let bad: Vec<_> = cells.iter().filter(|c| !c.conforms()).collect();
                if !bad.is_empty() {
                    for c in &bad {
                        eprintln!(
                            "NONCONFORMANT: {} {} p={} (weight drift {:.3e}, volume match {})",
                            c.algo, c.scheme, c.p, c.weight_drift, c.volume_match
                        );
                    }
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown command {other}\n{}", cli().usage());
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
        print!("\n{}", traceio::render_report(trace));
        let prefix = common
            .trace_prefix
            .clone()
            .unwrap_or_else(|| traceio::default_prefix(&format!("repro_reddit_1d_p{p}")));
        match traceio::write_trace(&prefix, common.trace_format, trace) {
            Ok(paths) => {
                for p in paths {
                    println!("[trace written to {}]", p.display());
                }
            }
            Err(e) => eprintln!("warning: could not write trace: {e}"),
        }
        let metrics_path = common
            .metrics_out
            .clone()
            .unwrap_or_else(|| prefix.with_extension("metrics.json"));
        match traceio::write_metrics(&metrics_path, &out) {
            Ok(()) => println!("[metrics written to {}]", metrics_path.display()),
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
    /// returned on first sight, so `--hostfile h --net-chaos c` only
    /// reported `--hostfile`).
    #[test]
    fn launcher_flag_error_names_all_offenders() {
        let err = parse(&[
            "--hostfile",
            "hosts.txt",
            "--net-chaos",
            "drop=0.1",
            "volumes",
        ])
        .unwrap_err();
        assert!(err.contains("--hostfile"), "missing --hostfile: {err}");
        assert!(err.contains("--net-chaos"), "missing --net-chaos: {err}");
        assert!(err.contains("train --backend proc"), "no remedy: {err}");

        // A single offender still reads grammatically.
        let err = parse(&["--backend", "proc", "table2"]).unwrap_err();
        assert!(err.contains("--backend belongs"), "singular form: {err}");
        assert!(!err.contains("--ranks"));
    }

    #[test]
    fn sweep_command_is_accepted() {
        let args = parse(&["--small", "sweep"]).unwrap();
        assert_eq!(args.commands, ["sweep"]);
        assert!(args.small);
    }
}
