//! `perf` — the repository's wall-clock benchmark (see `BENCHMARK.json`
//! and `perf/README.md`).
//!
//! ```text
//! perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--allow-env]
//! perf aa --workload W [--seed N] [--seconds S] [--allow-env]
//! ```
//!
//! One run measures one workload for one seed in a fresh process: it
//! generates the inputs, times the program from outside through public
//! calls only, checks every training call against the oracles, prints
//! every metric by name with its unit, and ends with the one-line JSON
//! result. `--trace 0` reports the end-to-end metrics; `--trace 1` is
//! the traced run, which reports the per-layer metrics. `aa` runs two
//! sets of the same build and checks they agree within the bounds.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the perf harness reads /proc and calls getrusage with the 64-bit Linux layout");

mod e2e;
mod host;
mod layers;
mod metrics;
mod procs;
mod spans;
mod stats;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use gnn_trace::json::{parse, Json};
use spmat::dataset::Dataset;

use e2e::{Oracle, Pair, Runner, Variant};
use host::{HostInfo, Usage};
use metrics::{result_line, Report, END_TO_END, PER_LAYER};
use spans::Spans;
use stats::{iqr, median, tail_percentile};
use workload::{fingerprint, prepare, Backend, Workload, E_SHORT, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: how long one run samples.
pub const DEFAULT_SECONDS: u64 = 20;

/// Repetitions of partition + permute; `setup_s` takes their median.
const PREPARE_REPS: usize = 5;

/// Sample pairs of the single-rank baseline in the traced run.
const P1_PAIRS: u32 = 3;

/// Share of a traced run's `--seconds` spent on end-to-end pairs; the
/// rest is left to the per-layer pass.
const TRACED_E2E_SHARE: f64 = 0.65;

/// The host changed under the run if the calibration loop moved more.
const CALIB_DRIFT_LIMIT: f64 = 0.05;

struct Opts {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    allow_env: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perf [aa] --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--allow-env]",
        names.join("|")
    )
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS as f64;
    let mut trace = false;
    let mut allow_env = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::find(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--allow-env" => allow_env = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        allow_env,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    if let Some(child @ (procs::CHILD_TRAIN | procs::CHILD_COMM)) = mode {
        return procs::child_main(child, &args[1..]);
    }
    let (agreement, rest) = match mode {
        Some("aa") => (true, &args[1..]),
        _ => (false, &args[..]),
    };
    let outcome = parse_opts(rest)
        .map_err(|e| format!("{e}\n{}", usage()))
        .and_then(|opts| {
            check_environment(&opts)?;
            if agreement {
                agree(&opts)
            } else {
                run(&opts)
            }
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::from(2)
        }
    }
}

/// Kernel-affecting variables are refused unless allowed (and then
/// recorded); the benchmark runs from the repository root.
fn check_environment(opts: &Opts) -> Result<(), String> {
    let set = host::kernel_env_set();
    if !set.is_empty() && !opts.allow_env {
        let names: Vec<&str> = set.iter().map(|(k, _)| k.as_str()).collect();
        return Err(format!(
            "{} set in the environment; unset it or pass --allow-env to record it",
            names.join(", ")
        ));
    }
    if !Path::new("perf/Cargo.toml").is_file() {
        return Err("run from the repository root (no perf/Cargo.toml here)".into());
    }
    Ok(())
}

fn line(name: &str, value: impl std::fmt::Display, unit: &str) {
    println!("{}", format!("{name:<36} {value} {unit}").trim_end());
}

/// A timing sample set: median as the metric, with IQR, N and the tail
/// percentile beside it.
fn describe(name: &str, xs: &[f64]) {
    let tail = match tail_percentile(xs) {
        Some((pct, v)) => format!("p{pct} {v}"),
        None => "tail n/a (N <= 10)".to_string(),
    };
    println!(
        "{name:<36} {} s  (IQR {} s, N {}, {tail})",
        median(xs),
        iqr(xs),
        xs.len()
    );
}

/// Runs pairs of `variants` round-robin until `budget_s` is used up (at
/// least one round), stopping at the first failed call.
fn sample_rounds(
    runner: &mut Runner,
    e_long: usize,
    variants: &[Variant],
    budget_s: f64,
    spans: &mut Spans,
) -> Vec<Vec<Pair>> {
    let start = Instant::now();
    let mut rounds: Vec<Vec<Pair>> = Vec::new();
    let mut index = 0;
    loop {
        let round_start = Instant::now();
        let mut round = Vec::with_capacity(variants.len());
        // Every variant of a round runs in the same order, and the order
        // flips from round to round.
        let short_first = rounds.len().is_multiple_of(2);
        for &v in variants {
            match runner.pair(index, short_first, e_long, v, spans) {
                Some(pair) => round.push(pair),
                None => return rounds,
            }
            index += 1;
        }
        rounds.push(round);
        // Stop when the next round would overshoot by more than it
        // undershoots.
        let round_s = round_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + 0.5 * round_s >= budget_s {
            return rounds;
        }
    }
}

/// Median over rounds of `(variant − plain) / plain` for `epoch_s`.
fn overhead_share(rounds: &[Vec<Pair>], variant_at: usize) -> f64 {
    let shares: Vec<f64> = rounds
        .iter()
        .map(|r| (r[variant_at].epoch_s() - r[0].epoch_s()) / r[0].epoch_s())
        .collect();
    median(&shares)
}

/// What was run, on what, where.
fn print_header(opts: &Opts, host: &HostInfo, raw: &Dataset, inputs: u64, e_long: usize) {
    let wl = opts.workload;
    line("workload", wl.name, "");
    line("why", wl.why, "");
    line("seed", opts.seed, "");
    line("inputs.fingerprint", format!("{inputs:016x}"), "");
    line(
        "inputs.shape",
        format!(
            "{} vertices, {} edges, f={}, {} classes",
            raw.n(),
            raw.edges(),
            raw.f(),
            raw.num_classes
        ),
        "",
    );
    line(
        "load",
        format!(
            "closed loop, 1 trainer, {} rank(s) x 1 kernel thread, {:?} backend, pairs of \
             {E_SHORT}+{e_long} epochs",
            wl.ranks(),
            wl.backend
        ),
        "",
    );
    line("host.hostname", &host.hostname, "");
    line("host.cpu_model", &host.cpu_model, "");
    line(
        "host.kernels",
        format!("{} ({})", host.kernel_backend, host.kernel_mode),
        "",
    );
    line("host.git_commit", &host.git_commit, "");
    for (k, v) in host::kernel_env_set() {
        line("host.env", format!("{k}={v} (--allow-env)"), "");
    }
}

/// One measured run. `Ok(false)`: it ran but a check failed.
fn run(opts: &Opts) -> Result<bool, String> {
    let wl = opts.workload;
    spmat::pool::set_threads(1);
    let host = HostInfo::probe();
    let calib_before = host::calib_s();
    let mut spans = Spans::new(opts.trace);
    let mut report = Report::default();

    // Inputs, from the seed alone.
    let raw = wl.generate(opts.seed);
    let inputs = fingerprint(&raw);

    // Only the newest prepared dataset is kept: five alive at once would
    // set the peak RSS.
    let open = spans.begin("prepare", "bench");
    let mut preps: Vec<workload::Prepared> = Vec::with_capacity(1);
    let mut times = Vec::with_capacity(PREPARE_REPS);
    for _ in 0..PREPARE_REPS {
        preps.clear();
        let p = spans.begin("partition_graph+permute", "partition");
        preps.push(prepare(wl, &raw, opts.seed));
        spans.end(p);
        times.push((preps[0].partition_s, preps[0].permute_s));
    }
    spans.end(open);
    let prep = preps.pop().expect("PREPARE_REPS > 0");
    let column = |f: fn(&(f64, f64)) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let (partition_s, permute_s, prepare_s) =
        (column(|t| t.0), column(|t| t.1), column(|t| t.0 + t.1));

    // A traced run samples shorter pairs, to fit three variants and the
    // per-layer pass in the same wall time.
    let e_long = if opts.trace {
        E_SHORT + (wl.e_long - E_SHORT) / 2
    } else {
        wl.e_long
    };
    let oracle = Oracle::build(wl, &prep, &[E_SHORT, e_long], &mut spans)?;
    let mut runner = Runner::new(wl, &prep, opts.seed, oracle);
    runner.warm_up(e_long, &mut spans);

    let mut variants = vec![Variant::Plain];
    let mut budget_s = opts.seconds;
    if opts.trace {
        variants.push(Variant::Spans);
        if wl.backend == Backend::Thread {
            variants.push(Variant::ProgTrace);
        }
        budget_s *= TRACED_E2E_SHARE;
    }
    let rounds = if runner.failures.is_empty() {
        sample_rounds(&mut runner, e_long, &variants, budget_s, &mut spans)
    } else {
        Vec::new()
    };

    print_header(opts, &host, &raw, inputs, e_long);

    if !rounds.is_empty() {
        let plain: Vec<&Pair> = rounds.iter().map(|r| &r[0]).collect();
        let slopes: Vec<f64> = plain.iter().map(|p| p.epoch_s()).collect();
        let epoch_s = median(&slopes);
        let launches: Vec<f64> = plain.iter().map(|p| p.launch_s()).collect();
        let launch_s = median(&launches);
        let setup_s = prepare_s + launch_s;
        let child_rss = rounds
            .iter()
            .flatten()
            .map(|p| p.long.child_rss_bytes)
            .max()
            .unwrap_or(0);
        let own_rss = host::vm_hwm_bytes().ok_or("no VmHWM in /proc/self/status")?;

        describe("epoch_s samples", &slopes);
        describe("core.launch_s samples", &launches);
        report.set("epoch_s", epoch_s);
        report.set("setup_s", setup_s);
        report.set("train100_s", setup_s + 100.0 * epoch_s);
        report.set("peak_rss_bytes", (own_rss + child_rss) as f64);

        if opts.trace {
            layer_pass(
                &mut runner,
                &rounds,
                &variants,
                &raw,
                epoch_s,
                &mut report,
                &mut spans,
            )?;
        }
        report.set("comm.restarts", runner.restarts as f64);
        report.set("core.prepare_s", prepare_s);
        report.set("core.launch_s", launch_s);
        report.set("partition.partition_s", partition_s);
        report.set("spmat.permute_s", permute_s);
    }

    let calib_after = host::calib_s();
    let calib_drift = (calib_after - calib_before).abs() / calib_before;
    report.set("host.calib_s", 0.5 * (calib_before + calib_after));
    report.set("host.nproc", host.nproc as f64);
    line("host.calib_drift", calib_drift, "ratio");
    if calib_drift > CALIB_DRIFT_LIMIT {
        println!("note: host.calib_s moved more than 5% during the run; the host changed, rerun");
    }

    let shown = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    // The other table's values that this mode measures on the way are
    // printed too, but only `shown` goes into the result line.
    for l in report
        .lines(&END_TO_END)
        .iter()
        .chain(&report.lines(&PER_LAYER))
    {
        println!("{l}");
    }

    if opts.trace {
        println!("self time by layer over the traced run (span minus children):");
        for (layer, secs) in spans.self_time_by_layer() {
            line(&format!("  self.{layer}"), secs, "s");
        }
        let path = Path::new("perf/out").join(format!("{}.spans.jsonl", wl.name));
        spans
            .write_jsonl(&path, wl.name)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans                                {}", path.display());
    }

    let failed = runner.failures.len() as u64;
    line(
        "failed_runs",
        format!("{failed} of {}", runner.attempted),
        "calls",
    );
    for why in &runner.failures {
        println!("FAILED {why}");
    }
    let metrics = match report.metrics_json(shown) {
        Ok(json) => json,
        // With a failed call the sample sets may be empty: still print a
        // well-formed verdict, with no metrics.
        Err(_) if failed > 0 => "{}".to_string(),
        Err(why) => return Err(why),
    };
    let correct = failed == 0;
    println!(
        "{}",
        result_line(correct, runner.attempted, failed, &metrics)
    );
    Ok(correct)
}

/// The traced run's per-layer pass, after the end-to-end samples.
fn layer_pass(
    runner: &mut Runner,
    rounds: &[Vec<Pair>],
    variants: &[Variant],
    raw: &Dataset,
    epoch_s: f64,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<(), String> {
    let wl = runner.wl;
    let plain: Vec<&Pair> = rounds.iter().map(|r| &r[0]).collect();
    let e_long = plain[0].e_long;

    // bench / trace: instrumented pairs against the plain pair of the
    // same round.
    report.set("bench.span_overhead_share", overhead_share(rounds, 1));
    match variants.iter().position(|&v| v == Variant::ProgTrace) {
        Some(at) => {
            report.set("trace.overhead_share", overhead_share(rounds, at));
            let mut export_s = Vec::new();
            let mut events = 0;
            for round in rounds {
                let trace = round[at].long.outcome.trace.as_ref();
                let trace = trace.ok_or("DistConfig.trace was set but no trace came back")?;
                events = trace.len();
                let open = spans.begin("jsonl_string", "trace");
                let t = Instant::now();
                std::hint::black_box(gnn_trace::jsonl_string(trace));
                export_s.push(t.elapsed().as_secs_f64());
                spans.end(open);
            }
            report.set("trace.events_per_epoch", events as f64 / e_long as f64);
            report.set("trace.export_s", median(&export_s));
        }
        None => {
            for name in [
                "trace.overhead_share",
                "trace.events_per_epoch",
                "trace.export_s",
            ] {
                report.set(name, 0.0);
            }
        }
    }

    // os: resource use across the plain long calls, per epoch.
    let mut used = Usage::default();
    plain.iter().for_each(|p| used.add(p.usage_long));
    let epochs = (plain.len() * e_long) as f64;
    report.set("os.cpu_user_s_per_epoch", used.user_s / epochs);
    report.set("os.cpu_sys_s_per_epoch", used.sys_s / epochs);
    report.set("os.minor_faults_per_epoch", used.minor_faults / epochs);
    report.set(
        "os.vol_ctx_switches_per_epoch",
        used.vol_ctx_switches / epochs,
    );

    // core: the single-rank baseline and the model. One rank holding
    // every row is a new shape for the allocator, and the first calls on
    // it pay for mapping its buffers (0.8 s against 0.25 s on protein14):
    // one discarded call of each length first.
    if runner.call_p1(E_SHORT, spans).is_none() || runner.call_p1(e_long, spans).is_none() {
        return Ok(()); // recorded as a failed call
    }
    let mut p1 = Vec::new();
    for i in 0..P1_PAIRS {
        spans.set_sample(i);
        let (Some(short), Some(long)) = (
            runner.call_p1(E_SHORT, spans),
            runner.call_p1(e_long, spans),
        ) else {
            return Ok(()); // recorded as a failed call
        };
        p1.push(stats::two_point(short.secs, E_SHORT, long.secs, e_long).0);
    }
    let p1_epoch_s = median(&p1);
    let last = &plain[plain.len() - 1].long;
    let cores = wl.ranks().min(host::nproc()) as f64;
    report.set("core.p1_epoch_s", p1_epoch_s);
    report.set("core.compute_share", p1_epoch_s / cores / epoch_s);
    report.set("core.speedup_vs_p1", p1_epoch_s / epoch_s);
    report.set("core.reference_epoch_s", runner.oracle.reference_epoch_s);
    report.set("core.model_epoch_s", runner.oracle.model_epoch_s);
    report.set(
        "core.wall_over_model",
        epoch_s / runner.oracle.model_epoch_s,
    );
    report.set("core.analytic_eval_s", runner.oracle.analytic_eval_s);
    let drift = rounds
        .iter()
        .flatten()
        .map(|p| p.long.drift)
        .fold(0.0, f64::max);
    report.set("core.weight_drift", drift);
    let final_loss = last.outcome.records.last().map_or(f64::NAN, |r| r.loss);
    report.set("core.final_loss", final_loss);
    line(
        "core.final_loss.bits",
        format!("{:016x} after {e_long} epochs", final_loss.to_bits()),
        "",
    );

    // comm, spmat, partition.
    let stats = &last.outcome.stats;
    layers::comm_counts(wl, stats, e_long, report);
    let msg_bytes = layers::dominant_message_bytes(wl, stats);
    let spec = layers::CommSpec::of(wl, raw, msg_bytes);
    line("comm.message_bytes", spec.msg_bytes(), "bytes");
    layers::comm_layer(wl, &spec, report, spans)?;
    layers::spmat_layer(runner.prep, spec.msg_rows, report, spans);
    layers::partition_layer(&runner.prep.part, raw, report);
    Ok(())
}

/// Agreement mode: two full sets of the same build, back to back, each
/// in a fresh process; they must agree within the benchmark's bounds.
fn agree(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut sets = Vec::new();
    for set in 1..=2 {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", opts.workload.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", "0"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if opts.allow_env {
            cmd.arg("--allow-env");
        }
        let out = cmd.output().map_err(|e| format!("set {set}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        if !out.status.success() {
            print!("{text}");
            return Err(format!("set {set} failed ({})", out.status));
        }
        let last = text.lines().last().ok_or("set printed nothing")?;
        let result = parse(last).map_err(|e| format!("set {set} result line: {e}"))?;
        let calib = text
            .lines()
            .find_map(|l| l.strip_prefix("host.calib_s"))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .ok_or("set printed no host.calib_s")?;
        sets.push((result, calib));
    }

    let value = |set: &Json, name: &str| {
        set.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("a set reported no {name}"))
    };
    println!(
        "agreement of two sets: {} seed {}",
        opts.workload.name, opts.seed
    );
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>7}",
        "metric", "set 1", "set 2", "rel.diff", "bound"
    );
    let mut agreed = true;
    for d in &END_TO_END {
        let (a, b) = (value(&sets[0].0, d.name)?, value(&sets[1].0, d.name)?);
        let diff = (b - a) / a;
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        let ok = diff.abs() <= bound;
        agreed &= ok;
        println!(
            "{:<16} {a:>14.6} {b:>14.6} {diff:>+10.4} {bound:>7.2}{}",
            d.name,
            if ok { "" } else { "  DISAGREE" }
        );
    }
    let (a, b) = (sets[0].1, sets[1].1);
    let drift = (b - a).abs() / a;
    let steady = drift <= CALIB_DRIFT_LIMIT;
    println!(
        "{:<16} {a:>14.6} {b:>14.6} {drift:>+10.4} {CALIB_DRIFT_LIMIT:>7.2}{}",
        "host.calib_s",
        if steady { "" } else { "  HOST CHANGED, rerun" }
    );
    Ok(agreed && steady)
}
