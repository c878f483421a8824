//! `train` — run full-graph distributed GNN training end to end.
//!
//! `train --help` prints the synopsis, generated from the flag table in
//! `cli()` — the one place a flag is declared.
//!
//! `--backend proc` (Unix only) runs every rank as a **real OS
//! process** over Unix-domain sockets instead of threads: the launcher
//! re-executes itself once per rank (`--ranks N` sets the world size,
//! an alias for `--p`), supervises the children, and restarts the whole
//! generation from the newest disk checkpoint when a rank process dies
//! — including genuinely SIGKILL'd ranks. Results are bit-identical to
//! the thread backend. The thread-only `crash=` fault rule is rejected
//! up front (kill the rank process instead; that is the point of the
//! backend).
//!
//! `--hostfile FILE` (proc only) switches the rank mesh from
//! Unix-domain sockets to **TCP listeners**: one `host[:port]` line per
//! rank, rank 0's port doubling as the rendezvous endpoint. An
//! all-loopback hostfile simulates the multi-node wire-up on one
//! machine (what CI runs); non-loopback hostfiles are rejected by this
//! launcher with per-host instructions, since it only spawns local
//! processes.
//!
//! `--faults SPEC` declares every injected fault in one seeded
//! `;`-separated spec (grammar: `gnn_comm::fault`). Message rules
//! (`crash=R@E[:OP]`, `slow=R:F`, `drop=A>B:X`, `corrupt=A>B:X`) run on
//! both backends, except `crash`, which is thread-only. Link rules
//! (`delay`, `bw`, `cut`, `partition`, `refuse`) need `--backend proc`,
//! where the network-chaos interposer inside every rank replays seeded
//! per-link delay/jitter, bandwidth caps, byte-counted connection cuts,
//! timed (possibly one-way) partitions, and rendezvous
//! connection-refusal windows bit-identically. Partitions that heal
//! within the heartbeat deadline are absorbed by reconnect + replay;
//! ones that outlive it take the checkpoint-restart ladder. Either way
//! final weights match the thread backend bit for bit. The spec is
//! parsed, and checked against the backend and the world, before any
//! work happens: a rule naming a rank outside the world, or a crash at
//! an epoch the run never reaches, is an error, not a silent no-op. A
//! crash whose op its epoch never reaches can only be seen after the
//! run: `train` then names the rule and exits 1.
//!
//! `--trace` on the process backend records a **dual-clock** trace:
//! each rank process writes `<proc-dir>/trace-rank<N>.jsonl` with both
//! modeled and monotonic wall timestamps, rank 0 publishes the
//! rendezvous-estimated `clock-offsets.json`, and the launcher merges
//! everything onto one offset-aligned wall axis under the `--trace`
//! prefix (same artifacts as the thread backend, plus wall columns).
//! `--metrics-interval SECS` (proc only) makes every rank append a
//! live transport-metrics snapshot to `<proc-dir>/metrics-rank<N>.jsonl`
//! at that period while the supervisor aggregates the latest snapshots
//! into `<proc-dir>/metrics.jsonl`.
//!
//! Trains on the simulated distributed runtime, prints the loss/accuracy
//! trajectory and the modeled communication/compute cost summary.
//! `--faults` rehearses degraded conditions: injected crashes trigger
//! checkpoint/restart, link faults exercise the retry path, and the
//! watchdog bounds every hang.
//!
//! `--order paper|narrow` picks which side of each layer's `Â·H·W` is
//! exchanged: `paper` is `(ÂH)W` everywhere, what the paper and CAGNET
//! run and what `repro` pins; `narrow` (the default) multiplies by `W`
//! first wherever a layer narrows, so layer 0 ships 16 columns instead
//! of `f`. Same model, same losses to ≤ 1e-8; fewer bytes and flops.
//!
//! Every SIMD kernel backend is bit-identical to the portable scalar
//! loops. `--flop-rate auto` replaces the cost model's A100-class
//! compute constant with the *measured* single-core throughput of the
//! active kernel backend on this host; a number sets it explicitly.
//!
//! `--trace` arms the structured tracer: every comm op and trainer
//! phase is recorded on each rank's modeled-time axis, artifacts land
//! at `<PREFIX>.jsonl` / `<PREFIX>.chrome.json` (default prefix under
//! `results/traces/`; the Chrome file opens in `chrome://tracing` or
//! Perfetto), and a per-epoch timeline plus bottleneck-rank
//! attribution report is printed. `--metrics-out` writes the unified
//! metrics registry as JSON (works with or without `--trace`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use std::time::Duration;

use gnn_bench::cli::{choose, common_flags, store, store_some, switch, value, Cli, Common, Flag};
use gnn_bench::traceio;
use gnn_bench::{out, outln};
use gnn_comm::{CostModel, Fault, FaultPlan, Phase};
use gnn_core::{try_train_distributed, Algo, DistConfig, GcnConfig, LayerOrder, RobustnessConfig};
use partition::{partition_graph, Method, PartitionConfig};
use spmat::dataset::{amazon_scaled, papers_scaled, protein_scaled, reddit_scaled, Dataset};

/// Which SpMM algorithm family `--algo` selected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AlgoTag {
    OneD,
    OneFiveD,
    TwoD,
    ThreeD,
}

impl AlgoTag {
    /// Short name used in trace-artifact prefixes.
    fn label(self) -> &'static str {
        match self {
            AlgoTag::OneD => "1d",
            AlgoTag::OneFiveD => "15d",
            AlgoTag::TwoD => "2d",
            AlgoTag::ThreeD => "3d",
        }
    }
}

struct Args {
    dataset: String,
    mtx: Option<PathBuf>,
    algo_tag: AlgoTag,
    aware: bool,
    c: usize,
    /// Grid columns (feature-panel count) for the 2D/3D algorithms.
    pc: usize,
    partitioner: Method,
    p: usize,
    sage: bool,
    adam: bool,
    lr: Option<f64>,
    order: LayerOrder,
    epochs: usize,
    scale: u32,
    /// `--faults`: the spec as given, and the plan parsed from it.
    faults: Option<(String, FaultPlan)>,
    checkpoint_every: usize,
    max_restarts: usize,
    watchdog_ms: u64,
    /// `None` = paper constant, `Some(None)` = measured ("auto"),
    /// `Some(Some(x))` = explicit flop/s.
    flop_rate: Option<Option<f64>>,
    /// `--metrics-interval` in seconds (proc backend live snapshots).
    metrics_interval: Option<f64>,
    backend_proc: bool,
    /// `--ranks` was given (proc-backend spelling of the world size).
    ranks_flag: bool,
    /// `--p` was given explicitly.
    p_flag: bool,
    proc_dir: Option<PathBuf>,
    /// `--hostfile`: switch the proc-backend mesh to TCP listeners at
    /// the listed `host[:port]` addresses (one line per rank).
    hostfile: Option<PathBuf>,
    /// Internal: this invocation is rank N of a proc-backend launch.
    proc_child: Option<usize>,
    /// The flags `repro` takes too.
    common: Common,
}

impl AsMut<Common> for Args {
    fn as_mut(&mut self) -> &mut Common {
        &mut self.common
    }
}

fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        dataset: "protein".into(),
        mtx: None,
        algo_tag: AlgoTag::OneD,
        aware: true,
        c: 2,
        pc: 2,
        partitioner: Method::VolumeBalanced,
        p: 8,
        sage: false,
        adam: false,
        lr: None,
        order: LayerOrder::default(),
        epochs: 30,
        scale: 11,
        faults: None,
        checkpoint_every: 5,
        max_restarts: 2,
        watchdog_ms: 30_000,
        flop_rate: None,
        metrics_interval: None,
        backend_proc: false,
        ranks_flag: false,
        p_flag: false,
        proc_dir: None,
        hostfile: None,
        proc_child: None,
        common: Common::default(),
    };
    cli().parse(&mut a, args)?;
    Ok(a)
}

/// A finite value above zero, or the reason `v` is not one.
fn positive(v: &str, what: &str) -> Result<f64, String> {
    let x = v.parse::<f64>().ok().filter(|x| x.is_finite() && *x > 0.0);
    x.ok_or(format!("wants {what}, got {v}"))
}

/// `train`'s flag table: every flag it accepts is one row here.
fn cli() -> Cli<Args> {
    use AlgoTag::{OneD, OneFiveD, ThreeD, TwoD};
    let mut flags: Vec<Flag<Args>> = vec![
        value("--dataset", "reddit|amazon|protein|papers", |a, v| {
            store(&mut a.dataset, v)
        }),
        value("--mtx", "FILE", |a, v| store_some(&mut a.mtx, v)),
        value("--algo", "1d|1.5d|2d|3d", |a, v| {
            let tags = [
                ("1d", OneD),
                ("1.5d", OneFiveD),
                ("15d", OneFiveD),
                ("2d", TwoD),
                ("3d", ThreeD),
            ];
            choose(&mut a.algo_tag, v, &tags)
        }),
        switch("--oblivious", |a| a.aware = false),
        value("--c", "N", |a, v| store(&mut a.c, v)),
        value("--pc", "N", |a, v| store(&mut a.pc, v)),
        value("--partitioner", "block|random|metis|gvb", |a, v| {
            let methods = [
                ("block", Method::Block),
                ("random", Method::Random),
                ("metis", Method::EdgeCut),
                ("gvb", Method::VolumeBalanced),
            ];
            choose(&mut a.partitioner, v, &methods)
        }),
        value("--p", "N", |a, v| {
            a.p_flag = true;
            store(&mut a.p, v)
        }),
        value("--backend", "thread|proc", |a, v| {
            let backends = [("thread", false), ("proc", true)];
            choose(&mut a.backend_proc, v, &backends)
        }),
        value("--ranks", "N", |a, v| {
            a.ranks_flag = true;
            store(&mut a.p, v)
        }),
        value("--proc-dir", "DIR", |a, v| store_some(&mut a.proc_dir, v)),
        value("--hostfile", "FILE", |a, v| store_some(&mut a.hostfile, v)),
        value("--proc-child", "RANK", |a, v| {
            store_some(&mut a.proc_child, v)
        }),
        value("--arch", "gcn|sage", |a, v| {
            choose(&mut a.sage, v, &[("gcn", false), ("sage", true)])
        }),
        value("--opt", "sgd|adam", |a, v| {
            choose(&mut a.adam, v, &[("sgd", false), ("adam", true)])
        }),
        value("--lr", "X", |a, v| {
            a.lr = Some(positive(v, "a positive learning rate")?);
            Ok(())
        }),
        value("--order", "paper|narrow", |a, v| {
            let orders = [
                ("paper", LayerOrder::AggregateFirst),
                ("narrow", LayerOrder::NarrowSide),
            ];
            choose(&mut a.order, v, &orders)
        }),
        value("--flop-rate", "auto|FLOPS", |a, v| {
            a.flop_rate = Some(match v {
                "auto" => None,
                _ => Some(positive(v, "auto or a positive flop/s")?),
            });
            Ok(())
        }),
        value("--epochs", "N", |a, v| {
            store(&mut a.epochs, v)?;
            match a.epochs {
                0 => Err("wants at least one epoch, got 0".into()),
                _ => Ok(()),
            }
        }),
        value("--scale", "N", |a, v| store(&mut a.scale, v)),
        value("--faults", "SPEC", |a, v| {
            a.faults = Some((v.to_string(), FaultPlan::parse(v)?));
            Ok(())
        }),
        value("--checkpoint-every", "N", |a, v| {
            store(&mut a.checkpoint_every, v)
        }),
        value("--max-restarts", "N", |a, v| store(&mut a.max_restarts, v)),
        value("--watchdog-ms", "N", |a, v| store(&mut a.watchdog_ms, v)),
        value("--metrics-interval", "SECS", |a, v| {
            a.metrics_interval = Some(positive(v, "a positive number of seconds")?);
            Ok(())
        }),
    ];
    // No bare-word operands here: whatever follows `--trace` is its prefix.
    flags.extend(common_flags(|_| true));
    Cli {
        program: "train",
        flags,
        operands: "",
    }
}

/// Number of graph partitions (block rows) for the requested algorithm
/// and world size, with the grid-shape divisibility rules enforced
/// before any partitioning work happens.
fn grid_parts(tag: AlgoTag, p: usize, pc: usize, c: usize) -> Result<usize, String> {
    if p == 0 {
        return Err("need --p >= 1".into());
    }
    match tag {
        AlgoTag::OneD => Ok(p),
        AlgoTag::OneFiveD => {
            if c == 0 || !p.is_multiple_of(c * c) {
                return Err(format!("1.5D wants p divisible by c\u{b2} (p={p}, c={c})"));
            }
            Ok(p / c)
        }
        AlgoTag::TwoD => {
            if pc == 0 || !p.is_multiple_of(pc) {
                return Err(format!("2D wants p divisible by --pc (p={p}, pc={pc})"));
            }
            Ok(p / pc)
        }
        AlgoTag::ThreeD => {
            if pc == 0 || c == 0 || !p.is_multiple_of(pc * c) {
                return Err(format!(
                    "3D wants p divisible by pc\u{b7}c (p={p}, pc={pc}, c={c})"
                ));
            }
            let pr = p / (pc * c);
            if c > pr {
                return Err(format!(
                    "3D replication cannot exceed the row-block count (c={c} > pr={pr}); \
                     lower --c or raise --p"
                ));
            }
            Ok(pr)
        }
    }
}

/// Rejects flag combinations that mix thread-only features with the
/// process backend (and vice versa) before any work happens, with a
/// pointer to what to use instead.
fn validate_backend_flags(a: &Args) -> Result<(), String> {
    let plan = a.faults.as_ref().map(|(_, plan)| plan);
    if !a.backend_proc {
        if a.ranks_flag {
            return Err(
                "--ranks sets the process-backend world size; add --backend proc, \
                 or use --p for the thread backend"
                    .into(),
            );
        }
        if a.proc_dir.is_some() {
            return Err("--proc-dir only applies to --backend proc".into());
        }
        if a.proc_child.is_some() {
            return Err(
                "--proc-child is internal to --backend proc launches and needs --backend proc"
                    .into(),
            );
        }
        if a.metrics_interval.is_some() {
            return Err(
                "--metrics-interval streams live transport metrics from rank processes and \
                 only applies to --backend proc; the thread backend writes one summary via \
                 --metrics-out instead"
                    .into(),
            );
        }
        if a.hostfile.is_some() {
            return Err(
                "--hostfile switches the process-backend rank mesh to TCP and needs \
                 --backend proc"
                    .into(),
            );
        }
        if let Some(kind) = plan.and_then(|p| p.link_rule_kinds().next()) {
            return Err(format!(
                "--faults rule {kind}= injects network faults into the process-backend \
                 sockets and needs --backend proc; the thread backend runs crash, slow, drop \
                 and corrupt rules"
            ));
        }
        return Ok(());
    }
    if cfg!(not(unix)) {
        return Err(
            "--backend proc needs a Unix platform (ranks talk over Unix-domain sockets); \
                    use --backend thread"
                .into(),
        );
    }
    let crash = |f: &Fault| matches!(f, Fault::CrashAt { .. });
    if plan.is_some_and(|p| p.faults.iter().any(crash)) {
        return Err(
            "--faults rule crash= simulates a rank crash inside a thread world; on the \
             process backend kill the real rank process instead (PIDs are published at \
             <proc-dir>/rank<N>.pid), or use --backend thread"
                .into(),
        );
    }
    if a.proc_child.is_some() && a.proc_dir.is_none() {
        return Err("--proc-child needs --proc-dir (both are set by the launcher)".into());
    }
    Ok(())
}

/// Rejects a `--faults` rule that could never fire: one naming a rank
/// outside the world of `a.p` ranks (known once `--hostfile` is
/// applied), or a crash at an epoch the run never reaches.
fn validate_fault_targets(a: &Args) -> Result<(), String> {
    let Some((_, plan)) = &a.faults else {
        return Ok(());
    };
    if let Some((kind, rank)) = plan.rank_outside(a.p) {
        return Err(format!(
            "--faults rule {kind}= names rank {rank}, outside the {}-rank world",
            a.p
        ));
    }
    let late = plan.faults.iter().find_map(|f| match *f {
        Fault::CrashAt { rank, epoch, .. } if epoch >= a.epochs => Some((rank, epoch)),
        _ => None,
    });
    if let Some((rank, epoch)) = late {
        return Err(format!(
            "--faults rule crash={rank}@{epoch} never fires: --epochs {e} runs epochs 0..{e}",
            e = a.epochs
        ));
    }
    Ok(())
}

/// Applies `--hostfile`: loads it, reconciles the world size (the
/// hostfile is authoritative when `--ranks`/`--p` were not given), and
/// rejects non-loopback hostfiles in the parent — this launcher only
/// spawns rank processes locally.
fn apply_hostfile(a: &mut Args) -> Result<(), String> {
    let Some(path) = a.hostfile.clone() else {
        return Ok(());
    };
    #[cfg(unix)]
    {
        let hf = gnn_comm::HostFile::load(&path).map_err(|e| format!("--hostfile: {e}"))?;
        if (a.p_flag || a.ranks_flag) && a.p != hf.p() {
            return Err(format!(
                "--hostfile {} lists {} rank(s) but --ranks/--p asked for {}; the hostfile \
                 is one line per rank — drop the explicit world size or fix the hostfile",
                path.display(),
                hf.p(),
                a.p
            ));
        }
        a.p = hf.p();
        if a.proc_child.is_none() && !hf.all_loopback() {
            return Err(format!(
                "hostfile {} names non-loopback hosts; this launcher only spawns rank \
                 processes on this machine. Point --proc-dir at a directory shared by every \
                 host (the checkpoint/outcome exchange), then start each rank on its listed \
                 host with the same command plus `--proc-child R` (rendezvous at {}); or use \
                 an all-loopback hostfile to simulate the TCP mesh on one machine",
                path.display(),
                hf.rendezvous_addr()
            ));
        }
        Ok(())
    }
    #[cfg(not(unix))]
    {
        let _ = path;
        Err("--hostfile needs --backend proc, which is Unix-only".into())
    }
}

fn load_dataset(a: &Args) -> Result<Dataset, String> {
    if let Some(path) = &a.mtx {
        // External graph; synthesize features/labels like the paper did
        // for Amazon/Protein ("we chose an arbitrary number of features
        // and labels").
        let adj = spmat::io::read_mtx(path).map_err(|e| e.to_string())?;
        if !adj.is_symmetric() {
            return Err("mtx graph must be symmetric (undirected)".into());
        }
        let norm_adj = spmat::graph::gcn_normalize(&adj);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(a.common.seed);
        let n = adj.rows();
        let classes = 16;
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..classes as u32)).collect();
        let features = spmat::Dense::from_fn(n, 64, |r, _| {
            labels[r] as f64 / classes as f64 + rng.gen::<f64>()
        });
        let train_mask = (0..n).map(|_| rng.gen_bool(0.6)).collect();
        return Ok(Dataset {
            name: format!("mtx:{}", path.display()),
            adj,
            norm_adj,
            features,
            labels,
            num_classes: classes,
            train_mask,
        });
    }
    check_scale(&a.dataset, a.scale)?;
    Ok(match a.dataset.as_str() {
        "reddit" => reddit_scaled(a.scale, a.common.seed),
        "amazon" => amazon_scaled(a.scale, a.common.seed),
        "protein" => protein_scaled(1usize << a.scale, 32, a.common.seed),
        "papers" => papers_scaled(a.scale, a.common.seed),
        other => return Err(format!("unknown dataset {other}")),
    })
}

/// Rejects a `--scale` the generator behind `--dataset` cannot build,
/// before it builds anything: each generator has a floor, and the
/// `2^scale` vertices must fit the `u32` vertex ids (reddit, the paper's
/// smallest graph, stops at scale 13).
fn check_scale(dataset: &str, scale: u32) -> Result<(), String> {
    const REDDIT_MAX: u32 = 13;
    let (floor, ceiling) = match dataset {
        "reddit" if scale > REDDIT_MAX => {
            return Err(format!(
                "--dataset reddit builds at most --scale {REDDIT_MAX}, got {scale}"
            ))
        }
        "reddit" => (4, REDDIT_MAX),
        "amazon" => (4, u32::BITS - 1),
        "protein" => (5, u32::BITS - 1),
        "papers" => (0, u32::BITS - 1),
        other => return Err(format!("unknown dataset {other}")),
    };
    if (floor..=ceiling).contains(&scale) {
        Ok(())
    } else if scale < floor {
        Err(format!(
            "--dataset {dataset} needs --scale >= {floor}, got {scale}"
        ))
    } else {
        Err(format!(
            "--scale {scale} means 2^{scale} vertices, more than u32 vertex ids hold \
             (max --scale {ceiling})"
        ))
    }
}

/// Every block row owns at least one vertex: `parts` block rows need a
/// graph of at least `parts` vertices.
fn parts_fit(parts: usize, n: usize) -> Result<usize, String> {
    if parts > n {
        return Err(format!(
            "{parts} block rows but the graph has only {n} vertices; lower --p or raise --scale"
        ));
    }
    Ok(parts)
}

/// Parent side of `--backend proc`: supervise one re-exec'd child per
/// rank; each child re-parses the same CLI and rebuilds the identical
/// deterministic scenario, so nothing needs to be serialized to them.
/// Returns the outcome plus the rendezvous directory (where traced
/// runs leave their per-rank artifacts for [`merge_proc_traces`]).
#[cfg(unix)]
fn run_proc_parent(args: &Args) -> Result<(gnn_core::DistOutcome, PathBuf), String> {
    let dir = args
        .proc_dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("gnn-train-{}", std::process::id())));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // A fresh launch must train from epoch 0, not resume a previous
    // run that happened to use the same rendezvous directory.
    gnn_core::dist::clear_disk_checkpoints(&dir.join("ckpt"));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    outln!(
        "proc backend: launching {} rank process(es) under {}",
        args.p,
        dir.display()
    );
    if let Some(hosts) = &args.hostfile {
        outln!("proc backend: TCP mesh from hostfile {}", hosts.display());
    }
    let interval = args.metrics_interval.map(Duration::from_secs_f64);
    let metrics_ms = interval.map(|iv| (iv.as_millis().max(1)).to_string());
    let out =
        gnn_core::supervise_proc_training_with(args.p, &dir, args.max_restarts, interval, |rank| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(&forwarded)
                .arg("--proc-dir")
                .arg(&dir)
                .arg("--proc-child")
                .arg(rank.to_string());
            if let Some(ms) = &metrics_ms {
                cmd.env("GNN_PROC_METRICS_MS", ms);
            }
            cmd.spawn()
        })
        .map_err(|e| e.to_string())?;
    Ok((out, dir))
}

/// Stitches a traced proc run back together: loads every rank's
/// `trace-rank<N>.jsonl` plus the rendezvous `clock-offsets.json`
/// sidecar from `dir` and merges them onto one offset-aligned wall
/// axis (the same pipeline as `trace-report --merge`).
#[cfg(unix)]
fn merge_proc_traces(dir: &std::path::Path, p: usize) -> Result<gnn_trace::WorldTrace, String> {
    let mut traces = Vec::with_capacity(p);
    for rank in 0..p {
        let path = gnn_core::trace_rank_path(dir, rank);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        traces.push(
            gnn_trace::parse_jsonl(&text).map_err(|e| format!("parse {}: {e}", path.display()))?,
        );
    }
    let sidecar = dir.join("clock-offsets.json");
    let offsets = match std::fs::read_to_string(&sidecar) {
        Ok(text) => Some(gnn_trace::parse_offsets_json(&text)?),
        Err(e) => {
            eprintln!(
                "warning: no clock-offset sidecar ({}: {e}); merging uncorrected",
                sidecar.display()
            );
            None
        }
    };
    gnn_trace::merge_aligned(traces, offsets.as_deref())
}

fn main() -> ExitCode {
    out::finish(run())
}

fn run() -> ExitCode {
    let mut args = match parse_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(m) => {
            eprintln!("{m}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(m) = validate_backend_flags(&args) {
        eprintln!("{m}");
        return ExitCode::FAILURE;
    }
    if let Err(m) = apply_hostfile(&mut args).and_then(|()| validate_fault_targets(&args)) {
        eprintln!("{m}");
        return ExitCode::FAILURE;
    }
    let args = args;
    // Proc-backend children rebuild the scenario silently; only the
    // parent (or a thread-backend run) narrates progress.
    let quiet = args.proc_child.is_some();
    let common = &args.common;
    spmat::pool::set_threads(common.threads); // 0 keeps the auto default
    let threads = spmat::pool::current_threads();
    let kernels = spmat::kernel::active();
    let t0 = Instant::now();
    let ds = match load_dataset(&args) {
        Ok(d) => d,
        Err(m) => {
            eprintln!("dataset error: {m}");
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        outln!(
            "dataset {}: {} vertices, {} edges, f={}, {} classes  [{:.1}s]",
            ds.name,
            ds.n(),
            ds.edges(),
            ds.f(),
            ds.num_classes,
            t0.elapsed().as_secs_f64()
        );
    }

    // Partition & permute.
    let parts = grid_parts(args.algo_tag, args.p, args.pc, args.c);
    let parts = match parts.and_then(|parts| parts_fit(parts, ds.n())) {
        Ok(parts) => parts,
        Err(m) => {
            eprintln!("invalid grid: {m}");
            return ExitCode::FAILURE;
        }
    };
    let t1 = Instant::now();
    let part = partition_graph(
        &ds.adj,
        parts,
        &PartitionConfig::new(args.partitioner).with_seed(common.seed),
    );
    let ds = ds.permute(&part.to_permutation());
    let bounds = part.block_bounds();
    if !quiet {
        outln!(
            "partitioned into {parts} parts with {} in {:.1}s",
            args.partitioner.label(),
            t1.elapsed().as_secs_f64()
        );
    }

    // Configure and train.
    let mut gcn = GcnConfig::paper_default(ds.f(), ds.num_classes);
    if args.sage {
        gcn = gcn.with_sage();
    }
    if args.adam {
        gcn = gcn.with_adam(args.lr.unwrap_or(0.01));
    } else if let Some(lr) = args.lr {
        gcn.lr = lr;
    }
    let algo = match args.algo_tag {
        AlgoTag::OneD => Algo::OneD { aware: args.aware },
        AlgoTag::OneFiveD => Algo::OneFiveD {
            aware: args.aware,
            c: args.c,
        },
        AlgoTag::TwoD => Algo::TwoD {
            aware: args.aware,
            pc: args.pc,
        },
        AlgoTag::ThreeD => Algo::ThreeD {
            aware: args.aware,
            pc: args.pc,
            c: args.c,
        },
    };
    if !quiet {
        // `--order paper` prints the paper's program as it always has.
        outln!(
            "training: {} | {:?} arch | {} epochs | {threads} kernel thread(s) | \
             {} kernels ({}){}",
            algo.label(),
            gcn.arch,
            args.epochs,
            kernels.backend.label(),
            kernels.mode.label(),
            match args.order {
                LayerOrder::AggregateFirst => "",
                LayerOrder::NarrowSide => " | order narrow: Â(HW) where a layer narrows",
            }
        );
    }

    let faulty = args.faults.is_some();
    if let Some((spec, _)) = args.faults.as_ref().filter(|_| !quiet) {
        outln!("fault plan: {spec}");
    }

    let mut cost = CostModel::perlmutter_like().with_threads(threads);
    if let Some(rate) = args.flop_rate {
        let gamma = match rate {
            Some(explicit) => explicit,
            None => spmat::kernel::measured_gflops() * 1e9,
        };
        cost = cost.with_flop_rate(gamma);
        if !quiet {
            outln!(
                "cost model: measured compute rate {:.3} GFLOP/s ({} backend){}",
                gamma / 1e9,
                kernels.backend.label(),
                if rate.is_some() { " [explicit]" } else { "" }
            );
        }
    }
    let mut cfg = DistConfig::new(algo, gcn, args.epochs, cost);
    cfg.trace = common.trace;
    cfg.order = args.order;
    cfg.robust = RobustnessConfig {
        faults: args.faults.as_ref().map(|(_, plan)| plan.clone()),
        checkpoint_every: args.checkpoint_every,
        max_restarts: args.max_restarts,
        timeout: Duration::from_millis(args.watchdog_ms.max(1)),
    };
    cfg.hostfile = args.hostfile.clone();

    // Proc-backend child: this invocation *is* rank N — run it over the
    // real sockets and exit without printing anything.
    #[cfg(unix)]
    if let Some(rank) = args.proc_child {
        let dir = args
            .proc_dir
            .clone()
            .expect("validated: --proc-child implies --proc-dir via the launcher");
        return match gnn_core::run_rank_proc(&ds, &bounds, &cfg, &dir, rank) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rank {rank}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let t2 = Instant::now();
    let out = if args.backend_proc {
        #[cfg(unix)]
        {
            match run_proc_parent(&args) {
                Ok((mut out, dir)) => {
                    if common.trace {
                        // Per-rank dual-clock files → one aligned trace,
                        // reported exactly like a thread-backend run.
                        match merge_proc_traces(&dir, args.p) {
                            Ok(merged) => out.trace = Some(merged),
                            Err(m) => eprintln!("warning: could not merge rank traces: {m}"),
                        }
                    }
                    out
                }
                Err(m) => {
                    eprintln!("training failed: {m}");
                    return ExitCode::FAILURE;
                }
            }
        }
        #[cfg(not(unix))]
        unreachable!("validate_backend_flags rejects --backend proc off Unix")
    } else {
        match try_train_distributed(&ds, &bounds, &cfg) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("training failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let wall = t2.elapsed().as_secs_f64();

    outln!("\nepoch       loss   accuracy");
    let step = (args.epochs / 10).max(1);
    for (e, r) in out.records.iter().enumerate() {
        if e % step == 0 || e + 1 == args.epochs {
            outln!("{e:>5}  {:>9.4}  {:>9.3}", r.loss, r.train_accuracy);
        }
    }

    let st = &out.stats;
    let per_epoch = st.modeled_epoch_time() / args.epochs as f64;
    outln!("\n-- modeled cost (Perlmutter-like machine) --");
    outln!("epoch time:      {:>10.3} ms", per_epoch * 1e3);
    for (label, phase) in [
        ("local compute", Phase::LocalCompute),
        ("alltoall", Phase::AllToAll),
        ("bcast", Phase::Bcast),
        ("allreduce", Phase::AllReduce),
        ("p2p", Phase::P2p),
    ] {
        let t = st.phase_time(phase) / args.epochs as f64;
        if t > 0.0 {
            outln!("  {label:<17} {:>10.3} ms", t * 1e3);
        }
    }
    let (kernel_flops, kernel_wall) = st
        .per_rank
        .iter()
        .map(|r| {
            let c = r.phase(Phase::LocalCompute);
            (c.flops, c.wall_seconds)
        })
        .fold((0u64, 0.0f64), |(f, w), (cf, cw)| (f + cf, w + cw));
    if kernel_wall > 0.0 {
        outln!(
            "kernel throughput: {:>7.3} GFLOP/s measured ({threads} thread(s), all ranks)",
            kernel_flops as f64 / kernel_wall / 1e9
        );
    }
    let transport_faults = st.total_reconnects()
        + st.total_partitions_suspected()
        + st.total_chaos_injected()
        + st.total_dial_backoffs();
    if faulty || out.restarts > 0 || transport_faults > 0 {
        outln!("\n-- fault summary --");
        outln!("restarts:          {}", out.restarts);
        if !out.resume_points.is_empty() {
            outln!("resumed at epochs: {:?}", out.resume_points);
        }
        // Crashes count across every world of the run: the one whose
        // crash forced a restart is not the one whose stats are here.
        let crashes = out.faults.as_ref().map_or(0, |f| f.fired_crashes());
        outln!(
            "injected faults:   {}",
            st.total_injected_faults() + crashes as u64
        );
        outln!("retries:           {}", st.total_retries());
        if transport_faults > 0 {
            outln!(
                "transport:         {} reconnects, {} replayed frames, \
                 {} partitions suspected, {} healed, {} dial backoffs, \
                 {} chaos injections",
                st.total_reconnects(),
                st.total_replayed_frames(),
                st.total_partitions_suspected(),
                st.total_partitions_healed(),
                st.total_dial_backoffs(),
                st.total_chaos_injected()
            );
        }
        for (rank, r) in st.per_rank.iter().enumerate() {
            let f = &r.faults;
            if f.injected_total() > 0 || f.retries > 0 {
                outln!(
                    "  rank {rank}: {} delays, {} drops, {} corruptions, \
                     {} retries, {} slowed ops",
                    f.delays,
                    f.drops,
                    f.corruptions,
                    f.retries,
                    f.slowed_ops
                );
            }
        }
    }
    let prefix = common.trace_prefix.clone().unwrap_or_else(|| {
        traceio::default_prefix(&format!(
            "train_{}_{}_p{}",
            args.dataset,
            args.algo_tag.label(),
            args.p
        ))
    });
    if let Some(trace) = &out.trace {
        outln!("\n-- trace --");
        out!("{}", traceio::render_report(trace));
        match traceio::write_trace(&prefix, common.trace_format, trace) {
            Ok(paths) => {
                for p in paths {
                    outln!("[trace written to {}]", p.display());
                }
            }
            Err(e) => eprintln!("warning: could not write trace: {e}"),
        }
    }
    if common.trace || common.metrics_out.is_some() {
        let path = common
            .metrics_out
            .clone()
            .unwrap_or_else(|| prefix.with_extension("metrics.json"));
        match traceio::write_metrics(&path, &out) {
            Ok(()) => outln!("[metrics written to {}]", path.display()),
            Err(e) => eprintln!("warning: could not write metrics: {e}"),
        }
    }
    outln!("simulation wall time: {wall:.1}s");
    // A crash rule that never fired is a fault the run claims to have
    // survived but never met (its op lies past the end of its epoch).
    let unfired = out.faults.map(|f| f.unfired_crashes()).unwrap_or_default();
    for rule in &unfired {
        eprintln!("--faults rule {rule} never fired: its rank never reached that op of that epoch");
    }
    if unfired.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
#[path = "../../tests/common/hostile_argv.rs"]
mod hostile_argv;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_from(list.iter().map(|s| s.to_string()))
    }

    /// Every check `train` runs before any work, but the hostfile's.
    fn validated(list: &[&str]) -> Result<(), String> {
        let a = args(list)?;
        validate_backend_flags(&a)?;
        validate_fault_targets(&a)
    }

    #[test]
    fn hostile_argv_is_rejected_by_flag_name() {
        super::hostile_argv::check(&cli(), &[], |argv| parse_from(argv).map(drop));
    }

    /// The README's synopsis is the one hand-written copy of the flag
    /// list; it may lag the table, never invent a flag.
    #[test]
    fn readme_synopsis_lists_only_table_flags() {
        let readme = include_str!("../../../../README.md");
        let start = readme
            .find("train [--")
            .expect("README has a train synopsis");
        let block = &readme[start..];
        let synopsis = &block[..block.find("```").expect("synopsis block closes")];
        let table = cli();
        let words = synopsis.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        let mut listed = 0;
        for word in words.filter(|w| w.starts_with("--")) {
            let known = table.flags.iter().any(|f| f.name == word);
            assert!(known, "README lists {word}, which train does not take");
            listed += 1;
        }
        assert!(listed >= 29, "synopsis found only {listed} flags");
    }

    /// The proc backend records dual-clock traces now; the old
    /// mutual-exclusion is gone.
    #[test]
    fn proc_backend_accepts_trace() {
        assert_eq!(
            validated(&["--backend", "proc", "--ranks", "4", "--trace"]),
            Ok(())
        );
        assert_eq!(
            validated(&[
                "--backend",
                "proc",
                "--ranks",
                "2",
                "--trace",
                "--metrics-interval",
                "0.5",
            ]),
            Ok(())
        );
    }

    #[test]
    fn algo_flag_covers_all_four_families() {
        assert_eq!(args(&["--algo", "1d"]).unwrap().algo_tag, AlgoTag::OneD);
        assert_eq!(
            args(&["--algo", "1.5d"]).unwrap().algo_tag,
            AlgoTag::OneFiveD
        );
        assert_eq!(args(&["--algo", "2d"]).unwrap().algo_tag, AlgoTag::TwoD);
        assert_eq!(args(&["--algo", "3d"]).unwrap().algo_tag, AlgoTag::ThreeD);
        assert!(args(&["--algo", "4d"]).is_err());
        assert_eq!(args(&["--pc", "4"]).unwrap().pc, 4);
    }

    #[test]
    fn out_of_range_scales_are_rejected_before_generating() {
        for (dataset, scale) in [("amazon", 0), ("reddit", 3), ("protein", 4), ("amazon", 40)] {
            assert!(check_scale(dataset, scale).is_err(), "{dataset} {scale}");
        }
        // Reddit stops at 13: a larger scale is an error, never a
        // silently smaller graph.
        for scale in [14, 16, 64] {
            let err = check_scale("reddit", scale).unwrap_err();
            assert!(err.contains("at most --scale 13"), "{err}");
        }
        // Past the shift width too: rejected, not overflowed.
        for dataset in ["amazon", "protein", "papers"] {
            let err = check_scale(dataset, 64).unwrap_err();
            assert!(err.contains("u32"), "{err}");
        }
        for (dataset, scale) in [("amazon", 4), ("protein", 5), ("papers", 0), ("reddit", 13)] {
            assert_eq!(check_scale(dataset, scale), Ok(()), "{dataset} {scale}");
        }
        let a = args(&["--dataset", "protein", "--scale", "4"]).unwrap();
        let err = load_dataset(&a).unwrap_err();
        assert!(err.contains("--scale >= 5"), "{err}");
        let a = args(&["--dataset", "amazon", "--scale", "40"]).unwrap();
        assert!(load_dataset(&a).is_err());
        let a = args(&["--dataset", "reddit", "--scale", "16"]).unwrap();
        assert!(load_dataset(&a).is_err());
    }

    #[test]
    fn more_block_rows_than_vertices_is_an_invalid_grid() {
        // papers at --scale 0 has one vertex; at --scale 4, sixteen.
        assert!(parts_fit(8, 1).is_err());
        let err = parts_fit(32, 16).unwrap_err();
        assert!(
            err.contains("32 block rows") && err.contains("16 vertices"),
            "{err}"
        );
        assert_eq!(parts_fit(16, 16), Ok(16));
    }

    #[test]
    fn zero_epochs_are_rejected() {
        let err = args(&["--epochs", "0"])
            .err()
            .expect("--epochs 0 is rejected");
        assert!(err.contains("bad --epochs"), "{err}");
        assert_eq!(args(&["--epochs", "1"]).unwrap().epochs, 1);
    }

    #[test]
    fn grid_parts_enforces_divisibility() {
        assert_eq!(grid_parts(AlgoTag::OneD, 8, 1, 2), Ok(8));
        assert_eq!(grid_parts(AlgoTag::OneFiveD, 8, 1, 2), Ok(4));
        assert!(grid_parts(AlgoTag::OneFiveD, 6, 1, 2).is_err());
        assert_eq!(grid_parts(AlgoTag::TwoD, 8, 2, 2), Ok(4));
        assert!(grid_parts(AlgoTag::TwoD, 8, 3, 2).is_err());
        assert_eq!(grid_parts(AlgoTag::ThreeD, 8, 2, 2), Ok(2));
        assert!(grid_parts(AlgoTag::ThreeD, 8, 3, 2).is_err());
        // Replication deeper than the row-block count cannot split the
        // SUMMA stages across layers.
        let err = grid_parts(AlgoTag::ThreeD, 8, 1, 4).unwrap_err();
        assert!(err.contains("c=4 > pr=2"), "{err}");
        assert!(grid_parts(AlgoTag::TwoD, 0, 1, 1).is_err());
    }

    /// `proc` is the one spelling of the process backend.
    #[test]
    fn backend_takes_thread_or_proc_only() {
        assert!(!args(&["--backend", "thread"]).unwrap().backend_proc);
        assert!(args(&["--backend", "proc"]).unwrap().backend_proc);
        let Err(err) = args(&["--backend", "process"]) else {
            panic!("--backend process was accepted");
        };
        assert!(err.contains("wants thread|proc, got process"), "{err}");
    }

    #[test]
    fn proc_backend_still_rejects_thread_only_fault_flags() {
        let err = validated(&["--backend", "proc", "--faults", "crash=1@3"]).unwrap_err();
        assert!(err.contains("crash="), "{err}");
    }

    #[test]
    fn a_fault_rule_outside_the_world_is_rejected() {
        let err = validated(&["--p", "2", "--faults", "crash=5@1"]).unwrap_err();
        assert!(err.contains("crash= names rank 5"), "{err}");
        assert!(err.contains("2-rank world"), "{err}");
        let err = validated(&["--p", "2", "--faults", "drop=0>2:0.1"]).unwrap_err();
        assert!(err.contains("drop= names rank 2"), "{err}");
        let err = validated(&["--p", "4", "--faults", "slow=4:2"]).unwrap_err();
        assert!(err.contains("slow= names rank 4"), "{err}");
        // The last rank and a wildcard are inside.
        validated(&["--p", "2", "--faults", "crash=1@1;drop=*-1:0.1"]).unwrap();
        if cfg!(unix) {
            let link = [
                "--backend",
                "proc",
                "--ranks",
                "2",
                "--faults",
                "cut=0-2:100",
            ];
            let err = validated(&link).unwrap_err();
            assert!(err.contains("cut= names rank 2"), "{err}");
        }
    }

    #[test]
    fn a_crash_after_the_last_epoch_is_rejected() {
        let err = validated(&["--p", "2", "--epochs", "2", "--faults", "crash=1@9"]).unwrap_err();
        assert!(err.contains("crash=1@9 never fires"), "{err}");
        let err = validated(&["--p", "2", "--epochs", "2", "--faults", "crash=1@2"]).unwrap_err();
        assert!(err.contains("--epochs 2"), "{err}");
        validated(&["--p", "2", "--epochs", "2", "--faults", "crash=1@1:7"]).unwrap();
    }

    #[test]
    fn a_learning_rate_must_be_positive_and_finite() {
        for bad in ["nan", "inf", "-inf", "0", "-0.1", "x"] {
            let err = validated(&["--lr", bad]).unwrap_err();
            assert!(err.contains("--lr"), "{bad}: {err}");
            assert!(err.contains("positive learning rate"), "{bad}: {err}");
        }
        assert_eq!(args(&["--lr", "0.05"]).unwrap().lr, Some(0.05));
    }

    #[test]
    fn metrics_interval_needs_proc_backend() {
        let err = validated(&["--metrics-interval", "1"]).unwrap_err();
        assert!(err.contains("--backend proc"), "{err}");
    }

    #[test]
    fn metrics_interval_parses_positive_seconds_only() {
        assert_eq!(
            args(&["--metrics-interval", "0.25"])
                .unwrap()
                .metrics_interval,
            Some(0.25)
        );
        assert!(args(&["--metrics-interval", "0"]).is_err());
        assert!(args(&["--metrics-interval", "-1"]).is_err());
        assert!(args(&["--metrics-interval", "nan"]).is_err());
    }

    #[test]
    fn ranks_without_proc_backend_still_rejected() {
        let err = validated(&["--ranks", "4"]).unwrap_err();
        assert!(err.contains("--backend proc"), "{err}");
    }

    #[test]
    fn hostfile_and_link_faults_need_proc_backend() {
        let err = validated(&["--hostfile", "hosts.txt"]).unwrap_err();
        assert!(err.contains("--backend proc"), "{err}");
        let err = validated(&["--faults", "seed=1;drop=*>*:0.1;partition=0-1@5.."]).unwrap_err();
        assert!(err.contains("--backend proc"), "{err}");
        assert!(err.contains("partition="), "names the rule: {err}");
    }

    #[test]
    fn malformed_fault_spec_is_rejected_before_spawning() {
        let err = args(&["--backend", "proc", "--faults", "seed=1;partition=bogus"])
            .err()
            .expect("a malformed spec is a flag error");
        assert!(err.starts_with("bad --faults: "), "{err}");
        let spec = "seed=7;partition=0-1@200..700;delay=0>1:3+-2;drop=0-1:0.1";
        let ok = validated(&["--backend", "proc", "--faults", spec]);
        assert_eq!(ok.is_ok(), cfg!(unix), "{ok:?}");
    }

    /// The plan `--faults SPEC` parsed, for a thread-backend run.
    fn faults(spec: &str) -> FaultPlan {
        let a = args(&["--faults", spec]).expect("spec parses");
        validate_backend_flags(&a).expect("a thread-backend plan");
        a.faults.expect("plan stored").1
    }

    /// Each retired fault flag has one `--faults` spelling, and the
    /// flags themselves are gone, as is the switch of the retired
    /// in-place 1.5D recovery (a crash has one path: checkpoint restart).
    #[test]
    fn faults_flag_spells_every_retired_fault_flag() {
        // --inject-crash R@E
        assert_eq!(faults("crash=2@3"), FaultPlan::new(0).crash_at(2, 3, 0));
        assert_eq!(faults("crash=2@3:7"), FaultPlan::new(0).crash_at(2, 3, 7));
        // --slow-rank R:F
        assert_eq!(faults("slow=3:4.0"), FaultPlan::new(0).slow_compute(3, 4.0));
        // --fault-seed N, --drop-prob X, --corrupt-prob X
        let plan = faults("seed=7;drop=*>*:0.2;corrupt=*-*:0.15");
        let mut want = FaultPlan::new(7);
        want.faults = vec![
            Fault::DropMsg {
                rank: None,
                to: None,
                prob: 0.2,
            },
            Fault::CorruptMsg {
                rank: None,
                to: None,
                prob: 0.15,
            },
        ];
        assert_eq!(plan, want);
        // A symmetric pair is both directions, in that order.
        let pair = faults("drop=0-1:0.5").faults;
        let dirs: Vec<_> = pair
            .iter()
            .map(|f| match *f {
                Fault::DropMsg { rank, to, .. } => (rank, to),
                _ => panic!("{f:?}"),
            })
            .collect();
        assert_eq!(dirs, [(Some(0), Some(1)), (Some(1), Some(0))]);
        for gone in [
            "--inject-crash",
            "--slow-rank",
            "--drop-prob",
            "--corrupt-prob",
            "--fault-seed",
            "--net-chaos",
            "--failover",
        ] {
            let err = args(&[gone, "1"]).err().expect("retired flag");
            assert!(err.starts_with(&format!("unknown flag {gone}\n")), "{err}");
        }
    }

    /// A `*` sender is every rank of whatever world the plan lands in.
    #[test]
    fn a_wildcard_sender_drops_on_every_rank() {
        let plan = faults("seed=3;drop=*>*:1");
        let retries = u64::from(plan.max_retries);
        let world = gnn_comm::ThreadWorld::new(3, CostModel::default()).with_faults(plan);
        let (_, stats) = world.run(|ctx| {
            let (p, me) = (ctx.p(), ctx.rank());
            ctx.send((me + 1) % p, gnn_comm::msg::Payload::F64(vec![me as f64]));
            ctx.recv((me + p - 1) % p).into_f64()[0]
        });
        for (rank, r) in stats.per_rank.iter().enumerate() {
            assert_eq!(r.faults.drops, retries, "rank {rank}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn hostfile_is_authoritative_for_the_world_size() {
        let dir = std::env::temp_dir().join(format!("gnn-train-hf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hosts.txt");
        std::fs::write(&path, "127.0.0.1:7700\n127.0.0.1\n127.0.0.1\n").unwrap();
        let hf = path.to_str().unwrap();

        // No explicit world size: the hostfile decides.
        let mut a = args(&["--backend", "proc", "--hostfile", hf]).unwrap();
        apply_hostfile(&mut a).unwrap();
        assert_eq!(a.p, 3);
        // ... and so it bounds the ranks a fault rule may name.
        let link = [
            "--backend",
            "proc",
            "--hostfile",
            hf,
            "--faults",
            "cut=0-3:100",
        ];
        let mut a = args(&link).unwrap();
        apply_hostfile(&mut a).unwrap();
        let err = validate_fault_targets(&a).unwrap_err();
        assert!(err.contains("outside the 3-rank world"), "{err}");

        // Explicit but contradictory world size: rejected.
        let mut a = args(&["--backend", "proc", "--hostfile", hf, "--ranks", "4"]).unwrap();
        let err = apply_hostfile(&mut a).unwrap_err();
        assert!(err.contains("3 rank(s)"), "{err}");

        // Non-loopback hostfiles cannot be launched from one machine.
        std::fs::write(&path, "10.0.0.1:7700\n10.0.0.2\n").unwrap();
        let mut a = args(&["--backend", "proc", "--hostfile", hf]).unwrap();
        let err = apply_hostfile(&mut a).unwrap_err();
        assert!(err.contains("non-loopback"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
