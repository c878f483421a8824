//! The end-to-end pass: closed-loop training calls, each checked
//! against the oracles, sampled as short/long pairs so the per-epoch
//! cost and the fixed per-call cost come apart.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gnn_comm::stats::PHASES;
use gnn_comm::{CostModel, OverlapConfig, WorldStats};
use gnn_core::analytic::{estimate, AnalyticInput};
use gnn_core::model::ArchKind;
use gnn_core::{
    try_train_distributed, Algo, DistConfig, DistOutcome, GcnConfig, ReferenceTrainer, Weights,
};

use crate::host::Usage;
use crate::procs;
use crate::spans::Spans;
use crate::stats::two_point;
use crate::workload::{Backend, Prepared, Workload, E_SHORT};

/// Distributed weights may drift this far from the sequential reference.
pub const WEIGHT_TOLERANCE: f64 = 1e-8;

/// A call slower than this multiple of its expected time is a failure.
const TIMEOUT_FACTOR: f64 = 20.0;

/// A rank process still running after this multiple of the call's
/// expected time is taken for hung and exits, which hands the call to
/// the supervisor's restart rung (see `procs`). Well inside the timeout,
/// so one hang and a rerun still make a successful, slow call.
const HANG_FACTOR: f64 = 3.0;

/// Expected seconds of the very first call, before anything has been
/// measured (a cold call takes under 2 s on every workload).
const FIRST_CALL_EXPECTED_S: f64 = 3.0;

/// No call is expected to be faster than this, so a host hiccup of a
/// second or two cannot fail (or restart) a short call.
const MIN_EXPECTED_S: f64 = 0.8;

/// The α–β machine model every call is priced with: one kernel thread
/// per rank, as the workloads run.
pub fn cost_model() -> CostModel {
    CostModel::perlmutter_like().with_threads(1)
}

/// What a correct call of a given epoch count must produce.
struct Expect {
    weights: Weights,
    stats: WorldStats,
}

/// The correctness oracles, computed once per run: the sequential
/// reference, the analytic model, and (proc workload) the thread
/// backend's loss trajectory on the same inputs.
pub struct Oracle {
    at: BTreeMap<usize, Expect>,
    /// Loss bits per epoch from the thread backend (proc workload only).
    thread_losses: Option<Vec<u64>>,
    pub reference_epoch_s: f64,
    pub analytic_eval_s: f64,
    pub model_epoch_s: f64,
}

impl Oracle {
    /// Trains the reference up to the largest of `epoch_counts`,
    /// snapshotting at each, and evaluates the analytic model for each.
    pub fn build(
        wl: &Workload,
        prep: &Prepared,
        epoch_counts: &[usize],
        spans: &mut Spans,
    ) -> Result<Oracle, String> {
        let gcn = wl.gcn(&prep.ds);
        let mut counts = epoch_counts.to_vec();
        counts.sort_unstable();
        counts.dedup();
        let longest = *counts.last().expect("at least one epoch count");

        let mut at = BTreeMap::new();
        let mut reference = ReferenceTrainer::new(&prep.ds, gcn.clone());
        let (mut done, mut ref_s) = (0, 0.0);
        let (mut analytic_eval_s, mut model_epoch_s) = (0.0, 0.0);
        for &e in &counts {
            let open = spans.begin("ReferenceTrainer::train", "core");
            let t = Instant::now();
            reference.train(e - done);
            ref_s += t.elapsed().as_secs_f64();
            spans.end(open);
            done = e;

            let open = spans.begin("analytic::estimate", "core");
            let t = Instant::now();
            let stats = estimate(&AnalyticInput {
                adj: &prep.ds.norm_adj,
                bounds: &prep.bounds,
                algo: wl.algo,
                dims: &gcn.dims,
                model: cost_model(),
                epochs: e,
                arch: ArchKind::Gcn,
                overlap: OverlapConfig::off(),
            });
            analytic_eval_s = t.elapsed().as_secs_f64();
            spans.end(open);
            model_epoch_s = stats.modeled_epoch_time() / e as f64;
            at.insert(
                e,
                Expect {
                    weights: reference.weights.clone(),
                    stats,
                },
            );
        }

        let thread_losses = match wl.backend {
            Backend::Thread => None,
            Backend::Proc => {
                let cfg = DistConfig::new(wl.algo, gcn, longest, cost_model());
                let out = try_train_distributed(&prep.ds, &prep.bounds, &cfg)
                    .map_err(|e| format!("thread-backend oracle run failed: {e}"))?;
                Some(out.records.iter().map(|r| r.loss.to_bits()).collect())
            }
        };
        Ok(Oracle {
            at,
            thread_losses,
            reference_epoch_s: ref_s / longest as f64,
            analytic_eval_s,
            model_epoch_s,
        })
    }
}

/// Executed bytes and flops must equal the analytic prediction exactly:
/// same integer, every rank, every phase.
fn volume_mismatch(executed: &WorldStats, analytic: &WorldStats) -> Option<String> {
    if executed.p() != analytic.p() {
        return Some(format!(
            "{} ranks executed, model has {}",
            executed.p(),
            analytic.p()
        ));
    }
    for (rank, (e, a)) in executed.per_rank.iter().zip(&analytic.per_rank).enumerate() {
        for &ph in &PHASES {
            let (pe, pa) = (e.phase(ph), a.phase(ph));
            if (pe.bytes_sent, pe.bytes_recv, pe.flops) != (pa.bytes_sent, pa.bytes_recv, pa.flops)
            {
                return Some(format!(
                    "rank {rank} phase {}: executed sent/recv/flops {}/{}/{} != model {}/{}/{}",
                    ph.name(),
                    pe.bytes_sent,
                    pe.bytes_recv,
                    pe.flops,
                    pa.bytes_sent,
                    pa.bytes_recv,
                    pa.flops
                ));
            }
        }
    }
    None
}

/// One finished training call.
pub struct Call {
    pub secs: f64,
    pub outcome: DistOutcome,
    /// Sum of the rank processes' `VmHWM` (0 on the thread backend).
    pub child_rss_bytes: u64,
    /// Max weight distance from the reference.
    pub drift: f64,
}

/// What a training call runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    /// The workload's algorithm, backend and ranks.
    World,
    /// 1D on one thread rank holding every row.
    SingleRank,
}

/// How a sample pair is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Nothing on: the only variant end-to-end metrics come from.
    Plain,
    /// The benchmark's own spans on.
    Spans,
    /// The program's tracing on (`DistConfig::trace`).
    ProgTrace,
}

/// One short/long pair on the same inputs.
pub struct Pair {
    pub t_short: f64,
    pub t_long: f64,
    pub e_long: usize,
    pub long: Call,
    /// Resource use across the long call.
    pub usage_long: Usage,
}

impl Pair {
    /// Seconds per steady-state epoch.
    pub fn epoch_s(&self) -> f64 {
        two_point(self.t_short, E_SHORT, self.t_long, self.e_long).0
    }

    /// Seconds a call costs beyond its epochs. Taken from this pair's
    /// own slope: the two calls ran back to back, so a host that is slow
    /// for a minute scales both and drops out of the intercept.
    pub fn launch_s(&self) -> f64 {
        two_point(self.t_short, E_SHORT, self.t_long, self.e_long).1
    }
}

/// Makes training calls for one workload and keeps the failure count.
pub struct Runner<'a> {
    pub wl: &'a Workload,
    pub prep: &'a Prepared,
    pub seed: u64,
    pub oracle: Oracle,
    gcn: GcnConfig,
    /// Seconds per epoch of the warm-up call, launch cost included: the
    /// yardstick of the timeout.
    expected_epoch_s: Option<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Rank-process generations the supervisor had to rerun (hung
    /// worlds, see `procs`), over all calls.
    pub restarts: u64,
}

impl<'a> Runner<'a> {
    pub fn new(wl: &'a Workload, prep: &'a Prepared, seed: u64, oracle: Oracle) -> Self {
        Self {
            wl,
            prep,
            seed,
            oracle,
            gcn: wl.gcn(&prep.ds),
            expected_epoch_s: None,
            attempted: 0,
            failures: Vec::new(),
            restarts: 0,
        }
    }

    /// Seconds a call of `epochs` epochs should take, generously: the
    /// warm-up call's rate, launch cost included.
    fn expected_s(&self, epochs: usize) -> f64 {
        match self.expected_epoch_s {
            Some(per_epoch) => (per_epoch * epochs as f64).max(MIN_EXPECTED_S),
            None => FIRST_CALL_EXPECTED_S,
        }
    }

    /// Discarded calls that load code and data and let the allocator
    /// settle on the sizes of both call lengths; the short one gives the
    /// timeout its yardstick (repeated once if it sat out a hang guard,
    /// which is no yardstick).
    pub fn warm_up(&mut self, e_long: usize, spans: &mut Spans) {
        for _ in 0..2 {
            let Some(call) = self.call(E_SHORT, false, spans) else {
                return;
            };
            self.expected_epoch_s = Some(call.secs / E_SHORT as f64);
            if call.outcome.restarts == 0 {
                break;
            }
        }
        self.call(e_long, false, spans);
    }

    /// One training call of the workload's algorithm, backend and rank
    /// count. Counts as an operation; `None` means it failed (recorded).
    pub fn call(&mut self, epochs: usize, prog_trace: bool, spans: &mut Spans) -> Option<Call> {
        self.call_on(Target::World, epochs, prog_trace, spans)
    }

    /// The same dataset on a single rank: compute with no exchange.
    pub fn call_p1(&mut self, epochs: usize, spans: &mut Spans) -> Option<Call> {
        self.call_on(Target::SingleRank, epochs, false, spans)
    }

    fn call_on(
        &mut self,
        target: Target,
        epochs: usize,
        prog_trace: bool,
        spans: &mut Spans,
    ) -> Option<Call> {
        self.attempted += 1;
        let expected_s = self.expected_s(epochs);
        let timeout_s = TIMEOUT_FACTOR * expected_s;
        let whole = [0, self.prep.ds.n()];
        let (algo, bounds, backend) = match target {
            Target::World => (self.wl.algo, &self.prep.bounds[..], self.wl.backend),
            Target::SingleRank => (Algo::OneD { aware: true }, &whole[..], Backend::Thread),
        };
        let result = match backend {
            Backend::Thread => {
                let mut cfg = DistConfig::new(algo, self.gcn.clone(), epochs, cost_model());
                cfg.trace = prog_trace;
                let open = spans.begin("try_train_distributed", "core");
                let t = Instant::now();
                let out = try_train_distributed(&self.prep.ds, bounds, &cfg);
                let secs = t.elapsed().as_secs_f64();
                spans.end(open);
                out.map(|outcome| (secs, outcome, 0))
                    .map_err(|e| e.to_string())
            }
            Backend::Proc => {
                let open = spans.begin("supervise_proc_training", "core");
                let hang = Duration::from_secs_f64(HANG_FACTOR * expected_s);
                let out = procs::train(self.wl, self.seed, epochs, hang);
                spans.end(open);
                out
            }
        };
        if let Ok((_, outcome, _)) = &result {
            self.restarts += outcome.restarts as u64;
        }
        let open = spans.begin("check", "bench");
        let checked = result.and_then(|(secs, outcome, child_rss_bytes)| {
            if secs > timeout_s {
                return Err(format!(
                    "took {secs:.3} s, over the {timeout_s:.3} s timeout"
                ));
            }
            let drift = self.check(target, epochs, &outcome)?;
            Ok(Call {
                secs,
                outcome,
                child_rss_bytes,
                drift,
            })
        });
        spans.end(open);
        checked
            .map_err(|why| {
                self.failures.push(format!(
                    "{target:?} training call #{} ({epochs} epochs): {why}",
                    self.attempted
                ));
            })
            .ok()
    }

    /// The correctness gate. Returns the weight drift.
    fn check(&self, target: Target, epochs: usize, out: &DistOutcome) -> Result<f64, String> {
        let want = self
            .oracle
            .at
            .get(&epochs)
            .ok_or_else(|| format!("no oracle for {epochs} epochs"))?;
        if out.records.len() != epochs {
            return Err(format!("{} epoch records, not {epochs}", out.records.len()));
        }
        let drift = out.weights.max_abs_diff(&want.weights);
        if drift.is_nan() || drift > WEIGHT_TOLERANCE {
            return Err(format!(
                "weights drift {drift:e} from ReferenceTrainer (limit {WEIGHT_TOLERANCE:e})"
            ));
        }
        // The volume and trajectory oracles describe the workload's own
        // world, not the single-rank baseline.
        if target == Target::World {
            if let Some(why) = volume_mismatch(&out.stats, &want.stats) {
                return Err(format!("volume differs from analytic::estimate: {why}"));
            }
            if let Some(thread) = &self.oracle.thread_losses {
                let got = out.records.iter().map(|r| r.loss.to_bits());
                if !got.eq(thread[..epochs].iter().copied()) {
                    return Err("loss trajectory differs from the thread backend's".into());
                }
            }
        }
        Ok(drift)
    }

    /// One sample: a short and a long call, in the given order.
    pub fn pair(
        &mut self,
        index: u32,
        short_first: bool,
        e_long: usize,
        variant: Variant,
        spans: &mut Spans,
    ) -> Option<Pair> {
        let traced_run = spans.is_on();
        spans.set_on(variant == Variant::Spans);
        spans.set_sample(index);
        let open = spans.begin("sample_pair", "bench");
        let prog_trace = variant == Variant::ProgTrace;
        let mut short = None;
        let mut long = None;
        for short_turn in [short_first, !short_first] {
            if short_turn {
                short = self.call(E_SHORT, prog_trace, spans).map(|c| c.secs);
            } else {
                let before = Usage::now();
                long = self
                    .call(e_long, prog_trace, spans)
                    .map(|c| (c, Usage::now().since(before)));
            }
        }
        spans.end(open);
        spans.set_on(traced_run);
        let (long, usage_long) = long?;
        Some(Pair {
            t_short: short?,
            t_long: long.secs,
            e_long,
            long,
            usage_long,
        })
    }
}
