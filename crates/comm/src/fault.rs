//! Deterministic fault injection: one seeded plan, two runtimes.
//!
//! A [`FaultPlan`] declares every fault of a run. Its **message rules**
//! ([`Fault`]) are evaluated by a [`FaultInjector`] inside
//! [`crate::RankCtx`], identically on both backends; its **link rules**
//! (`delay`, `bw`, `cut`, `partition`, `refuse`) are evaluated by the
//! process backend's socket interposer (`transport::chaos`) at frame
//! write and at dial, and mean nothing to the thread backend, which has
//! no wire. Message decisions are pure functions of
//! `(seed, src, dst, sequence number, rule index)` (SplitMix64 hashing),
//! and link jitter of `(seed, link, draw counter)`, so a run with a
//! given plan is exactly reproducible — the property every
//! degraded-mode experiment and every regression test of the recovery
//! path relies on.
//!
//! Message fault semantics (all charged through the α–β cost model):
//!
//! * **Delay** — matching sends cost `seconds` extra modeled time (a
//!   slow NIC / congested link on that rank), charged once per logical
//!   message (not per retry).
//! * **Drop** — each transmission attempt is lost independently with
//!   probability `prob`; the sender's reliable link layer times out
//!   (capped exponential backoff from `retry_backoff_seconds`) and
//!   retransmits, paying the α–β price per attempt. Progress is
//!   guaranteed: the attempt at `max_retries` always goes through.
//! * **Corrupt** — each attempt arrives bit-flipped with probability
//!   `prob`; the receiver's checksum catches it (counted in
//!   [`crate::stats::FaultCounters`]) and the sender retransmits under
//!   the same backoff schedule.
//! * **Duplicate** — a spurious retransmit: the successfully delivered
//!   frame is pushed twice; the receiver's sequence numbers discard the
//!   extra copy.
//! * **SlowCompute** — modeled compute time on the rank is multiplied by
//!   `factor` (the paper's bottleneck-rank argument, made injectable).
//! * **CrashAt** — the rank panics at a chosen `(epoch, op)` point. The
//!   fault fires **once** per injector (transient node failure): a driver
//!   that restarts the world with the same injector resumes cleanly.
//!
//! Link rules perturb the real wire the way interconnects do — latency
//! with jitter, bandwidth caps, connections that die after N bytes,
//! one-way and symmetric partitions with heal times, refused dials —
//! as real TCP resets and refused connections that the link's
//! reconnect + replay layer must absorb.
//!
//! # Spec grammar
//!
//! [`FaultPlan::parse`] (CLI `train --faults SPEC`) reads one rule per
//! `;`:
//!
//! ```text
//! seed=N                       # fate and jitter seed (default 0)
//! crash=R@E[:OP]               # rank R crashes at op OP (0) of epoch E
//! slow=R:F                     # rank R's compute runs F× slower
//! drop=A>B:X                   # each attempt A→B lost with prob. X
//! corrupt=A>B:X                # each attempt A→B bit-flipped, prob. X
//! delay=A>B:BASE[+-JIT]        # per-frame latency ms (one-way link)
//! delay=A-B:BASE[+-JIT]        # … both directions
//! bw=A>B:BYTES_PER_SEC         # token-bucket bandwidth cap
//! cut=A>B:NBYTES               # sever the link after N sent bytes
//! partition=A-B@FROM..UNTIL    # no traffic in [FROM,UNTIL) ms
//! partition=A>B@FROM..         # one-way, never heals
//! refuse=R@FROM..UNTIL         # dials to rank R refused in window
//! ```
//!
//! `A`/`B` are rank numbers or `*`; every link selector (`drop` and
//! `corrupt` included) takes `A>B` or the symmetric `A-B`. Windowed
//! link faults (`partition`, `refuse`, `cut`) apply only to
//! **generation 0** — the first supervised process generation — unless
//! suffixed `/all`; otherwise a partition that outlives the reconnect
//! deadline would re-fire after every checkpoint restart and the run
//! could never converge. `delay` and `bw` shape timing only (never
//! data), so they apply to every generation and take no suffix.

use std::sync::atomic::{AtomicBool, Ordering};

/// One injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Extra modeled seconds on every matching send from `rank`
    /// (to `to`, or to every peer when `None`).
    DelaySend {
        /// Sending rank (`None` = every rank).
        rank: Option<usize>,
        /// Destination filter (`None` = all peers).
        to: Option<usize>,
        /// Extra modeled seconds per message.
        seconds: f64,
    },
    /// Each matching first transmission is lost with probability `prob`;
    /// the link layer retransmits after a modeled backoff.
    DropMsg {
        /// Sending rank (`None` = every rank).
        rank: Option<usize>,
        /// Destination filter (`None` = all peers).
        to: Option<usize>,
        /// Loss probability in `[0, 1]`.
        prob: f64,
    },
    /// Each matching first transmission arrives corrupted with
    /// probability `prob`; the receiver detects and discards it and the
    /// sender retransmits.
    CorruptMsg {
        /// Sending rank (`None` = every rank).
        rank: Option<usize>,
        /// Destination filter (`None` = all peers).
        to: Option<usize>,
        /// Corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Each matching successful delivery is duplicated (spurious
    /// retransmit) with probability `prob`; the receiver's sequence
    /// numbers discard the second copy.
    DuplicateMsg {
        /// Sending rank (`None` = every rank).
        rank: Option<usize>,
        /// Destination filter (`None` = all peers).
        to: Option<usize>,
        /// Duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// Modeled compute time on `rank` is multiplied by `factor`.
    SlowCompute {
        /// Straggling rank.
        rank: usize,
        /// Slowdown multiplier (`> 1` for stragglers).
        factor: f64,
    },
    /// `rank` panics at operation index `op` of `epoch` (fires once).
    CrashAt {
        /// Crashing rank.
        rank: usize,
        /// Epoch in which to crash (as reported via
        /// [`crate::RankCtx::set_epoch`]).
        epoch: usize,
        /// Per-epoch operation index at which to crash (0 = the
        /// `set_epoch` call itself).
        op: u64,
    },
}

impl Fault {
    /// The rule's spec keyword.
    fn kind(&self) -> &'static str {
        match self {
            Fault::DelaySend { .. } => "delay",
            Fault::DropMsg { .. } => "drop",
            Fault::CorruptMsg { .. } => "corrupt",
            Fault::DuplicateMsg { .. } => "duplicate",
            Fault::SlowCompute { .. } => "slow",
            Fault::CrashAt { .. } => "crash",
        }
    }

    /// The ranks the rule names (`None` for a `*` or an absent end).
    fn ranks(&self) -> [Option<usize>; 2] {
        match *self {
            Fault::DelaySend { rank, to, .. }
            | Fault::DropMsg { rank, to, .. }
            | Fault::CorruptMsg { rank, to, .. }
            | Fault::DuplicateMsg { rank, to, .. } => [rank, to],
            Fault::SlowCompute { rank, .. } | Fault::CrashAt { rank, .. } => [Some(rank), None],
        }
    }
}

/// A declarative, seeded set of faults for one run: the message rules
/// in [`FaultPlan::faults`] plus the link rules only
/// [`FaultPlan::parse`] builds (see the module docs for both).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// The message faults to inject, in rule order (the rule index is
    /// part of every fate key).
    pub faults: Vec<Fault>,
    /// Seed for per-message probabilistic decisions and link jitter.
    pub seed: u64,
    /// Base modeled retransmission timeout; attempt `k` waits
    /// `retry_backoff_seconds · 2^k`, capped at
    /// [`FaultPlan::retry_backoff_cap_seconds`].
    pub retry_backoff_seconds: f64,
    /// Upper bound on a single backoff wait.
    pub retry_backoff_cap_seconds: f64,
    /// Retry budget per message: the attempt numbered `max_retries` is
    /// forced clean, so even a prob=1.0 corruption storm converges.
    pub max_retries: u32,
    /// Wire-level rules for the process backend's link interposer.
    pub(crate) links: Vec<LinkRule>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new(0)
    }
}

impl FaultPlan {
    /// An empty plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        Self {
            faults: Vec::new(),
            seed,
            retry_backoff_seconds: 1e-3,
            retry_backoff_cap_seconds: 0.1,
            max_retries: 6,
            links: Vec::new(),
        }
    }

    /// Backoff before retry attempt `attempt` (1-based for waits; the
    /// wait after failed attempt `k` is `base · 2^k`, capped).
    pub fn backoff_seconds(&self, attempt: u32) -> f64 {
        let exp = attempt.min(52);
        (self.retry_backoff_seconds * (1u64 << exp) as f64).min(self.retry_backoff_cap_seconds)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.links.is_empty()
    }

    /// The kinds of the plan's link rules (`delay`, `bw`, `cut`,
    /// `partition`, `refuse`), in spec order. Only the process backend
    /// runs them.
    pub fn link_rule_kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.links.iter().map(LinkRule::kind)
    }

    /// The first rule (message rules, then link rules) that names a rank
    /// of `p` or above, as its keyword and that rank: in a world of `p`
    /// ranks such a rule can never fire.
    pub fn rank_outside(&self, p: usize) -> Option<(&'static str, usize)> {
        let messages = self.faults.iter().map(|f| (f.kind(), f.ranks()));
        let links = self.links.iter().map(|l| (l.kind(), l.ranks()));
        messages.chain(links).find_map(|(kind, ranks)| {
            let r = ranks.into_iter().flatten().find(|&r| r >= p)?;
            Some((kind, r))
        })
    }

    /// Adds a send-delay fault (builder style).
    #[must_use]
    pub fn delay_send(mut self, rank: usize, to: Option<usize>, seconds: f64) -> Self {
        self.faults.push(Fault::DelaySend {
            rank: Some(rank),
            to,
            seconds,
        });
        self
    }

    /// Adds a message-drop fault (builder style).
    #[must_use]
    pub fn drop_messages(mut self, rank: usize, to: Option<usize>, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop probability out of range");
        self.faults.push(Fault::DropMsg {
            rank: Some(rank),
            to,
            prob,
        });
        self
    }

    /// Adds a message-corruption fault (builder style).
    #[must_use]
    pub fn corrupt_messages(mut self, rank: usize, to: Option<usize>, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "corruption probability out of range"
        );
        self.faults.push(Fault::CorruptMsg {
            rank: Some(rank),
            to,
            prob,
        });
        self
    }

    /// Adds a message-duplication fault (builder style).
    #[must_use]
    pub fn duplicate_messages(mut self, rank: usize, to: Option<usize>, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "duplication probability out of range"
        );
        self.faults.push(Fault::DuplicateMsg {
            rank: Some(rank),
            to,
            prob,
        });
        self
    }

    /// Adds a compute-straggler fault (builder style).
    #[must_use]
    pub fn slow_compute(mut self, rank: usize, factor: f64) -> Self {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.faults.push(Fault::SlowCompute { rank, factor });
        self
    }

    /// Adds a one-shot crash fault (builder style).
    #[must_use]
    pub fn crash_at(mut self, rank: usize, epoch: usize, op: u64) -> Self {
        self.faults.push(Fault::CrashAt { rank, epoch, op });
        self
    }

    /// Parses a `;`-separated rule spec (see the module docs for the
    /// grammar). Rules keep their spec order; a symmetric `drop` or
    /// `corrupt` selector `A-B` adds `A>B`, then `B>A` unless the two
    /// are the same. Errors name the offending rule.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new(0);
        for rule in spec.split(';').map(str::trim).filter(|r| !r.is_empty()) {
            plan.add_rule(rule)
                .map_err(|e| format!("bad fault rule {rule:?}: {e}"))?;
        }
        if plan.is_empty() {
            return Err("fault spec has no rules".to_string());
        }
        Ok(plan)
    }

    /// Appends the rule(s) one `key=value` spec item declares.
    fn add_rule(&mut self, rule: &str) -> Result<(), String> {
        let (key, val) = rule.split_once('=').ok_or("want key=value")?;
        let (val, all_gens) = match val.strip_suffix("/all") {
            Some(v) => (v, true),
            None => (val, false),
        };
        if all_gens && !matches!(key, "cut" | "partition" | "refuse") {
            return Err("only cut, partition and refuse take /all".to_string());
        }
        let link = LinkSel::parse;
        match key {
            "seed" => self.seed = parse_num("seed", val)?,
            "crash" => {
                let (rank, at) = split(val, '@', "RANK@EPOCH[:OP]")?;
                let (epoch, op) = at.split_once(':').unwrap_or((at, "0"));
                let (rank, epoch) = (parse_num("crash rank", rank)?, parse_num("epoch", epoch)?);
                let op = parse_num("crash op", op)?;
                self.faults.push(Fault::CrashAt { rank, epoch, op });
            }
            "slow" => {
                let (rank, factor) = split(val, ':', "RANK:FACTOR")?;
                let factor: f64 = parse_num("slowdown factor", factor)?;
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(format!("slowdown factor {factor} must be finite and > 0"));
                }
                let rank = parse_num("slow rank", rank)?;
                self.faults.push(Fault::SlowCompute { rank, factor });
            }
            "drop" | "corrupt" => {
                let (sel, prob) = split(val, ':', "LINK:PROB")?;
                let (sel, prob) = (link(sel)?, parse_num::<f64>("probability", prob)?);
                if !(0.0..=1.0).contains(&prob) {
                    return Err(format!("{key} probability {prob} is outside [0, 1]"));
                }
                let mut add = |rank, to| {
                    self.faults.push(match key {
                        "drop" => Fault::DropMsg { rank, to, prob },
                        _ => Fault::CorruptMsg { rank, to, prob },
                    })
                };
                add(sel.src, sel.dst);
                if sel.symmetric && sel.src != sel.dst {
                    add(sel.dst, sel.src);
                }
            }
            "delay" => {
                let (sel, amount) = split(val, ':', "LINK:BASE[+-JITTER]")?;
                let (base_ms, jitter_ms) = match amount.split_once("+-") {
                    Some((b, j)) => (parse_num("delay", b)?, parse_num("jitter", j)?),
                    None => (parse_num("delay", amount)?, 0),
                };
                // The runtime draws base ± jitter in microseconds.
                let span_us = (base_ms as u128 * 1000) + (jitter_ms as u128 * 2000 + 1);
                if span_us > u64::MAX as u128 {
                    return Err(format!("delay {amount:?} overflows in microseconds"));
                }
                self.links.push(LinkRule::Delay {
                    link: link(sel)?,
                    base_ms,
                    jitter_ms,
                });
            }
            "bw" => {
                let (sel, rate) = split(val, ':', "LINK:BYTES_PER_SEC")?;
                let bytes_per_sec = parse_num("bandwidth", rate)?;
                if bytes_per_sec == 0 {
                    return Err(
                        "bw rate must be positive (use partition= to block a link)".to_string()
                    );
                }
                self.links.push(LinkRule::Bandwidth {
                    link: link(sel)?,
                    bytes_per_sec,
                });
            }
            "cut" => {
                let (sel, n) = split(val, ':', "LINK:NBYTES")?;
                self.links.push(LinkRule::Cut {
                    link: link(sel)?,
                    after_bytes: parse_num("cut threshold", n)?,
                    all_gens,
                });
            }
            "partition" => {
                let (sel, window) = split(val, '@', "LINK@FROM..UNTIL")?;
                self.links.push(LinkRule::Partition {
                    link: link(sel)?,
                    window: Window::parse(window)?,
                    all_gens,
                });
            }
            "refuse" => {
                let (rank, window) = split(val, '@', "RANK@FROM..UNTIL")?;
                self.links.push(LinkRule::Refuse {
                    rank: parse_num("refuse rank", rank)?,
                    window: Window::parse(window)?,
                    all_gens,
                });
            }
            other => return Err(format!("unknown kind {other:?}")),
        }
        Ok(())
    }
}

/// `val` split at the first `sep`, or an error quoting the wanted shape.
fn split<'a>(val: &'a str, sep: char, shape: &str) -> Result<(&'a str, &'a str), String> {
    val.split_once(sep)
        .ok_or_else(|| format!("want {shape}, got {val:?}"))
}

fn parse_num<T: std::str::FromStr>(what: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} {s:?}"))
}

/// Directed link pattern: `src>dst` or the symmetric `src-dst`, each
/// end a rank or `None` for `*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LinkSel {
    src: Option<usize>,
    dst: Option<usize>,
    symmetric: bool,
}

impl LinkSel {
    fn parse(s: &str) -> Result<LinkSel, String> {
        let (a, b, symmetric) = if let Some((a, b)) = s.split_once('>') {
            (a, b, false)
        } else if let Some((a, b)) = s.split_once('-') {
            (a, b, true)
        } else {
            return Err(format!("bad link selector {s:?} (want 'A>B' or 'A-B')"));
        };
        let end = |s: &str| match s {
            "*" => Ok(None),
            _ => s
                .parse()
                .map(Some)
                .map_err(|_| format!("bad rank selector {s:?} (want a rank number or '*')")),
        };
        Ok(LinkSel {
            src: end(a)?,
            dst: end(b)?,
            symmetric,
        })
    }

    /// Does this pattern cover the directed link `src → dst`?
    pub(crate) fn covers(&self, src: usize, dst: usize) -> bool {
        let hits = |a: Option<usize>, b: Option<usize>| {
            a.is_none_or(|a| a == src) && b.is_none_or(|b| b == dst)
        };
        hits(self.src, self.dst) || (self.symmetric && hits(self.dst, self.src))
    }
}

/// Half-open activity window in milliseconds since transport start
/// (`until_ms` `None` = never ends).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Window {
    from_ms: u64,
    until_ms: Option<u64>,
}

impl Window {
    fn parse(s: &str) -> Result<Window, String> {
        let (from, until) = s
            .split_once("..")
            .ok_or_else(|| format!("bad window {s:?} (want 'FROM..UNTIL' or 'FROM..')"))?;
        let from_ms = parse_num("window start", from)?;
        let until_ms = match until {
            "" => None,
            _ => Some(parse_num("window end", until)?),
        };
        if until_ms.is_some_and(|u| u <= from_ms) {
            return Err(format!("window {s:?} ends before it starts"));
        }
        Ok(Window { from_ms, until_ms })
    }

    pub(crate) fn active(&self, now_ms: u64) -> bool {
        now_ms >= self.from_ms && self.until_ms.is_none_or(|u| now_ms < u)
    }
}

/// One wire-level rule, run by the process backend's interposer.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum LinkRule {
    /// Per-frame latency: `base_ms ± jitter_ms` on matching links.
    Delay {
        link: LinkSel,
        base_ms: u64,
        jitter_ms: u64,
    },
    /// Token-bucket bandwidth cap on matching links.
    Bandwidth { link: LinkSel, bytes_per_sec: u64 },
    /// Sever the connection once N bytes have been sent on the link.
    Cut {
        link: LinkSel,
        after_bytes: u64,
        all_gens: bool,
    },
    /// No traffic on matching links while the window is active.
    Partition {
        link: LinkSel,
        window: Window,
        all_gens: bool,
    },
    /// Dials to `rank` fail with ConnectionRefused while active
    /// (covers the rendezvous endpoint when `rank` is 0).
    Refuse {
        rank: usize,
        window: Window,
        all_gens: bool,
    },
}

impl LinkRule {
    /// The rule's spec keyword.
    fn kind(&self) -> &'static str {
        match self {
            LinkRule::Delay { .. } => "delay",
            LinkRule::Bandwidth { .. } => "bw",
            LinkRule::Cut { .. } => "cut",
            LinkRule::Partition { .. } => "partition",
            LinkRule::Refuse { .. } => "refuse",
        }
    }

    /// The ranks the rule names (`None` for a `*` or an absent end).
    fn ranks(&self) -> [Option<usize>; 2] {
        match *self {
            LinkRule::Delay { link, .. }
            | LinkRule::Bandwidth { link, .. }
            | LinkRule::Cut { link, .. }
            | LinkRule::Partition { link, .. } => [link.src, link.dst],
            LinkRule::Refuse { rank, .. } => [Some(rank), None],
        }
    }
}

/// The injector's verdict for one transmission attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SendFate {
    /// Extra modeled seconds from delay faults (attempt 0 only — a slow
    /// link delays the message, not each retry independently).
    pub delay_seconds: f64,
    /// This attempt is lost in flight.
    pub dropped: bool,
    /// This attempt arrives bit-flipped (checksum will catch it).
    pub corrupted: bool,
    /// The delivered frame is pushed twice (spurious retransmit).
    pub duplicated: bool,
}

/// Runtime evaluator of a [`FaultPlan`]. Shareable across restarted
/// worlds (crash faults stay fired), which is what makes elastic restart
/// converge instead of crashing forever.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Parallel to `plan.faults`; `true` once a `CrashAt` has fired.
    crash_fired: Vec<AtomicBool>,
}

/// SplitMix64 finalizer over a composite key.
fn mix(seed: u64, a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(b.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(c.wrapping_mul(0x94D049BB133111EB))
        .wrapping_add(d.wrapping_mul(0xD6E8FEB86659FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from 53 hash bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let crash_fired = plan.faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self { plan, crash_fired }
    }

    /// The plan this injector evaluates.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any not-yet-fired crash fault remains.
    pub fn crashes_pending(&self) -> bool {
        self.plan
            .faults
            .iter()
            .zip(&self.crash_fired)
            .any(|(f, fired)| matches!(f, Fault::CrashAt { .. }) && !fired.load(Ordering::Relaxed))
    }

    /// How many crash rules have fired, in whichever of the worlds this
    /// injector armed — a crash that forced a restart stays counted.
    pub fn fired_crashes(&self) -> usize {
        self.crash_fired
            .iter()
            .filter(|fired| fired.load(Ordering::Relaxed))
            .count()
    }

    /// Every crash rule that has not fired, spelled as in a spec
    /// (`crash=R@E:OP`). After a run, each is a rule whose op the named
    /// epoch of the named rank never reached: a fault the run claims to
    /// have survived but never met.
    pub fn unfired_crashes(&self) -> Vec<String> {
        let unfired = self.plan.faults.iter().zip(&self.crash_fired);
        unfired
            .filter(|(_, fired)| !fired.load(Ordering::Relaxed))
            .filter_map(|(fault, _)| match *fault {
                Fault::CrashAt { rank, epoch, op } => Some(format!("crash={rank}@{epoch}:{op}")),
                _ => None,
            })
            .collect()
    }

    /// Deterministic fate of transmission attempt `attempt` of the
    /// `seq`-th message from `src` to `dst`. Drop/corrupt are re-rolled
    /// per attempt (independent link events); delay applies to attempt 0
    /// only; the attempt numbered `plan.max_retries` is forced clean so
    /// every message eventually lands.
    pub(crate) fn transmit_fate(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> SendFate {
        let mut fate = SendFate::default();
        for (i, fault) in self.plan.faults.iter().enumerate() {
            // Folding the attempt into the last key slot keeps attempt 0
            // on the original (src, dst, seq, i) stream.
            let key = |prob_kind: u64| {
                mix(
                    self.plan.seed ^ prob_kind,
                    src as u64,
                    dst as u64,
                    seq,
                    i as u64 | ((attempt as u64) << 32),
                )
            };
            let covers = |rank: Option<usize>, to: Option<usize>| {
                rank.is_none_or(|r| r == src) && to.is_none_or(|t| t == dst)
            };
            match *fault {
                Fault::DelaySend { rank, to, seconds } if covers(rank, to) && attempt == 0 => {
                    fate.delay_seconds += seconds;
                }
                Fault::DropMsg { rank, to, prob } if covers(rank, to) => {
                    fate.dropped |= unit(key(1)) < prob;
                }
                Fault::CorruptMsg { rank, to, prob } if covers(rank, to) => {
                    fate.corrupted |= unit(key(2)) < prob;
                }
                Fault::DuplicateMsg { rank, to, prob } if covers(rank, to) => {
                    fate.duplicated |= unit(key(3)) < prob;
                }
                _ => {}
            }
        }
        if attempt >= self.plan.max_retries {
            fate.dropped = false;
            fate.corrupted = false;
        }
        fate
    }

    /// Combined compute-slowdown factor for `rank`.
    pub(crate) fn compute_factor(&self, rank: usize) -> f64 {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::SlowCompute { rank: r, factor } if r == rank => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Worst-case injected compute slowdown across all ranks (≥ 1.0).
    /// The watchdog scales its deadlock timeout by this budget so heavy
    /// stragglers don't trip false-positive deadlock reports.
    pub fn straggler_budget(&self) -> f64 {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::SlowCompute { rank, .. } => Some(self.compute_factor(rank)),
                _ => None,
            })
            .fold(1.0, f64::max)
    }

    /// Checks (and fires at most once) any crash fault due at this point.
    pub(crate) fn crash_due(&self, rank: usize, epoch: Option<usize>, op: u64) -> bool {
        let Some(epoch) = epoch else { return false };
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if let Fault::CrashAt {
                rank: r,
                epoch: e,
                op: o,
            } = *fault
            {
                if r == rank
                    && e == epoch
                    && op >= o
                    && !self.crash_fired[i].swap(true, Ordering::SeqCst)
                {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_outside_names_the_first_rule_past_the_world() {
        let plan = |spec: &str| FaultPlan::parse(spec).unwrap();
        let spec = "crash=1@0;slow=1:2;drop=0>*:0.1;delay=*-1:3;refuse=1@0..";
        assert_eq!(plan(spec).rank_outside(2), None);
        assert_eq!(plan("crash=5@1").rank_outside(2), Some(("crash", 5)));
        assert_eq!(
            plan("slow=0:2;drop=0>3:0.1").rank_outside(3),
            Some(("drop", 3))
        );
        assert_eq!(
            plan("corrupt=*-2:0.1").rank_outside(2),
            Some(("corrupt", 2))
        );
        assert_eq!(
            plan("bw=0>1:100;cut=4-0:9").rank_outside(4),
            Some(("cut", 4))
        );
        assert_eq!(plan("refuse=2@0..").rank_outside(2), Some(("refuse", 2)));
    }

    #[test]
    fn fates_are_deterministic_per_key() {
        let inj = FaultInjector::new(FaultPlan::new(7).drop_messages(0, None, 0.5));
        for seq in 0..50 {
            assert_eq!(
                inj.transmit_fate(0, 1, seq, 0),
                inj.transmit_fate(0, 1, seq, 0)
            );
        }
        // And actually vary with the sequence number.
        let drops = (0..200)
            .filter(|&s| inj.transmit_fate(0, 1, s, 0).dropped)
            .count();
        assert!(drops > 50 && drops < 150, "drops {drops}");
    }

    #[test]
    fn fates_respect_rank_and_destination_filters() {
        let inj = FaultInjector::new(
            FaultPlan::new(1)
                .delay_send(2, Some(0), 0.25)
                .drop_messages(1, None, 1.0),
        );
        assert_eq!(inj.transmit_fate(2, 0, 0, 0).delay_seconds, 0.25);
        assert_eq!(inj.transmit_fate(2, 1, 0, 0).delay_seconds, 0.0);
        assert!(inj.transmit_fate(1, 0, 3, 0).dropped);
        assert!(!inj.transmit_fate(0, 1, 3, 0).dropped);
    }

    #[test]
    fn seed_changes_the_stream() {
        let a = FaultInjector::new(FaultPlan::new(1).drop_messages(0, None, 0.5));
        let b = FaultInjector::new(FaultPlan::new(2).drop_messages(0, None, 0.5));
        let differs = (0..100)
            .any(|s| a.transmit_fate(0, 1, s, 0).dropped != b.transmit_fate(0, 1, s, 0).dropped);
        assert!(differs);
    }

    #[test]
    fn retries_reroll_and_final_attempt_is_forced_clean() {
        let inj = FaultInjector::new(FaultPlan::new(3).drop_messages(0, None, 0.6));
        // Attempts are independent link events: same message, different
        // attempt → different verdict stream.
        let differs = (0..100).any(|s| {
            inj.transmit_fate(0, 1, s, 0).dropped != inj.transmit_fate(0, 1, s, 1).dropped
        });
        assert!(differs);
        // Even a prob=1.0 storm converges at the retry cap.
        let storm = FaultInjector::new(FaultPlan::new(3).corrupt_messages(0, None, 1.0));
        let cap = storm.plan().max_retries;
        for attempt in 0..cap {
            assert!(storm.transmit_fate(0, 1, 9, attempt).corrupted);
        }
        let last = storm.transmit_fate(0, 1, 9, cap);
        assert!(!last.corrupted && !last.dropped);
        // Delay is charged once, on the first attempt only.
        let slow = FaultInjector::new(FaultPlan::new(0).delay_send(0, None, 0.5));
        assert_eq!(slow.transmit_fate(0, 1, 0, 0).delay_seconds, 0.5);
        assert_eq!(slow.transmit_fate(0, 1, 0, 1).delay_seconds, 0.0);
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let plan = FaultPlan::new(0);
        assert_eq!(plan.backoff_seconds(0), 1e-3);
        assert_eq!(plan.backoff_seconds(1), 2e-3);
        assert_eq!(plan.backoff_seconds(2), 4e-3);
        assert_eq!(plan.backoff_seconds(60), plan.retry_backoff_cap_seconds);
    }

    #[test]
    fn duplicates_follow_their_own_stream() {
        let inj = FaultInjector::new(FaultPlan::new(5).duplicate_messages(0, Some(1), 1.0));
        assert!(inj.transmit_fate(0, 1, 0, 0).duplicated);
        assert!(!inj.transmit_fate(0, 2, 0, 0).duplicated, "dst filter");
        // Duplication never suppresses delivery.
        assert!(!inj.transmit_fate(0, 1, 0, 0).dropped);
    }

    #[test]
    fn straggler_budget_is_the_worst_rank() {
        let inj = FaultInjector::new(
            FaultPlan::new(0)
                .slow_compute(1, 2.0)
                .slow_compute(1, 3.0)
                .slow_compute(2, 4.0),
        );
        assert_eq!(inj.straggler_budget(), 6.0);
        let clean = FaultInjector::new(FaultPlan::new(0).drop_messages(0, None, 0.5));
        assert_eq!(clean.straggler_budget(), 1.0);
    }

    #[test]
    fn compute_factor_multiplies() {
        let inj = FaultInjector::new(FaultPlan::new(0).slow_compute(1, 2.0).slow_compute(1, 3.0));
        assert_eq!(inj.compute_factor(1), 6.0);
        assert_eq!(inj.compute_factor(0), 1.0);
    }

    #[test]
    fn crash_fires_exactly_once() {
        let inj = FaultInjector::new(FaultPlan::new(0).crash_at(1, 2, 5));
        assert!(!inj.crash_due(1, Some(2), 4), "too early");
        assert!(!inj.crash_due(1, Some(1), 9), "wrong epoch");
        assert!(!inj.crash_due(0, Some(2), 9), "wrong rank");
        assert!(inj.crashes_pending());
        assert!(inj.crash_due(1, Some(2), 5));
        assert!(!inj.crash_due(1, Some(2), 6), "must not re-fire");
        assert!(!inj.crashes_pending());
        assert_eq!(inj.fired_crashes(), 1);
    }

    #[test]
    fn spec_parses_every_rule_kind_in_order() {
        let plan = FaultPlan::parse(
            " seed=7; crash=1@2:5;slow=3:2.5;drop=0>*:0.25;corrupt=*-2:1;\
             delay=0>1:5+-2;bw=*-*:1000000;cut=1>0:4096/all;\
             partition=0-2@100..600;refuse=0@0..250 ;",
        )
        .unwrap();
        let mut want = FaultPlan::new(7)
            .crash_at(1, 2, 5)
            .slow_compute(3, 2.5)
            .drop_messages(0, None, 0.25);
        for (rank, to) in [(None, Some(2)), (Some(2), None)] {
            want.faults.push(Fault::CorruptMsg {
                rank,
                to,
                prob: 1.0,
            });
        }
        assert_eq!(plan.faults, want.faults);
        assert_eq!(plan.seed, 7);
        let kinds: Vec<_> = plan.link_rule_kinds().collect();
        assert_eq!(kinds, ["delay", "bw", "cut", "partition", "refuse"]);
        assert!(FaultPlan::new(7).is_empty() && !plan.is_empty());
        // A link-only plan has no message rule, and is still a plan.
        let links = FaultPlan::parse("seed=4;cut=*>*:1").unwrap();
        assert!(links.faults.is_empty() && !links.is_empty());
    }

    #[test]
    fn spec_rejects_malformed_rules() {
        for bad in [
            "",
            "seed=1",               // a seed alone injects nothing
            "delay=0>1",            // no amount
            "delay=0_1:5",          // bad link sep
            "bw=*>*:0",             // zero rate
            "partition=0-1",        // no window
            "partition=0-1@9..3",   // inverted window
            "refuse=x@0..5",        // bad rank
            "frobnicate=1",         // unknown kind
            "seed=abc;delay=0>1:1", // bad seed
            "crash=1",              // no epoch
            "crash=1@2:x",          // bad op
            "slow=1:0",             // non-positive factor
            "slow=1:inf",           // non-finite factor
            "drop=*>*:1.5",         // probability above 1
            "corrupt=*>*:nan",      // not a probability
            "drop=*:0.1",           // not a link
            "seed=1/all;cut=0>1:9", // /all on a rule it cannot scope
            "delay=0>1:5/all",
            "bw=*>*:10/all",
            "crash=1@2/all",
            "drop=*>*:0.1/all",
            "delay=0>1:18446744073709551615", // µs overflow
            "delay=0>1:1+-9223372036854775807",
            "delay=0>1:18446744073709551+-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// What a parsed plan promises its runtimes: the builders' ranges,
    /// and link rules whose arithmetic stays in range for any frame.
    fn assert_runs(spec: &str, plan: FaultPlan) {
        assert_eq!(FaultPlan::parse(spec).as_ref(), Ok(&plan), "{spec:?}");
        for f in &plan.faults {
            match *f {
                Fault::DropMsg { prob, .. } | Fault::CorruptMsg { prob, .. } => {
                    assert!((0.0..=1.0).contains(&prob), "{spec:?}")
                }
                Fault::SlowCompute { factor, .. } => {
                    assert!(factor.is_finite() && factor > 0.0, "{spec:?}")
                }
                _ => {}
            }
        }
        let inj = FaultInjector::new(plan.clone());
        for (src, dst) in [(0, 1), (1, 0), (2, 3)] {
            let _ = inj.transmit_fate(src, dst, 9, 0);
            let _ = inj.crash_due(src, Some(2), 5);
        }
        let _ = inj.straggler_budget();
        #[cfg(unix)]
        {
            let chaos = crate::transport::chaos::Chaos::new(&plan, 0, 4, 0);
            for now_us in [0, 150_000, u64::MAX / 2, u64::MAX] {
                for dst in 1..4 {
                    let _ = chaos.on_send(dst, 1 << 20, now_us);
                    let _ = chaos.dial_refused(dst, now_us / 1000);
                }
            }
        }
    }

    /// Every prefix, every splice and duplicated span, a few byte stores
    /// at every offset and huge numbers in every numeric field of valid
    /// specs: `Err`, or a plan both runtimes can run — never a panic.
    #[test]
    fn mutated_specs_never_panic_or_yield_an_unrunnable_plan() {
        let specs = [
            "seed=7;delay=0>1:5+-2;bw=*-*:1000000;cut=1>0:4096",
            "partition=0-2@100..600;partition=1>3@50../all;refuse=0@0..250",
            "seed=3;crash=2@3:1;slow=3:4.0;drop=*>*:0.2;corrupt=0-1:0.15",
        ];
        let check = |s: &str| {
            if let Ok(plan) = FaultPlan::parse(s) {
                assert_runs(s, plan);
            }
        };
        let huge = [
            "18446744073709551615",
            "18446744073709551616",
            "1e308",
            "-1",
        ];
        for spec in specs {
            let b = spec.as_bytes();
            let text = |v: Vec<u8>| String::from_utf8(v).expect("ASCII in, ASCII out");
            for i in 0..=b.len() {
                check(&spec[..i]);
                for j in i..=b.len() {
                    check(&text([&b[..i], &b[j..]].concat())); // splice out i..j
                    check(&text([&b[..j], &b[i..]].concat())); // duplicate i..j
                }
            }
            for at in 0..b.len() {
                for put in *b";=>-*@.:/+09a " {
                    let mut m = b.to_vec();
                    m[at] = put;
                    check(&text(m));
                }
            }
            // Each run of digits, replaced by a huge or signed number.
            let mut at = 0;
            while let Some(start) = spec[at..].find(|c: char| c.is_ascii_digit()) {
                let start = at + start;
                let len = spec[start..].find(|c: char| !c.is_ascii_digit());
                let end = start + len.unwrap_or(spec.len() - start);
                for n in huge {
                    check(&format!("{}{n}{}", &spec[..start], &spec[end..]));
                }
                at = end;
            }
        }
    }

    #[test]
    fn a_crash_rule_whose_op_the_epoch_never_reaches_is_reported_unfired() {
        let plan = FaultPlan::parse("crash=1@1:999999;crash=0@2;slow=1:2").unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.unfired_crashes(), ["crash=1@1:999999", "crash=0@2:0"]);
        // Rank 1 runs epoch 1 to its end, 40 ops short of the rule's op;
        // rank 0 crashes at the start of epoch 2.
        assert!((0..40).all(|op| !inj.crash_due(1, Some(1), op)));
        assert!(inj.crash_due(0, Some(2), 0));
        assert_eq!(inj.unfired_crashes(), ["crash=1@1:999999"]);
        assert_eq!(inj.fired_crashes(), 1);
    }

    #[test]
    fn crash_needs_epoch_tracking() {
        let inj = FaultInjector::new(FaultPlan::new(0).crash_at(0, 0, 0));
        assert!(!inj.crash_due(0, None, 10), "no epoch reported, no crash");
    }
}
