//! Schema validation and reloading for exported JSONL traces.
//!
//! The validator enforces the `gnn-trace/1` contract line by line —
//! header first, known fields with the right types, kind/phase
//! vocabulary, per-rank strictly increasing `seq`, `parent < seq`,
//! non-negative times — so the CI smoke job and `trace-report
//! --validate` can reject a malformed artifact without any external
//! JSON-schema tooling. [`parse_jsonl`] reloads a validated trace into
//! a [`WorldTrace`] for offline reporting.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind, NO_PARENT, NO_PEER};
use crate::json::{parse, Json};
use crate::metrics::Histogram;
use crate::phase::Phase;
use crate::recorder::WorldTrace;
use crate::SCHEMA_VERSION;

/// What a validated trace contains.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// World size from the header.
    pub p: usize,
    /// Total events (header count, cross-checked against lines).
    pub events: usize,
    /// Span events seen.
    pub spans: usize,
    /// Op events seen.
    pub ops: usize,
    /// Highest epoch stamped on any event (−1 if none).
    pub max_epoch: i64,
    /// Sum of `bytes_sent` over non-retransmit op events.
    pub logical_bytes_sent: u64,
    /// Sum of `bytes_sent` over retransmit op events: wire overhead the
    /// reliable transport paid on top of the logical volume.
    pub retransmit_wire_bytes: u64,
    /// Events carrying the wall-clock axis (`wall_ts`/`wall_dur`): 0
    /// for a legacy modeled-only trace, `events` for a fully dual-clock
    /// one. Both schemas are valid `gnn-trace/1`.
    pub wall_events: usize,
}

/// A validation failure, pointing at the offending line (1-based).
#[derive(Clone, Debug, PartialEq)]
pub struct ValidateError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ValidateError {}

fn fail(line: usize, msg: impl Into<String>) -> ValidateError {
    ValidateError {
        line,
        msg: msg.into(),
    }
}

const EVENT_FIELDS: &[&str] = &[
    "type",
    "rank",
    "seq",
    "parent",
    "epoch",
    "kind",
    "phase",
    "peer",
    "bytes_sent",
    "bytes_recv",
    "flops",
    "ts",
    "dur",
    "wall_ts",
    "wall_dur",
];

fn parse_header(line: &str) -> Result<(usize, usize), ValidateError> {
    let v = parse(line).map_err(|e| fail(1, e.to_string()))?;
    if v.get("type").and_then(Json::as_str) != Some("header") {
        return Err(fail(1, "first line must be the header object"));
    }
    match v.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA_VERSION => {}
        Some(s) => {
            return Err(fail(
                1,
                format!("unsupported schema {s:?} (expected {SCHEMA_VERSION:?})"),
            ))
        }
        None => return Err(fail(1, "header missing string field 'schema'")),
    }
    let p = v
        .get("p")
        .and_then(Json::as_u64)
        .ok_or_else(|| fail(1, "header missing integer field 'p'"))? as usize;
    let events = v
        .get("events")
        .and_then(Json::as_u64)
        .ok_or_else(|| fail(1, "header missing integer field 'events'"))? as usize;
    if p == 0 {
        return Err(fail(1, "header declares an empty world (p = 0)"));
    }
    Ok((p, events))
}

fn parse_event_line(lineno: usize, line: &str, p: usize) -> Result<Event, ValidateError> {
    let v = parse(line).map_err(|e| fail(lineno, e.to_string()))?;
    let obj = match &v {
        Json::Obj(m) => m,
        _ => return Err(fail(lineno, "event line is not a JSON object")),
    };
    for key in obj.keys() {
        if !EVENT_FIELDS.contains(&key.as_str()) {
            return Err(fail(lineno, format!("unknown field {key:?}")));
        }
    }
    if v.get("type").and_then(Json::as_str) != Some("event") {
        return Err(fail(lineno, "missing or wrong 'type' (expected \"event\")"));
    }
    let int = |key: &str| -> Result<u64, ValidateError> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| fail(lineno, format!("missing or non-integer field {key:?}")))
    };
    let rank = int("rank")?;
    if rank as usize >= p {
        return Err(fail(lineno, format!("rank {rank} out of range (p = {p})")));
    }
    let seq = int("seq")?;
    if seq > u32::MAX as u64 - 1 {
        return Err(fail(lineno, "seq out of range"));
    }
    let parent = match v.get("parent") {
        None => NO_PARENT,
        Some(j) => {
            let pv = j
                .as_u64()
                .ok_or_else(|| fail(lineno, "non-integer field \"parent\""))?;
            if pv >= seq {
                return Err(fail(
                    lineno,
                    format!("parent {pv} must precede seq {seq} (pre-order)"),
                ));
            }
            pv as u32
        }
    };
    let epoch = v
        .get("epoch")
        .and_then(Json::as_i64)
        .ok_or_else(|| fail(lineno, "missing or non-integer field \"epoch\""))?;
    if epoch < -1 {
        return Err(fail(lineno, format!("epoch {epoch} out of range (>= -1)")));
    }
    let kind_name = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(lineno, "missing string field \"kind\""))?;
    let kind = EventKind::from_name(kind_name)
        .ok_or_else(|| fail(lineno, format!("unknown kind {kind_name:?}")))?;
    let phase_name = v
        .get("phase")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(lineno, "missing string field \"phase\""))?;
    let phase = Phase::from_name(phase_name)
        .ok_or_else(|| fail(lineno, format!("unknown phase {phase_name:?}")))?;
    let peer = match v.get("peer") {
        None => NO_PEER,
        Some(j) => {
            let pv = j
                .as_i64()
                .ok_or_else(|| fail(lineno, "non-integer field \"peer\""))?;
            if pv < 0 || pv as usize >= p {
                return Err(fail(lineno, format!("peer {pv} out of range (p = {p})")));
            }
            pv as i32
        }
    };
    if kind.is_span() && peer != NO_PEER {
        return Err(fail(lineno, "span events cannot carry a peer"));
    }
    let opt_int = |key: &str| -> Result<u64, ValidateError> {
        match v.get(key) {
            None => Ok(0),
            Some(j) => j
                .as_u64()
                .ok_or_else(|| fail(lineno, format!("non-integer field {key:?}"))),
        }
    };
    let bytes_sent = opt_int("bytes_sent")?;
    let bytes_recv = opt_int("bytes_recv")?;
    let flops = opt_int("flops")?;
    let time = |key: &str| -> Result<f64, ValidateError> {
        let t = v
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| fail(lineno, format!("missing numeric field {key:?}")))?;
        if !t.is_finite() || t < 0.0 {
            return Err(fail(
                lineno,
                format!("field {key:?} must be finite and >= 0"),
            ));
        }
        Ok(t)
    };
    let t_start = time("ts")?;
    let dur = time("dur")?;
    // Dual-clock events carry both wall fields; legacy modeled-only
    // events carry neither. One without the other is malformed.
    let (t_wall, wall_dur) = match (v.get("wall_ts").is_some(), v.get("wall_dur").is_some()) {
        (true, true) => (time("wall_ts")?, time("wall_dur")?),
        (false, false) => (f64::NAN, f64::NAN),
        _ => {
            return Err(fail(
                lineno,
                "\"wall_ts\" and \"wall_dur\" must appear together",
            ))
        }
    };
    Ok(Event {
        seq: seq as u32,
        parent,
        rank: rank as u32,
        epoch,
        kind,
        phase,
        peer,
        bytes_sent,
        bytes_recv,
        flops,
        t_start,
        dur,
        t_wall,
        wall_dur,
    })
}

fn check_and_collect(input: &str) -> Result<(usize, TraceSummary, Vec<Event>), ValidateError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| fail(1, "empty input (no header line)"))?;
    let (p, declared) = parse_header(header)?;
    // The header's counts are held to the input before anything is
    // reserved: an event takes a line of its own, and a world of `p`
    // ranks reloads into `p` event lists, so `p` may not exceed the
    // input's bytes.
    let lines_left = lines.clone().count();
    if declared > lines_left {
        return Err(fail(
            1,
            format!("header declares {declared} events but {lines_left} lines follow"),
        ));
    }
    if p > input.len() {
        return Err(fail(
            1,
            format!("header declares p = {p}, more ranks than the trace has bytes"),
        ));
    }
    let mut events = Vec::with_capacity(declared);
    let mut summary = TraceSummary {
        p,
        max_epoch: -1,
        ..TraceSummary::default()
    };
    // Last seq per rank, for the ranks that appear.
    let mut last_seq: BTreeMap<u32, u32> = BTreeMap::new();
    for (i, line) in lines {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let e = parse_event_line(lineno, line, p)?;
        if let Some(prev) = last_seq.insert(e.rank, e.seq) {
            if e.seq <= prev {
                return Err(fail(
                    lineno,
                    format!(
                        "rank {} seq {} not strictly increasing (previous {})",
                        e.rank, e.seq, prev
                    ),
                ));
            }
        }
        if e.kind.is_span() {
            summary.spans += 1;
        } else {
            summary.ops += 1;
            let total = if e.kind == EventKind::Retransmit {
                &mut summary.retransmit_wire_bytes
            } else {
                &mut summary.logical_bytes_sent
            };
            *total = total.saturating_add(e.bytes_sent);
        }
        summary.max_epoch = summary.max_epoch.max(e.epoch);
        if e.has_wall() {
            summary.wall_events += 1;
        }
        events.push(e);
    }
    summary.events = events.len();
    if summary.events != declared {
        return Err(fail(
            1,
            format!(
                "header declares {declared} events but {} lines follow",
                summary.events
            ),
        ));
    }
    Ok((p, summary, events))
}

/// Validates a JSONL trace against the `gnn-trace/1` schema, returning
/// a summary of what it contains.
pub fn validate_jsonl(input: &str) -> Result<TraceSummary, ValidateError> {
    check_and_collect(input).map(|(_, summary, _)| summary)
}

/// Validates and reloads a JSONL trace into a [`WorldTrace`] for
/// offline reporting. The message-size histogram is not part of the
/// JSONL schema, so the reloaded trace carries an empty one.
pub fn parse_jsonl(input: &str) -> Result<WorldTrace, ValidateError> {
    let (p, _, events) = check_and_collect(input)?;
    let mut per_rank: Vec<Vec<Event>> = (0..p).map(|_| Vec::new()).collect();
    for e in events {
        per_rank[e.rank as usize].push(e);
    }
    for events in &mut per_rank {
        events.sort_by_key(|e| e.seq);
    }
    Ok(WorldTrace {
        per_rank,
        msg_sizes: Histogram::pow2_bytes(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::SpanKind;
    use crate::export::jsonl_string;
    use crate::recorder::RankTracer;

    fn sample() -> String {
        let mut t0 = RankTracer::new(0);
        t0.set_epoch(0);
        t0.begin_span(SpanKind::Epoch, Phase::Other);
        t0.op(EventKind::Send, Phase::P2p, Some(1), 64, 0, 0, 1e-4);
        t0.op(EventKind::Retransmit, Phase::P2p, Some(1), 64, 0, 0, 1e-4);
        t0.end_span();
        let mut t1 = RankTracer::new(1);
        t1.set_epoch(0);
        t1.op(EventKind::Recv, Phase::P2p, Some(0), 0, 64, 0, 1e-4);
        jsonl_string(&WorldTrace::collect(vec![t0, t1]))
    }

    #[test]
    fn accepts_exporter_output() {
        let s = sample();
        let summary = validate_jsonl(&s).unwrap();
        assert_eq!(summary.p, 2);
        assert_eq!(summary.events, 4);
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.ops, 3);
        assert_eq!(summary.max_epoch, 0);
        // Retransmit bytes are wire overhead, not logical volume.
        assert_eq!(summary.logical_bytes_sent, 64);
        assert_eq!(summary.retransmit_wire_bytes, 64);
    }

    #[test]
    fn reload_roundtrips_aggregates() {
        let s = sample();
        let trace = parse_jsonl(&s).unwrap();
        assert_eq!(trace.p(), 2);
        assert_eq!(trace.phase_bytes_total(Phase::P2p), 64);
        let roots = trace.span_tree(0);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].kind, SpanKind::Epoch);
        // Reload → re-export is byte identical (determinism survives a
        // round trip).
        assert_eq!(jsonl_string(&trace), s);
    }

    #[test]
    fn rejects_bad_schema_and_missing_header() {
        let bad = sample().replacen("gnn-trace/1", "gnn-trace/99", 1);
        let e = validate_jsonl(&bad).unwrap_err();
        assert!(e.msg.contains("unsupported schema"), "{e}");
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"type\":\"event\"}").is_err());
    }

    #[test]
    fn rejects_vocabulary_and_ordering_violations() {
        let good = sample();
        let bad_kind = good.replacen("\"kind\":\"send\"", "\"kind\":\"teleport\"", 1);
        assert!(validate_jsonl(&bad_kind)
            .unwrap_err()
            .msg
            .contains("unknown kind"));
        let bad_phase = good.replacen("\"phase\":\"p2p\"", "\"phase\":\"warp\"", 1);
        assert!(validate_jsonl(&bad_phase)
            .unwrap_err()
            .msg
            .contains("unknown phase"));
        // Event-count mismatch against the header.
        let truncated: String = good.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(validate_jsonl(&truncated)
            .unwrap_err()
            .msg
            .contains("declares"));
        // Duplicate seq on one rank.
        let mut lines: Vec<&str> = good.lines().collect();
        let dup = lines[2];
        lines.push(dup);
        let doubled: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(validate_jsonl(&doubled).is_err());
    }

    fn dual_sample() -> String {
        let mut t0 = RankTracer::with_wall_anchor(0, std::time::Instant::now());
        t0.set_epoch(0);
        t0.begin_span(SpanKind::Epoch, Phase::Other);
        t0.op(EventKind::Send, Phase::P2p, Some(1), 64, 0, 0, 1e-4);
        t0.end_span();
        let mut t1 = RankTracer::with_wall_anchor(1, std::time::Instant::now());
        t1.set_epoch(0);
        t1.op(EventKind::Recv, Phase::P2p, Some(0), 0, 64, 0, 1e-4);
        jsonl_string(&WorldTrace::collect(vec![t0, t1]))
    }

    #[test]
    fn accepts_both_legacy_and_dual_clock_schemas() {
        // Legacy modeled-only: valid, zero wall events.
        let legacy = sample();
        assert_eq!(validate_jsonl(&legacy).unwrap().wall_events, 0);
        // Dual-clock: valid under the same schema version, every event
        // stamped.
        let dual = dual_sample();
        let summary = validate_jsonl(&dual).unwrap();
        assert_eq!(summary.wall_events, summary.events);
        assert!(summary.events > 0);
    }

    #[test]
    fn dual_clock_reload_roundtrips_byte_identically() {
        let s = dual_sample();
        let trace = parse_jsonl(&s).unwrap();
        assert!(trace.has_wall());
        assert_eq!(jsonl_string(&trace), s);
    }

    #[test]
    fn rejects_half_present_wall_pair() {
        let dual = dual_sample();
        // Strip just one of the pair from the first event line.
        let lone = regex_like_strip(&dual, "\"wall_dur\":");
        let e = validate_jsonl(&lone).unwrap_err();
        assert!(e.msg.contains("must appear together"), "{e}");
    }

    /// Removes `key:value` (and its leading/trailing comma as needed)
    /// from the first event line containing it — a tiny helper so the
    /// test doesn't need a JSON rewriter.
    fn regex_like_strip(input: &str, key: &str) -> String {
        let mut out = Vec::new();
        let mut done = false;
        for line in input.lines() {
            if !done {
                if let Some(start) = line.find(key) {
                    let rest = &line[start..];
                    let end = rest
                        .find(['}', ','])
                        .map(|i| start + i)
                        .unwrap_or(line.len());
                    // Also eat the separator before the pair.
                    let pre = line[..start].trim_end_matches(',').len();
                    out.push(format!("{}{}", &line[..pre], &line[end..]));
                    done = true;
                    continue;
                }
            }
            out.push(line.to_string());
        }
        out.join("\n") + "\n"
    }

    /// Every maximal run of ASCII digits in `s`, as byte ranges.
    pub(crate) fn digit_runs(s: &str) -> Vec<std::ops::Range<usize>> {
        let b = s.as_bytes();
        let mut runs = Vec::new();
        let mut i = 0;
        while i < b.len() {
            if b[i].is_ascii_digit() {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                runs.push(start..i);
            } else {
                i += 1;
            }
        }
        runs
    }

    /// Both readers on hostile text: an `Err` or a trace no bigger than
    /// the text — no panic, no world or event list the bytes cannot hold.
    fn read_hostile(text: &str) -> bool {
        let summary = validate_jsonl(text);
        let reloaded = parse_jsonl(text);
        assert_eq!(summary.is_ok(), reloaded.is_ok(), "{text}");
        if let Ok(summary) = summary {
            assert!(summary.p <= text.len(), "p = {} from {text}", summary.p);
            assert!(summary.events <= text.lines().count(), "{text}");
        }
        reloaded.is_ok()
    }

    #[test]
    fn hostile_header_counts_are_errors_not_aborts() {
        let good = sample();
        let (header, body) = good.split_once('\n').unwrap();
        for (field, at) in [("events", "\"events\":4"), ("p", "\"p\":2")] {
            assert!(header.contains(at), "{field}");
            for lie in ["100000000000000", "8000000000000000"] {
                let bad = format!(
                    "{}\n{body}",
                    header.replace(at, &format!("\"{field}\":{lie}"))
                );
                let e = validate_jsonl(&bad).unwrap_err();
                assert!(e.msg.contains("header declares"), "{field}={lie}: {e}");
                assert!(parse_jsonl(&bad).is_err(), "{field}={lie}");
            }
        }
    }

    #[test]
    fn mutated_traces_never_panic_or_over_reserve() {
        for good in [sample(), dual_sample()] {
            assert!(read_hostile(&good));
            // Every truncation fails but the one that drops only the
            // final newline.
            for cut in 0..good.len() - 1 {
                if good.is_char_boundary(cut) {
                    assert!(!read_hostile(&good[..cut]), "cut at {cut}");
                }
            }
            for at in 0..good.len() {
                for flip in [0x01, 0x80, 0xff] {
                    let mut bad = good.clone().into_bytes();
                    bad[at] ^= flip;
                    if let Ok(bad) = String::from_utf8(bad) {
                        read_hostile(&bad);
                    }
                }
            }
            let header_end = good.find('\n').unwrap();
            for run in digit_runs(&good) {
                let splice = |lie: &str| format!("{}{lie}{}", &good[..run.start], &good[run.end..]);
                for lie in ["100000000000000", "99999999999999999999999"] {
                    let ok = read_hostile(&splice(lie));
                    // Header counts must fit the text; a huge time or
                    // byte count on an event line is merely unusual.
                    assert!(!(ok && run.start < header_end), "{}", splice(lie));
                }
                for lie in ["-100000000000000", "-99999999999999999999999"] {
                    assert!(!read_hostile(&splice(lie)), "{}", splice(lie));
                }
            }
        }
    }

    #[test]
    fn rejects_unknown_fields_and_negative_times() {
        let good = sample();
        let extra = good.replacen("\"ts\":", "\"surprise\":1,\"ts\":", 1);
        assert!(validate_jsonl(&extra)
            .unwrap_err()
            .msg
            .contains("unknown field"));
        let negative = good.replacen("\"dur\":0.0001", "\"dur\":-1", 1);
        assert!(validate_jsonl(&negative).is_err());
    }
}
