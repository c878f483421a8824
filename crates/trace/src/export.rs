//! Trace exporters: JSONL event logs, Chrome `trace_event` JSON
//! (loadable in `chrome://tracing` / Perfetto), and a per-epoch text
//! timeline.
//!
//! All exporters are deterministic functions of the trace: events are
//! emitted in `(rank, seq)` order and numbers use Rust's
//! shortest-roundtrip formatting. For modeled-only traces no wall time
//! ever reaches an exported field, so two runs of the seeded simulator
//! produce byte-identical artifacts; dual-clock traces additionally
//! carry `wall_ts`/`wall_dur` per event (deterministic given the same
//! recorded trace, but not across runs — wall time is measured).

use std::fmt::Write as _;

use crate::event::{Event, NO_PARENT, NO_PEER};
use crate::json::{fmt_f64, quote};
use crate::phase::{Phase, PHASES};
use crate::recorder::WorldTrace;
use crate::SCHEMA_VERSION;

/// Renders a trace as JSONL: a header line
/// `{"type":"header","schema":…,"p":…,"events":…}` followed by one
/// event object per line in `(rank, seq)` order.
pub fn jsonl_string(trace: &WorldTrace) -> String {
    let mut out = String::with_capacity(128 + trace.len() * 160);
    let _ = writeln!(
        out,
        "{{\"type\":\"header\",\"schema\":{},\"p\":{},\"events\":{}}}",
        quote(SCHEMA_VERSION),
        trace.p(),
        trace.len()
    );
    for events in &trace.per_rank {
        for e in events {
            write_event_json(&mut out, e);
            out.push('\n');
        }
    }
    out
}

fn write_event_json(out: &mut String, e: &Event) {
    let _ = write!(
        out,
        "{{\"type\":\"event\",\"rank\":{},\"seq\":{},",
        e.rank, e.seq
    );
    if e.parent != NO_PARENT {
        let _ = write!(out, "\"parent\":{},", e.parent);
    }
    let _ = write!(
        out,
        "\"epoch\":{},\"kind\":{},\"phase\":{},",
        e.epoch,
        quote(e.kind.name()),
        quote(e.phase.name())
    );
    if e.peer != NO_PEER {
        let _ = write!(out, "\"peer\":{},", e.peer);
    }
    if e.bytes_sent > 0 {
        let _ = write!(out, "\"bytes_sent\":{},", e.bytes_sent);
    }
    if e.bytes_recv > 0 {
        let _ = write!(out, "\"bytes_recv\":{},", e.bytes_recv);
    }
    if e.flops > 0 {
        let _ = write!(out, "\"flops\":{},", e.flops);
    }
    let _ = write!(
        out,
        "\"ts\":{},\"dur\":{}",
        fmt_f64(e.t_start),
        fmt_f64(e.dur)
    );
    // Wall fields only exist on dual-clock traces; omitting them keeps
    // modeled-only golden artifacts byte-identical to the legacy schema.
    if e.has_wall() {
        let _ = write!(
            out,
            ",\"wall_ts\":{},\"wall_dur\":{}",
            fmt_f64(e.t_wall),
            fmt_f64(e.wall_dur)
        );
    }
    out.push('}');
}

/// Renders a trace as Chrome `trace_event` JSON (the "JSON Array
/// Format" with a `traceEvents` wrapper). Open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>: each rank appears
/// as a thread, spans and ops as nested slices on the modeled-time
/// axis (microseconds).
pub fn chrome_trace_string(trace: &WorldTrace) -> String {
    chrome_string(trace, Axis::Modeled)
}

/// Renders a dual-clock trace as Chrome `trace_event` JSON on the
/// **wall-clock** axis: slice positions and durations come from
/// `wall_ts`/`wall_dur` (microseconds), with the modeled numbers kept
/// in each slice's `args`. Events without wall stamps (legacy
/// modeled-only inputs mixed into a merge) are skipped. This is the
/// exporter behind `trace-report --merge`: after per-rank clock offsets
/// are applied, every rank's slices share one aligned time base.
pub fn chrome_trace_string_wall(trace: &WorldTrace) -> String {
    chrome_string(trace, Axis::Wall)
}

/// The clock a Chrome export lays its slices out on; the other clock,
/// when the event has it, rides along in the slice's `args`.
#[derive(Clone, Copy, PartialEq)]
enum Axis {
    Modeled,
    Wall,
}

fn chrome_string(trace: &WorldTrace, axis: Axis) -> String {
    let mut out = String::with_capacity(256 + trace.len() * 192);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };
    for rank in 0..trace.p() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        );
    }
    for events in &trace.per_rank {
        for e in events {
            if axis == Axis::Wall && !e.has_wall() {
                continue;
            }
            sep(&mut out);
            write_chrome_event(&mut out, e, axis);
        }
    }
    out.push_str("\n]}\n");
    out
}

fn write_chrome_event(out: &mut String, e: &Event, axis: Axis) {
    let (ts, dur) = match axis {
        Axis::Modeled => (e.t_start, e.dur),
        Axis::Wall => (e.t_wall, e.wall_dur),
    };
    // Complete ("X") slices for everything with duration; instant
    // ("i") marks for zero-duration ops (barriers, unpriced gathers).
    let (name, cat) = (quote(e.kind.name()), quote(e.phase.name()));
    if dur > 0.0 || e.kind.is_span() {
        let _ = write!(
            out,
            "{{\"name\":{name},\"cat\":{cat},\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}",
            e.rank,
            fmt_f64(ts * 1e6),
            fmt_f64(dur * 1e6)
        );
    } else {
        let _ = write!(
            out,
            "{{\"name\":{name},\"cat\":{cat},\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{}",
            e.rank,
            fmt_f64(ts * 1e6)
        );
    }
    let _ = write!(out, ",\"args\":{{\"epoch\":{}", e.epoch);
    if axis == Axis::Wall {
        let _ = write!(
            out,
            ",\"modeled_ts\":{},\"modeled_dur\":{}",
            fmt_f64(e.t_start),
            fmt_f64(e.dur)
        );
    }
    if e.peer != NO_PEER {
        let _ = write!(out, ",\"peer\":{}", e.peer);
    }
    if e.bytes_sent > 0 {
        let _ = write!(out, ",\"bytes_sent\":{}", e.bytes_sent);
    }
    if e.bytes_recv > 0 {
        let _ = write!(out, ",\"bytes_recv\":{}", e.bytes_recv);
    }
    if e.flops > 0 {
        let _ = write!(out, ",\"flops\":{}", e.flops);
    }
    if axis == Axis::Modeled && e.has_wall() {
        let _ = write!(
            out,
            ",\"wall_ts\":{},\"wall_dur\":{}",
            fmt_f64(e.t_wall),
            fmt_f64(e.wall_dur)
        );
    }
    out.push_str("}}");
}

/// Renders a per-epoch text timeline: for every epoch, one line per
/// rank with its per-phase modeled milliseconds and send volume, the
/// bottleneck rank marked `◀ max`.
pub fn text_timeline(trace: &WorldTrace) -> String {
    let mut out = String::new();
    let max_epoch = trace.max_epoch();
    let _ = writeln!(
        out,
        "trace timeline: {} rank(s), {} event(s), epochs 0..={max_epoch}",
        trace.p(),
        trace.len()
    );
    let wall = trace.has_wall();
    for epoch in 0..=max_epoch.max(-1) {
        if max_epoch < 0 {
            break;
        }
        let _ = writeln!(out, "epoch {epoch}");
        let _ = write!(
            out,
            "  {:>4}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            "rank", "total ms", "compute ms", "comm ms", "sent KB", "recv KB"
        );
        if wall {
            let _ = write!(out, "  {:>10}", "wall ms");
        }
        out.push('\n');
        let mut worst = (0usize, f64::MIN);
        let rows: Vec<_> = (0..trace.p())
            .map(|r| {
                let agg = trace.phase_aggregates(r, Some(epoch));
                let total: f64 = agg.iter().map(|a| a.seconds).sum();
                let compute = agg[Phase::LocalCompute.index()].seconds;
                let sent: u64 = agg.iter().map(|a| a.bytes_sent).sum();
                let recv: u64 = agg.iter().map(|a| a.bytes_recv).sum();
                let wall_total: f64 = agg.iter().map(|a| a.wall_seconds).sum();
                if total > worst.1 {
                    worst = (r, total);
                }
                (r, total, compute, sent, recv, wall_total)
            })
            .collect();
        for (r, total, compute, sent, recv, wall_total) in rows {
            let _ = write!(
                out,
                "  {:>4}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.1}  {:>10.1}",
                r,
                total * 1e3,
                compute * 1e3,
                (total - compute) * 1e3,
                sent as f64 / 1024.0,
                recv as f64 / 1024.0,
            );
            if wall {
                let _ = write!(out, "  {:>10.3}", wall_total * 1e3);
            }
            let _ = writeln!(out, "{}", if r == worst.0 { "  ◀ max" } else { "" });
        }
    }
    let mut any = false;
    for p in PHASES {
        let b = trace.phase_bytes_total(p);
        if b > 0 {
            if !any {
                let _ = writeln!(out, "phase volumes (all ranks, all epochs):");
                any = true;
            }
            let _ = writeln!(out, "  {:<14} {:>12} bytes", p.name(), b);
        }
    }
    out
}

/// Writes one of the exporter outputs to a file, creating parent
/// directories as needed.
pub fn write_to_file(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SpanKind};
    use crate::recorder::RankTracer;

    fn tiny_trace() -> WorldTrace {
        let mut t0 = RankTracer::new(0);
        t0.set_epoch(0);
        t0.begin_span(SpanKind::Epoch, Phase::Other);
        t0.op(EventKind::Send, Phase::P2p, Some(1), 64, 0, 0, 1e-4);
        t0.op(EventKind::Barrier, Phase::Other, None, 0, 0, 0, 0.0);
        t0.end_span();
        let mut t1 = RankTracer::new(1);
        t1.set_epoch(0);
        t1.op(EventKind::Recv, Phase::P2p, Some(0), 0, 64, 0, 1e-4);
        WorldTrace::collect(vec![t0, t1])
    }

    #[test]
    fn jsonl_every_line_parses() {
        let s = jsonl_string(&tiny_trace());
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 1 + 4); // header + 3 rank-0 events + 1 recv
        let header = crate::json::parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(SCHEMA_VERSION));
        assert_eq!(header.get("p").unwrap().as_u64(), Some(2));
        for line in &lines[1..] {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("type").unwrap().as_str(), Some("event"));
            assert!(v.get("kind").is_some() && v.get("ts").is_some());
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_thread_names() {
        let s = chrome_trace_string(&tiny_trace());
        let v = crate::json::parse(&s).unwrap();
        let evs = match v.get("traceEvents").unwrap() {
            crate::json::Json::Arr(a) => a,
            other => panic!("{other:?}"),
        };
        // 2 thread_name metadata + 3 rank-0 + 1 rank-1 events.
        assert_eq!(evs.len(), 6);
        assert!(evs
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("M")));
        // Zero-duration barrier becomes an instant event.
        assert!(evs
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("i")));
    }

    #[test]
    fn text_timeline_marks_bottleneck() {
        let s = text_timeline(&tiny_trace());
        assert!(s.contains("epoch 0"), "{s}");
        assert!(s.contains("◀ max"), "{s}");
        assert!(s.contains("p2p"), "{s}");
    }

    fn dual_trace() -> WorldTrace {
        let mut t0 = RankTracer::with_wall_anchor(0, std::time::Instant::now());
        t0.set_epoch(0);
        t0.begin_span(SpanKind::Epoch, Phase::Other);
        t0.op(EventKind::Send, Phase::P2p, Some(1), 64, 0, 0, 1e-4);
        t0.end_span();
        let mut t1 = RankTracer::with_wall_anchor(1, std::time::Instant::now());
        t1.set_epoch(0);
        t1.op(EventKind::Recv, Phase::P2p, Some(0), 0, 64, 0, 1e-4);
        WorldTrace::collect(vec![t0, t1])
    }

    #[test]
    fn modeled_only_jsonl_has_no_wall_fields() {
        let s = jsonl_string(&tiny_trace());
        assert!(!s.contains("wall_ts") && !s.contains("wall_dur"), "{s}");
    }

    #[test]
    fn dual_clock_jsonl_carries_wall_fields_on_every_event() {
        let s = jsonl_string(&dual_trace());
        for line in s.lines().skip(1) {
            let v = crate::json::parse(line).unwrap();
            assert!(v.get("wall_ts").is_some(), "{line}");
            assert!(v.get("wall_dur").is_some(), "{line}");
            // The modeled axis still leads the pair.
            assert!(v.get("ts").is_some() && v.get("dur").is_some());
        }
    }

    #[test]
    fn wall_chrome_export_is_valid_json_on_wall_axis() {
        let trace = dual_trace();
        let s = chrome_trace_string_wall(&trace);
        let v = crate::json::parse(&s).unwrap();
        let evs = match v.get("traceEvents").unwrap() {
            crate::json::Json::Arr(a) => a,
            other => panic!("{other:?}"),
        };
        // 2 thread_name metadata + 2 rank-0 + 1 rank-1 events.
        assert_eq!(evs.len(), 5);
        for e in evs.iter().filter(|e| e.get("cat").is_some()) {
            let args = e.get("args").unwrap();
            assert!(args.get("modeled_ts").is_some());
        }
        // Modeled-only events are skipped rather than exported at ts 0.
        let legacy = chrome_trace_string_wall(&tiny_trace());
        let v = crate::json::parse(&legacy).unwrap();
        let evs = match v.get("traceEvents").unwrap() {
            crate::json::Json::Arr(a) => a,
            other => panic!("{other:?}"),
        };
        assert!(evs
            .iter()
            .all(|e| e.get("ph").unwrap().as_str() == Some("M")));
    }

    #[test]
    fn timeline_gains_wall_column_only_for_dual_clock_traces() {
        assert!(!text_timeline(&tiny_trace()).contains("wall ms"));
        assert!(text_timeline(&dual_trace()).contains("wall ms"));
    }

    /// A dual-clock trace with fixed wall stamps: one event on each
    /// chrome form (slice, instant), every optional arg, and one event
    /// without wall stamps, which the wall axis skips.
    fn fixed_dual_trace() -> WorldTrace {
        let mut t0 = RankTracer::new(0);
        t0.set_epoch(2);
        t0.begin_span(SpanKind::Epoch, Phase::Other);
        t0.op(EventKind::Send, Phase::P2p, Some(1), 64, 0, 0, 1e-4);
        t0.op(
            EventKind::Compute,
            Phase::LocalCompute,
            None,
            0,
            0,
            4096,
            3e-5,
        );
        t0.op(EventKind::Barrier, Phase::Other, None, 0, 0, 0, 0.0);
        t0.end_span();
        let mut t1 = RankTracer::new(1);
        t1.set_epoch(2);
        t1.op(EventKind::Recv, Phase::P2p, Some(0), 0, 64, 0, 1e-4);
        let mut trace = WorldTrace::collect(vec![t0, t1]);
        let wall = [(0.5, 0.25), (0.5, 1e-4 / 3.0), (0.625, 0.0)];
        for (e, (ts, dur)) in trace.per_rank[0].iter_mut().zip(wall) {
            (e.t_wall, e.wall_dur) = (ts, dur);
        }
        trace.per_rank[1][0].t_wall = 0.75;
        trace.per_rank[1][0].wall_dur = 2e-4;
        trace
    }

    const PINNED_MODELED: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"rank 1"}},
{"name":"epoch","cat":"other","ph":"X","pid":0,"tid":0,"ts":0,"dur":130.00000000000003,"args":{"epoch":2,"bytes_sent":64,"flops":4096,"wall_ts":0.5,"wall_dur":0.25}},
{"name":"send","cat":"p2p","ph":"X","pid":0,"tid":0,"ts":0,"dur":100,"args":{"epoch":2,"peer":1,"bytes_sent":64,"wall_ts":0.5,"wall_dur":0.000033333333333333335}},
{"name":"compute","cat":"local_compute","ph":"X","pid":0,"tid":0,"ts":100,"dur":30,"args":{"epoch":2,"flops":4096,"wall_ts":0.625,"wall_dur":0}},
{"name":"barrier","cat":"other","ph":"i","s":"t","pid":0,"tid":0,"ts":130.00000000000003,"args":{"epoch":2}},
{"name":"recv","cat":"p2p","ph":"X","pid":0,"tid":1,"ts":0,"dur":100,"args":{"epoch":2,"peer":0,"bytes_recv":64,"wall_ts":0.75,"wall_dur":0.0002}}
]}
"#;

    const PINNED_WALL: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"rank 1"}},
{"name":"epoch","cat":"other","ph":"X","pid":0,"tid":0,"ts":500000,"dur":250000,"args":{"epoch":2,"modeled_ts":0,"modeled_dur":0.00013000000000000002,"bytes_sent":64,"flops":4096}},
{"name":"send","cat":"p2p","ph":"X","pid":0,"tid":0,"ts":500000,"dur":33.333333333333336,"args":{"epoch":2,"modeled_ts":0,"modeled_dur":0.0001,"peer":1,"bytes_sent":64}},
{"name":"compute","cat":"local_compute","ph":"i","s":"t","pid":0,"tid":0,"ts":625000,"args":{"epoch":2,"modeled_ts":0.0001,"modeled_dur":0.00003,"flops":4096}},
{"name":"recv","cat":"p2p","ph":"X","pid":0,"tid":1,"ts":750000,"dur":200,"args":{"epoch":2,"modeled_ts":0,"modeled_dur":0.0001,"peer":0,"bytes_recv":64}}
]}
"#;

    /// Both Chrome axes render the fixed trace byte for byte as they
    /// always have.
    #[test]
    fn chrome_exports_of_a_fixed_dual_clock_trace_are_pinned() {
        let trace = fixed_dual_trace();
        assert_eq!(chrome_trace_string(&trace), PINNED_MODELED);
        assert_eq!(chrome_trace_string_wall(&trace), PINNED_WALL);
    }

    #[test]
    fn exports_are_deterministic() {
        let a = jsonl_string(&tiny_trace());
        let b = jsonl_string(&tiny_trace());
        assert_eq!(a, b);
        assert_eq!(
            chrome_trace_string(&tiny_trace()),
            chrome_trace_string(&tiny_trace())
        );
    }
}
