//! Cross-process trace merging with clock-offset correction.
//!
//! The process backend writes one JSONL trace per rank, each stamped on
//! that process's own monotonic clock (seconds since its transport
//! anchor). Rank 0 estimates every peer's clock offset during the
//! rendezvous handshake (NTP-style request/reply midpoint; see
//! `gnn-comm`'s proc transport) and publishes a `clock-offsets.json`
//! sidecar. This module stitches the per-rank files back into one
//! [`WorldTrace`] on a single aligned wall axis:
//!
//! 1. [`merge_world`] — union per-rank event lists (each input file
//!    contributes the ranks it recorded; no rank may appear twice).
//! 2. [`apply_offsets`] — convert every wall timestamp onto rank 0's
//!    clock: `aligned = wall − offset[rank]`, where
//!    `offset[r] = anchor_0 − anchor_r` in true time (rank 0's own
//!    offset is 0 by construction).
//! 3. [`normalize_wall`] — shift the whole aligned axis so the earliest
//!    event starts at 0, restoring the schema's `wall_ts ≥ 0`
//!    invariant regardless of which rank's anchor came first.
//!
//! Merge invariants: the modeled axis is untouched (offsets apply to
//! wall fields only), per-rank wall timelines stay monotonic (a shared
//! shift per rank preserves order), and the pipeline is a deterministic
//! function of its inputs — same per-rank files + same sidecar ⇒
//! byte-identical merged artifact.

use crate::json::{fmt_f64, parse, Json};
use crate::metrics::Histogram;
use crate::recorder::WorldTrace;
use crate::SCHEMA_VERSION;

/// Unions per-rank event lists from several partial traces (typically
/// one file per rank). Every input must declare the same world size;
/// each rank's events may come from at most one input.
pub fn merge_world(traces: Vec<WorldTrace>) -> Result<WorldTrace, String> {
    let mut it = traces.into_iter();
    let first = it.next().ok_or("nothing to merge (no input traces)")?;
    let p = first.p();
    let mut merged = first;
    for (i, t) in it.enumerate() {
        if t.p() != p {
            return Err(format!(
                "world-size mismatch: input {} declares p={}, expected p={p}",
                i + 2,
                t.p()
            ));
        }
        for (rank, events) in t.per_rank.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            if !merged.per_rank[rank].is_empty() {
                return Err(format!("rank {rank} appears in more than one input trace"));
            }
            merged.per_rank[rank] = events;
        }
        merged.msg_sizes.merge(&t.msg_sizes);
    }
    Ok(merged)
}

/// Rewrites every wall timestamp onto rank 0's clock axis:
/// `t_wall ← t_wall − offsets[rank]`. Modeled times and wall durations
/// are untouched (durations are offset-invariant). Events without wall
/// stamps pass through unchanged.
pub fn apply_offsets(trace: &mut WorldTrace, offsets: &[f64]) -> Result<(), String> {
    if offsets.len() != trace.p() {
        return Err(format!(
            "{} offset(s) for {} rank(s)",
            offsets.len(),
            trace.p()
        ));
    }
    if let Some(bad) = offsets.iter().find(|o| !o.is_finite()) {
        return Err(format!("non-finite clock offset {bad}"));
    }
    for (rank, events) in trace.per_rank.iter_mut().enumerate() {
        let off = offsets[rank];
        for e in events.iter_mut() {
            if e.has_wall() {
                e.t_wall -= off;
            }
        }
    }
    Ok(())
}

/// Shifts all wall timestamps so the earliest one is exactly 0. A
/// no-op on traces without wall stamps. Returns the shift applied
/// (subtracted from every `wall_ts`).
pub fn normalize_wall(trace: &mut WorldTrace) -> f64 {
    let mut min = f64::INFINITY;
    for e in trace.per_rank.iter().flatten() {
        if e.has_wall() && e.t_wall < min {
            min = e.t_wall;
        }
    }
    if !min.is_finite() {
        return 0.0;
    }
    for events in trace.per_rank.iter_mut() {
        for e in events.iter_mut() {
            if e.has_wall() {
                e.t_wall -= min;
            }
        }
    }
    min
}

/// The whole pipeline: union the inputs, align onto rank 0's clock,
/// and normalize the origin. Pass `None` for `offsets` to merge
/// without correction (all anchors assumed equal — fine for a
/// single-file "merge" or thread-backend traces).
pub fn merge_aligned(
    traces: Vec<WorldTrace>,
    offsets: Option<&[f64]>,
) -> Result<WorldTrace, String> {
    let mut merged = merge_world(traces)?;
    if let Some(offsets) = offsets {
        apply_offsets(&mut merged, offsets)?;
    }
    normalize_wall(&mut merged);
    Ok(merged)
}

/// Renders the clock-offset sidecar:
/// `{"schema":…,"type":"clock-offsets","p":N,"offsets":[…]}` (seconds;
/// entry r is rank r's anchor lead over rank 0, so rank 0's is 0).
pub fn offsets_json(offsets: &[f64]) -> String {
    let mut out = String::with_capacity(64 + offsets.len() * 24);
    out.push_str(&format!(
        "{{\"schema\":\"{SCHEMA_VERSION}\",\"type\":\"clock-offsets\",\"p\":{},\"offsets\":[",
        offsets.len()
    ));
    for (i, o) in offsets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(*o));
    }
    out.push_str("]}\n");
    out
}

/// Parses the [`offsets_json`] sidecar back into per-rank offsets.
pub fn parse_offsets_json(s: &str) -> Result<Vec<f64>, String> {
    let v = parse(s.trim()).map_err(|e| format!("clock-offsets sidecar: {e}"))?;
    match v.get("schema").and_then(Json::as_str) {
        Some(sv) if sv == SCHEMA_VERSION => {}
        other => return Err(format!("clock-offsets sidecar: bad schema {other:?}")),
    }
    if v.get("type").and_then(Json::as_str) != Some("clock-offsets") {
        return Err("clock-offsets sidecar: missing type \"clock-offsets\"".into());
    }
    let p = v
        .get("p")
        .and_then(Json::as_u64)
        .ok_or("clock-offsets sidecar: missing integer field 'p'")? as usize;
    let arr = match v.get("offsets") {
        Some(Json::Arr(a)) => a,
        _ => return Err("clock-offsets sidecar: missing array field 'offsets'".into()),
    };
    if arr.len() != p {
        return Err(format!(
            "clock-offsets sidecar: {} offset(s) for p={p}",
            arr.len()
        ));
    }
    let mut out = Vec::with_capacity(p);
    for (i, j) in arr.iter().enumerate() {
        let o = j
            .as_f64()
            .ok_or_else(|| format!("clock-offsets sidecar: offset {i} is not a number"))?;
        if !o.is_finite() {
            return Err(format!("clock-offsets sidecar: offset {i} is not finite"));
        }
        out.push(o);
    }
    Ok(out)
}

/// A single-rank partial [`WorldTrace`]: rank `rank`'s events in a
/// world of `p` (the shape each per-rank trace file loads into).
pub fn single_rank_trace(p: usize, rank: usize, events: Vec<crate::Event>) -> WorldTrace {
    assert!(rank < p, "rank {rank} out of range (p={p})");
    let mut per_rank: Vec<Vec<crate::Event>> = (0..p).map(|_| Vec::new()).collect();
    per_rank[rank] = events;
    WorldTrace {
        per_rank,
        msg_sizes: Histogram::pow2_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, NO_PARENT, NO_PEER};
    use crate::export::jsonl_string;
    use crate::phase::Phase;

    /// An op event with explicit wall stamps (what a dual-clock rank
    /// with a skewed anchor would have recorded).
    fn ev(rank: u32, seq: u32, t: f64, wall: f64) -> Event {
        Event {
            seq,
            parent: NO_PARENT,
            rank,
            epoch: 0,
            kind: EventKind::Send,
            phase: Phase::P2p,
            peer: NO_PEER,
            bytes_sent: 8,
            bytes_recv: 0,
            flops: 0,
            t_start: t,
            dur: 0.001,
            t_wall: wall,
            wall_dur: 0.002,
        }
    }

    /// Three ranks whose anchors are skewed by known amounts; the true
    /// wall times interleave across ranks.
    fn skewed_inputs() -> (Vec<WorldTrace>, Vec<f64>) {
        // True event times (rank 0's axis): rank r fires at 0.01*r,
        // then 0.1 + 0.01*r. Rank r's anchor leads rank 0's by skew[r],
        // so its local reading is true + skew[r]... with
        // offset[r] = anchor_0 − anchor_r = skew[r] as estimated by the
        // rendezvous exchange.
        let skew = [0.0, 0.25, -0.125];
        let traces = (0..3u32)
            .map(|r| {
                let s = skew[r as usize];
                single_rank_trace(
                    3,
                    r as usize,
                    vec![
                        ev(r, 0, 0.0, 0.01 * f64::from(r) + s),
                        ev(r, 1, 0.001, 0.1 + 0.01 * f64::from(r) + s),
                    ],
                )
            })
            .collect();
        (traces, skew.to_vec())
    }

    #[test]
    fn merge_unions_ranks_and_rejects_duplicates() {
        let (traces, _) = skewed_inputs();
        let merged = merge_world(traces).unwrap();
        assert_eq!(merged.p(), 3);
        assert_eq!(merged.len(), 6);
        // The same rank twice is an error.
        let dup = vec![
            single_rank_trace(2, 0, vec![ev(0, 0, 0.0, 0.0)]),
            single_rank_trace(2, 0, vec![ev(0, 1, 0.0, 0.0)]),
        ];
        assert!(merge_world(dup).unwrap_err().contains("more than one"));
        // Mismatched world sizes are an error.
        let bad = vec![
            single_rank_trace(2, 0, vec![ev(0, 0, 0.0, 0.0)]),
            single_rank_trace(3, 1, vec![ev(1, 0, 0.0, 0.0)]),
        ];
        assert!(merge_world(bad).unwrap_err().contains("mismatch"));
    }

    #[test]
    fn offsets_align_skewed_clocks_onto_one_axis() {
        let (traces, skew) = skewed_inputs();
        let merged = merge_aligned(traces, Some(&skew)).unwrap();
        // After correction + normalization the true interleaving is
        // recovered: rank 0 at 0.00/0.10, rank 1 at 0.01/0.11, rank 2
        // at 0.02/0.12 — with the global min shifted to exactly 0.
        assert_eq!(merged.per_rank[0][0].t_wall, 0.0);
        for r in 0..3 {
            let evs = &merged.per_rank[r];
            assert!((evs[0].t_wall - 0.01 * r as f64).abs() < 1e-12, "rank {r}");
            assert!(
                (evs[1].t_wall - (0.1 + 0.01 * r as f64)).abs() < 1e-12,
                "rank {r}"
            );
            // Monotonic per rank (offset shifts preserve order).
            assert!(evs[0].t_wall < evs[1].t_wall);
            // Non-negative: safe for the schema validator.
            assert!(evs[0].t_wall >= 0.0);
        }
    }

    #[test]
    fn merge_is_deterministic_given_fixed_inputs() {
        let (a, skew) = skewed_inputs();
        let (b, _) = skewed_inputs();
        let m1 = merge_aligned(a, Some(&skew)).unwrap();
        let m2 = merge_aligned(b, Some(&skew)).unwrap();
        assert_eq!(jsonl_string(&m1), jsonl_string(&m2));
    }

    #[test]
    fn offsets_sidecar_roundtrips() {
        let offsets = vec![0.0, 1.5e-3, -2.25e-4, 7.0];
        let s = offsets_json(&offsets);
        let back = parse_offsets_json(&s).unwrap();
        assert_eq!(offsets, back);
        assert!(parse_offsets_json("{}").is_err());
        let short = s.replacen("\"p\":4", "\"p\":5", 1);
        assert!(parse_offsets_json(&short).is_err());
    }

    #[test]
    fn mutated_offsets_sidecars_never_panic_or_over_reserve() {
        let good = offsets_json(&[0.0, 1.5e-3, -2.25e-4, 7.0]);
        // An `Ok` holds one offset per number the text spells out.
        let read = |text: &str| match parse_offsets_json(text) {
            Ok(offsets) => {
                assert!(offsets.len() <= text.len(), "{text}");
                true
            }
            Err(_) => false,
        };
        assert!(read(&good));
        for cut in 0..good.len() - 1 {
            assert!(!read(&good[..cut]), "cut at {cut}");
        }
        for at in 0..good.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = good.clone().into_bytes();
                bad[at] ^= flip;
                if let Ok(bad) = String::from_utf8(bad) {
                    read(&bad);
                }
            }
        }
        let p_at = good.find("\"p\":").unwrap() + 4;
        for run in crate::validate::tests::digit_runs(&good) {
            let splice = |lie: &str| format!("{}{lie}{}", &good[..run.start], &good[run.end..]);
            for lie in ["100000000000000", "99999999999999999999999"] {
                // A world size the array does not match is an error; a
                // huge offset is merely unusual.
                assert!(
                    !(read(&splice(lie)) && run.start == p_at),
                    "{}",
                    splice(lie)
                );
            }
            for lie in ["-100000000000000", "-99999999999999999999999"] {
                // A negative offset is legal; a negative count is not.
                assert!(
                    !(read(&splice(lie)) && run.start == p_at),
                    "{}",
                    splice(lie)
                );
            }
        }
    }

    #[test]
    fn offset_pipeline_ignores_modeled_only_events() {
        let mut legacy = ev(0, 0, 0.5, 0.0);
        legacy.t_wall = f64::NAN;
        legacy.wall_dur = f64::NAN;
        let traces = vec![
            single_rank_trace(2, 0, vec![legacy]),
            single_rank_trace(2, 1, vec![ev(1, 0, 0.25, 3.0)]),
        ];
        let merged = merge_aligned(traces, Some(&[0.0, 1.0])).unwrap();
        // Modeled axis untouched; legacy event still wall-less.
        assert_eq!(merged.per_rank[0][0].t_start, 0.5);
        assert!(!merged.per_rank[0][0].has_wall());
        // The one wall event aligns (3.0 − 1.0) then normalizes to 0.
        assert_eq!(merged.per_rank[1][0].t_wall, 0.0);
    }
}
