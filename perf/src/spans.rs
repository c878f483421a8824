//! The benchmark's own spans: one per call into a layer, recorded from
//! the harness (spans inside the program are a later issue), held in
//! memory and written as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use gnn_trace::json::quote;

/// Parent id of a root span.
pub const NO_PARENT: i64 = -1;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call goes into (`bench` for the harness's own work).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: i64,
    /// Sample (pair or repetition) the span belongs to.
    pub sample: u32,
}

/// An open span, to be handed back to [`Spans::end`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder. When switched off, `begin`/`end` do nothing
/// and record nothing, so the untraced samples of a traced run pay one
/// branch per call into a layer.
pub struct Spans {
    on: bool,
    t0: Instant,
    sample: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            sample: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between samples.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn set_sample(&mut self, sample: u32) {
        self.sample = sample;
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().map_or(NO_PARENT, |&p| p as i64),
            sample: self.sample,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span timed elsewhere (on a rank thread) as a child of
    /// the innermost open span.
    pub fn add_closed(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().map_or(NO_PARENT, |&p| p as i64),
            sample: self.sample,
        });
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Seconds of self time per layer: each span's duration minus the
    /// part of it its children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *by_layer.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        by_layer
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"layer\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"workload\":{},\"sample\":{}}}",
                quote(s.name),
                quote(s.layer),
                s.start_ns,
                s.end_ns,
                s.parent,
                quote(workload),
                s.sample
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        let t0 = sp.t0;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let outer = sp.begin("sample", "bench");
        sp.add_closed("train", "core", at(10), at(40));
        sp.add_closed("check", "bench", at(40), at(45));
        sp.end(outer);
        // Pin the outer span's clock so the arithmetic is exact.
        sp.spans[0].start_ns = 0;
        sp.spans[0].end_ns = 50_000_000;
        let by = sp.self_time_by_layer();
        assert!((by["core"] - 0.030).abs() < 1e-12);
        assert!((by["bench"] - 0.020).abs() < 1e-12); // 15 ms own + 5 ms check
        assert_eq!(sp.spans[1].parent, 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::new(false);
        let o = sp.begin("x", "bench");
        sp.add_closed("y", "comm", Instant::now(), Instant::now());
        sp.end(o);
        assert!(sp.spans.is_empty());
    }

    #[test]
    fn jsonl_lines_parse() {
        let mut sp = Spans::new(true);
        sp.set_sample(3);
        let o = sp.begin("train_distributed", "core");
        sp.end(o);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("w.spans.jsonl");
        sp.write_jsonl(&path, "w").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let v = gnn_trace::json::parse(text.lines().next().unwrap()).unwrap();
        for key in [
            "name", "layer", "start_ns", "end_ns", "parent", "workload", "sample",
        ] {
            assert!(v.get(key).is_some(), "span lacks {key}");
        }
        assert_eq!(v.get("sample").and_then(|s| s.as_u64()), Some(3));
        assert_eq!(v.get("parent").and_then(|s| s.as_i64()), Some(-1));
    }
}
