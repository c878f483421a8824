//! Shared `--trace` plumbing for the CLI binaries: format selection and
//! the writer that turns a collected [`WorldTrace`] into artifacts under
//! `results/traces/`.

use std::path::{Path, PathBuf};

use gnn_core::DistOutcome;
use gnn_trace::{
    chrome_trace_string, chrome_trace_string_wall, jsonl_string, text_timeline, write_to_file,
    BottleneckReport, WorldTrace,
};

/// Which exporter(s) `--trace` writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// JSONL event log only (`<prefix>.jsonl`).
    Jsonl,
    /// Chrome `trace_event` JSON only (`<prefix>.chrome.json`).
    Chrome,
    /// Both artifacts.
    #[default]
    Both,
}

impl TraceFormat {
    /// Parses a `--trace-format` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "jsonl" => Ok(Self::Jsonl),
            "chrome" => Ok(Self::Chrome),
            "both" => Ok(Self::Both),
            other => Err(format!(
                "unknown trace format {other} (want jsonl|chrome|both)"
            )),
        }
    }

    fn jsonl(self) -> bool {
        matches!(self, Self::Jsonl | Self::Both)
    }

    fn chrome(self) -> bool {
        matches!(self, Self::Chrome | Self::Both)
    }
}

/// Default artifact prefix for a run label: `results/traces/<label>`.
pub fn default_prefix(label: &str) -> PathBuf {
    PathBuf::from("results/traces").join(label)
}

/// Writes the selected trace artifacts for `prefix`
/// (`<prefix>.jsonl` and/or `<prefix>.chrome.json`) and returns the
/// paths written. Dual-clock traces (process backend) get the
/// wall-axis Chrome exporter so Perfetto shows measured time; the
/// modeled axis rides along in each slice's args.
pub fn write_trace(
    prefix: &Path,
    format: TraceFormat,
    trace: &WorldTrace,
) -> std::io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    if format.jsonl() {
        let path = prefix.with_extension("jsonl");
        write_to_file(&path, &jsonl_string(trace))?;
        written.push(path);
    }
    if format.chrome() {
        let path = prefix.with_extension("chrome.json");
        let chrome = if trace.has_wall() {
            chrome_trace_string_wall(trace)
        } else {
            chrome_trace_string(trace)
        };
        write_to_file(&path, &chrome)?;
        written.push(path);
    }
    Ok(written)
}

/// Renders the human-facing trace digest: the per-epoch timeline
/// followed by the bottleneck-attribution report.
pub fn render_report(trace: &WorldTrace) -> String {
    let mut out = text_timeline(trace);
    out.push_str(&BottleneckReport::from_trace(trace).render());
    out
}

/// Writes the run's unified metrics registry as JSON: the stats
/// counters, the final training loss at full precision (the loss table
/// on stdout keeps four decimals) and, when a trace was collected, its
/// message-size distribution.
pub fn write_metrics(path: &Path, out: &DistOutcome) -> std::io::Result<()> {
    let mut reg = out.stats.to_metrics();
    if let Some(last) = out.records.last() {
        reg.gauge("train.final_loss", last.loss);
    }
    if let Some(tr) = &out.trace {
        reg.hist("trace.message_bytes", tr.msg_sizes.clone());
        reg.counter("trace.events", tr.len() as u64);
    }
    write_to_file(path, &reg.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parse_round_trips() {
        assert_eq!(TraceFormat::parse("jsonl").unwrap(), TraceFormat::Jsonl);
        assert_eq!(TraceFormat::parse("chrome").unwrap(), TraceFormat::Chrome);
        assert_eq!(TraceFormat::parse("both").unwrap(), TraceFormat::Both);
        assert!(TraceFormat::parse("xml").is_err());
    }

    #[test]
    fn default_prefix_lands_under_results_traces() {
        let p = default_prefix("train_protein_p4");
        assert!(p.starts_with("results/traces"));
    }
}
