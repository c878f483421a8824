//! `trace-report` — inspect a JSONL trace written by `train --trace` or
//! `repro --trace`, or stitch a process-backend run's per-rank traces
//! back into one aligned timeline.
//!
//! ```text
//! trace-report [--validate] [--timeline] FILE.jsonl
//! trace-report --merge [--validate] [--timeline] [--out PREFIX]
//!              [--offsets FILE] DIR | FILE...
//! ```
//!
//! Single-file mode reloads the event log and prints the
//! bottleneck-rank attribution report. `--validate` first runs the
//! strict schema validator (field whitelist, vocabularies, per-rank
//! sequence monotonicity, header event count) and prints the summary; a
//! malformed trace exits nonzero with the offending line number.
//! `--timeline` adds the per-epoch per-rank timeline table.
//!
//! `--merge` unions several per-rank traces (a directory positional
//! expands to its `trace-rank<N>.jsonl` files) onto one wall axis:
//! each rank's wall timestamps are corrected by the rendezvous-
//! estimated clock offsets (`--offsets FILE`, defaulting to the
//! directory's `clock-offsets.json` sidecar when present), the origin
//! is normalized to 0, and the merged artifacts are written as
//! `<PREFIX>.jsonl` + `<PREFIX>.chrome.json` (default `<DIR>/merged`).
//! With `--validate` every input *and* the merged output must pass the
//! schema validator.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gnn_bench::{out, outln};
use gnn_trace::{
    chrome_trace_string, chrome_trace_string_wall, jsonl_string, merge_aligned, parse_jsonl,
    parse_offsets_json, text_timeline, validate_jsonl, write_to_file, BottleneckReport, WorldTrace,
};

struct Args {
    validate: bool,
    timeline: bool,
    merge: bool,
    out: Option<PathBuf>,
    offsets: Option<PathBuf>,
    inputs: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        validate: false,
        timeline: false,
        merge: false,
        out: None,
        offsets: None,
        inputs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--validate" => a.validate = true,
            "--timeline" => a.timeline = true,
            "--merge" => a.merge = true,
            "--out" => a.out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--offsets" => {
                a.offsets = Some(PathBuf::from(it.next().ok_or("--offsets needs a value")?))
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => a.inputs.push(PathBuf::from(other)),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if a.inputs.is_empty() {
        return Err(usage());
    }
    if !a.merge {
        if a.inputs.len() > 1 {
            return Err("exactly one trace file expected (use --merge for several)".into());
        }
        if a.out.is_some() || a.offsets.is_some() {
            return Err("--out/--offsets only apply to --merge".into());
        }
    }
    Ok(a)
}

fn usage() -> String {
    "usage: trace-report [--validate] [--timeline] FILE.jsonl\n\
     \u{20}      trace-report --merge [--validate] [--timeline] [--out PREFIX] \
     [--offsets FILE] DIR | FILE..."
        .to_string()
}

/// Expands a directory positional to its sorted `trace-rank<N>.jsonl`
/// files; plain files pass through.
fn expand_inputs(inputs: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for input in inputs {
        if !input.is_dir() {
            files.push(input.clone());
            continue;
        }
        let mut ranks: Vec<(usize, PathBuf)> = Vec::new();
        let entries = std::fs::read_dir(input)
            .map_err(|e| format!("cannot list {}: {e}", input.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", input.display()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("trace-rank")
                .and_then(|rest| rest.strip_suffix(".jsonl"))
            {
                if let Ok(rank) = num.parse::<usize>() {
                    ranks.push((rank, entry.path()));
                }
            }
        }
        if ranks.is_empty() {
            return Err(format!(
                "no trace-rank<N>.jsonl files in {}",
                input.display()
            ));
        }
        ranks.sort();
        files.extend(ranks.into_iter().map(|(_, p)| p));
    }
    Ok(files)
}

/// The per-rank clock offsets to apply: an explicit `--offsets` file,
/// else the first input directory's `clock-offsets.json` sidecar, else
/// none (merge uncorrected).
fn load_offsets(args: &Args) -> Result<Option<Vec<f64>>, String> {
    let path = match &args.offsets {
        Some(p) => p.clone(),
        None => match args.inputs.iter().find(|i| i.is_dir()) {
            Some(dir) => {
                let sidecar = dir.join("clock-offsets.json");
                if !sidecar.is_file() {
                    return Ok(None);
                }
                sidecar
            }
            None => return Ok(None),
        },
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let offsets = parse_offsets_json(&text)?;
    outln!(
        "clock offsets: {} rank(s) from {}",
        offsets.len(),
        path.display()
    );
    Ok(Some(offsets))
}

fn load_trace(path: &Path, validate: bool) -> Result<WorldTrace, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if validate {
        let s =
            validate_jsonl(&text).map_err(|e| format!("invalid trace {}: {e}", path.display()))?;
        outln!(
            "valid: {} — {} rank(s), {} event(s) ({} spans, {} ops), \
             max epoch {}, {} logical bytes sent, {} wall-stamped",
            path.display(),
            s.p,
            s.events,
            s.spans,
            s.ops,
            s.max_epoch,
            s.logical_bytes_sent,
            s.wall_events
        );
    }
    parse_jsonl(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Renders the human-facing digest, guarding the degenerate case: a
/// header-only trace used to print a confusing `epochs 0..=-1` table.
fn report(trace: &WorldTrace, timeline: bool) {
    if trace.is_empty() {
        outln!(
            "empty trace: {} rank(s), 0 events — nothing to report",
            trace.p()
        );
        return;
    }
    if timeline {
        out!("{}", text_timeline(trace));
    }
    out!("{}", BottleneckReport::from_trace(trace).render());
}

fn run(args: &Args) -> Result<(), String> {
    if !args.merge {
        let trace = load_trace(&args.inputs[0], args.validate)?;
        report(&trace, args.timeline);
        return Ok(());
    }

    let files = expand_inputs(&args.inputs)?;
    let offsets = load_offsets(args)?;
    let mut traces = Vec::with_capacity(files.len());
    for f in &files {
        traces.push(load_trace(f, args.validate)?);
    }
    let merged = merge_aligned(traces, offsets.as_deref())?;

    let prefix =
        args.out
            .clone()
            .unwrap_or_else(|| match args.inputs.iter().find(|i| i.is_dir()) {
                Some(dir) => dir.join("merged"),
                None => PathBuf::from("merged"),
            });
    let merged_jsonl = jsonl_string(&merged);
    if args.validate {
        validate_jsonl(&merged_jsonl).map_err(|e| format!("merged trace is invalid: {e}"))?;
    }
    let jsonl_path = prefix.with_extension("jsonl");
    write_to_file(&jsonl_path, &merged_jsonl)
        .map_err(|e| format!("write {}: {e}", jsonl_path.display()))?;
    let chrome_path = prefix.with_extension("chrome.json");
    let chrome = if merged.has_wall() {
        chrome_trace_string_wall(&merged)
    } else {
        chrome_trace_string(&merged)
    };
    write_to_file(&chrome_path, &chrome)
        .map_err(|e| format!("write {}: {e}", chrome_path.display()))?;
    outln!(
        "merged {} file(s) → {} + {}{}",
        files.len(),
        jsonl_path.display(),
        chrome_path.display(),
        if offsets.is_some() {
            " (clock-offset corrected)"
        } else {
            " (no offset correction)"
        }
    );
    report(&merged, args.timeline);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(m) => {
            eprintln!("{m}");
            return ExitCode::FAILURE;
        }
    };
    out::finish(match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(m) => {
            eprintln!("{m}");
            ExitCode::FAILURE
        }
    })
}
