//! The benchmark's metric tables — the single source of the names,
//! units and directions `BENCHMARK.json` declares (a unit test holds the
//! two in step) — and the [`Report`] that collects measured values and
//! renders the result line the driver parses.

use gnn_trace::json::{fmt_f64, quote};

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the trainer sees. The bounds are what this kind of
/// host can hold, not what one would like: on the 2-core VM the numbers
/// were taken on, ten runs of one workload on ten seeds spread (IQR over
/// median) by 2.5–4.3% on the thread workloads and 5–11% on the proc
/// workload, and the host itself drifted by 15–30% within the hour, so
/// the time metrics get the widest bound the contract allows.
/// `peak_rss_bytes` moves 3–4% from run to run with which malloc arena
/// each rank thread lands in. Gains are claimed with alternating
/// parent/change pairs, which drift cancels out of; the bounds only
/// guard regressions.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("epoch_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("train100_s", "s", 0.25),
    e2e("peak_rss_bytes", "bytes", 0.10),
];

/// One row per layer metric; the layers are the crates. `perf/README.md`
/// says which end-to-end metric each is expected to move, on which
/// workload. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 50] = [
    lo("spmat.spmm_wide_s", "s"),
    hi("spmat.spmm_wide_gflops", "GFLOP/s"),
    lo("spmat.spmm_narrow_s", "s"),
    hi("spmat.spmm_narrow_gflops", "GFLOP/s"),
    lo("spmat.gemm_s", "s"),
    hi("spmat.gemm_gflops", "GFLOP/s"),
    lo("spmat.gemm_t_s", "s"),
    hi("spmat.pack_rows_gbps", "GB/s"),
    lo("spmat.permute_s", "s"),
    lo("partition.partition_s", "s"),
    lo("partition.edgecut", "count"),
    lo("partition.total_volume_rows", "count"),
    lo("partition.max_send_volume_rows", "count"),
    lo("partition.row_imbalance_pct", "%"),
    hi("comm.checksum_gbps", "GB/s"),
    lo("comm.exchange_s", "s"),
    hi("comm.exchange_gbps", "GB/s"),
    lo("comm.allreduce_small_s", "s"),
    lo("comm.allreduce_large_s", "s"),
    lo("comm.rtt_s", "s"),
    lo("comm.barrier_s", "s"),
    lo("comm.bytes_sent_per_epoch", "bytes"),
    lo("comm.bytes_sent_max_rank_per_epoch", "bytes"),
    lo("comm.ops_per_epoch", "count"),
    lo("comm.send_imbalance_pct", "%"),
    lo("comm.wire_over_logical", "ratio"),
    lo("comm.retries", "count"),
    lo("comm.reconnects", "count"),
    lo("comm.restarts", "count"),
    lo("core.prepare_s", "s"),
    lo("core.launch_s", "s"),
    lo("core.p1_epoch_s", "s"),
    hi("core.compute_share", "ratio"),
    hi("core.speedup_vs_p1", "ratio"),
    lo("core.reference_epoch_s", "s"),
    lo("core.model_epoch_s", "s"),
    lo("core.wall_over_model", "ratio"),
    lo("core.analytic_eval_s", "s"),
    lo("core.weight_drift", "abs"),
    lo("core.final_loss", "loss"),
    lo("trace.overhead_share", "ratio"),
    lo("trace.events_per_epoch", "count"),
    lo("trace.export_s", "s"),
    lo("os.cpu_user_s_per_epoch", "s"),
    lo("os.cpu_sys_s_per_epoch", "s"),
    lo("os.minor_faults_per_epoch", "count"),
    lo("os.vol_ctx_switches_per_epoch", "count"),
    lo("host.calib_s", "s"),
    hi("host.nproc", "count"),
    lo("bench.span_overhead_share", "ratio"),
];

/// Measured values of one run, keyed by declared metric name.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    /// Panics if `name` is not declared or was already set — both are
    /// bugs in the harness, not measurement outcomes.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((def.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// `name value unit` lines for every metric of `defs`, in table order.
    pub fn lines(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .filter_map(|d| {
                self.get(d.name).map(|v| {
                    format!(
                        "{:<36} {} {}  ({} is better)",
                        d.name,
                        fmt_f64(v),
                        d.unit,
                        d.better.label()
                    )
                })
            })
            .collect()
    }

    /// The `"metrics"` object of the result line: every metric of
    /// `defs`, or the first name that is missing or not finite.
    pub fn metrics_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                fmt_f64(v),
                quote(d.unit)
            ));
        }
        out.push('}');
        Ok(out)
    }
}

/// The one-line result the driver reads from the end of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use gnn_trace::json::{parse, Json};
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(d.name), "bad metric name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for w in WORKLOADS.iter() {
            assert!(name_ok(w.name), "bad workload name {}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no array {key}");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// The tables above and `BENCHMARK.json` declare the same metrics and
    /// workloads, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = benchmark_json();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<_> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.label().to_string(),
                        d.bound,
                    )
                })
                .collect();
            assert_eq!(declared(&doc, key), want, "{key} differs");
        }
        let Some(Json::Arr(ws)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let got: Vec<(&str, &str)> = ws
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(got, want);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    /// The result line parses, has exactly the contract's keys, and its
    /// metrics are exactly the ones `BENCHMARK.json` lists for the mode.
    #[test]
    fn result_line_lists_every_declared_metric() {
        let doc = benchmark_json();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let mut report = Report::default();
            for (i, d) in defs.iter().enumerate() {
                report.set(d.name, 0.5 + i as f64);
            }
            let line = result_line(true, 7, 0, &report.metrics_json(defs).unwrap());
            assert!(!line.contains('\n'));
            let parsed = parse(&line).expect("result line parses");
            let Json::Obj(top) = &parsed else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(7));
            let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
                panic!("no metrics object");
            };
            let want: BTreeSet<String> = declared(&doc, key).into_iter().map(|d| d.0).collect();
            let got: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(got, want);
            for (name, unit, _, _) in declared(&doc, key) {
                let m = &metrics[&name];
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
    }

    #[test]
    fn missing_or_non_finite_metric_is_an_error() {
        let mut report = Report::default();
        report.set("epoch_s", 0.1);
        assert!(report.metrics_json(&END_TO_END).is_err());
        let mut report = Report::default();
        for d in &END_TO_END {
            report.set(d.name, f64::NAN);
        }
        assert!(report.metrics_json(&END_TO_END).is_err());
    }
}
