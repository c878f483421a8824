//! The perf ledger `BENCH_trajectory.json` stays readable: every row is a
//! workload and end-to-end metric `BENCHMARK.json` declares, with both
//! medians and the number of pairs they came from.

use std::collections::BTreeSet;

use gnn_trace::json::{self, Json};

fn read(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

/// The `name` of every object in `key` of `BENCHMARK.json`.
fn declared(bench: &Json, key: &str) -> BTreeSet<String> {
    let Some(Json::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_ledger_row_has_both_sides_and_a_pair_count() {
    let bench = read("BENCHMARK.json");
    let (workloads, metrics) = (
        declared(&bench, "workloads"),
        declared(&bench, "end_to_end"),
    );
    let ledger = read("BENCH_trajectory.json");
    let Some(Json::Arr(rows)) = ledger.get("rows") else {
        panic!("the ledger has no rows list");
    };
    assert!(!rows.is_empty(), "an empty ledger");
    for (i, row) in rows.iter().enumerate() {
        let field = |key: &str| {
            row.get(key)
                .unwrap_or_else(|| panic!("row {i} lacks {key}"))
        };
        let text = |key: &str| {
            field(key)
                .as_str()
                .unwrap_or_else(|| panic!("row {i}: {key}"))
        };
        assert!(field("pr").as_u64().is_some(), "row {i}: pr");
        assert!(
            workloads.contains(text("workload")),
            "row {i}: {}",
            text("workload")
        );
        assert!(
            metrics.contains(text("metric")),
            "row {i}: {}",
            text("metric")
        );
        assert!(!text("unit").is_empty(), "row {i}: unit");
        for side in ["parent_median", "change_median"] {
            let v = field(side)
                .as_f64()
                .unwrap_or_else(|| panic!("row {i}: {side}"));
            assert!(v.is_finite() && v > 0.0, "row {i}: {side} = {v}");
        }
        let pairs = field("pairs")
            .as_u64()
            .unwrap_or_else(|| panic!("row {i}: pairs"));
        assert!(pairs > 0, "row {i}: no pairs");
        match field("lower") {
            Json::Null => {}
            lower => {
                let k = lower.as_u64().unwrap_or_else(|| panic!("row {i}: lower"));
                assert!(k <= pairs, "row {i}: lower in {k} of {pairs} pairs");
            }
        }
        for optional in ["parent_iqr", "calib_s"] {
            match field(optional) {
                Json::Null => {}
                v => assert!(v.as_f64().is_some_and(|x| x >= 0.0), "row {i}: {optional}"),
            }
        }
    }
}
