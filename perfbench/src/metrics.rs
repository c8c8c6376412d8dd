//! The metric catalogue: every metric the benchmark prints, its unit, and
//! why it is there.  `BENCHMARK.json` at the repository root lists the same
//! names and units (a test keeps the two in step).
//!
//! End-to-end metrics are what a user of the engine sees; they come from
//! untraced runs.  Per-layer metrics come from the traced run, and each
//! names the end-to-end metric and workload it should move.  A timing is a
//! median or a nearest-rank p99 over every sample of the run; an
//! episode-level quantity is the median over the run's episodes.

use crate::harness::{median, percentile, tail_share, Recorder, SpanTotals};
use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Meaning, and for a per-layer metric the end-to-end metric and
    /// workload it should move.
    pub why: &'static str,
}

const fn m(name: &'static str, unit: &'static str, why: &'static str) -> Metric {
    Metric { name, unit, why }
}

pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "constructing the system, with any warm prefix, index activation and store creation; input generation excluded"),
    m("ingest_rate", "updates/s", "updates of the timed phase divided by its length, closing flush and in-loop queries included"),
    m("batch_p50_us", "us", "median time of one update_batch call"),
    m("batch_p99_us", "us", "p99 time of one update_batch call"),
    m("query_p50_us", "us", "median time of one reader query, all kinds pooled"),
    m("query_p99_us", "us", "p99 time of one reader query, all kinds pooled"),
    m("pagerank_ms", "ms", "median time of algo::pagerank on the live matrix"),
    m("recover_s", "s", "from reopening the store until the first full read is verified"),
    m("mem_bytes_per_entry", "B", "HierMatrix::memory_bytes() over the final nnz"),
    m("disk_bytes_per_entry", "B", "store directory size after a clean close over the final nnz"),
];

pub const PER_LAYER: &[Metric] = &[
    // hier.matrix: which update_batch calls pay for the hierarchy.
    m("matrix.calls_append", "count", "update_batch calls per traced episode that only appended; target batch_p99_us, ingest_rate on paper-ingest"),
    m("matrix.calls_settle", "count", "calls that settled level 0 without a cascade; target batch_p99_us, ingest_rate on paper-ingest"),
    m("matrix.calls_cascade", "count", "calls that cascaded; target batch_p99_us, ingest_rate on paper-ingest"),
    m("matrix.settle_us_p50", "us", "target batch_p99_us on paper-ingest"),
    m("matrix.settle_us_p99", "us", "target batch_p99_us on paper-ingest"),
    m("matrix.cascade_us_p50", "us", "target batch_p99_us on paper-ingest"),
    m("matrix.cascade_us_p99", "us", "target batch_p99_us on paper-ingest"),
    m("matrix.tail_time_share", "share", "share of update_batch time in the slowest 1% of calls; target batch_p99_us on paper-ingest (bounded cascades)"),
    m("matrix.cascades_L0", "count", "cascades out of level 0 per episode; target ingest_rate on paper-ingest"),
    m("matrix.cascades_L1", "count", "target ingest_rate on paper-ingest"),
    m("matrix.cascades_L2", "count", "target ingest_rate on paper-ingest"),
    m("matrix.write_amp", "ratio", "entries moved by cascades per update; target ingest_rate on paper-ingest"),
    // graphblas.formats: merge strategy mix of settles and cascades.
    m("formats.merge_galloped", "count", "elements merged per episode by galloping; target ingest_rate on paper-ingest"),
    m("formats.merge_bulk", "count", "elements moved by bulk row copies; target ingest_rate on paper-ingest"),
    m("formats.merge_branchless", "count", "elements merged by the branchless two-pointer; target ingest_rate on paper-ingest"),
    m("formats.merge_linear", "count", "elements merged by the linear fallback; target ingest_rate on paper-ingest"),
    // graphblas.reader: cursor, degree index and column twin.
    m("reader.row_us_p50", "us", "target query_p50_us on ip-mixed; should not move paper-ingest"),
    m("reader.row_us_p99", "us", "target query_p99_us on ip-mixed"),
    m("reader.row_degree_us_p50", "us", "target query_p50_us on ip-mixed"),
    m("reader.row_degree_us_p99", "us", "target query_p99_us on ip-mixed"),
    m("reader.get_us_p50", "us", "target query_p50_us on ip-mixed"),
    m("reader.get_us_p99", "us", "target query_p99_us on ip-mixed"),
    m("reader.top_k_us_p50", "us", "target query_p50_us on ip-mixed"),
    m("reader.top_k_us_p99", "us", "target query_p99_us on ip-mixed"),
    m("reader.col_us_p50", "us", "target query_p50_us on ip-mixed"),
    m("reader.col_us_p99", "us", "target query_p99_us on ip-mixed"),
    m("reader.in_top_k_us_p50", "us", "target query_p50_us on ip-mixed"),
    m("reader.in_top_k_us_p99", "us", "target query_p99_us on ip-mixed"),
    // graphblas.algo / ops.
    m("algo.pagerank_ms_p50", "ms", "target pagerank_ms on ip-mixed"),
    m("ops.spa_dense_rows", "count", "sparse-accumulator rows answered by the dense band, per episode; target pagerank_ms on ip-mixed"),
    m("ops.spa_scatter_rows", "count", "rows answered by sorted scatter; target pagerank_ms on ip-mixed"),
    m("ops.spa_flops", "count", "products folded by the accumulator; target pagerank_ms on ip-mixed"),
    // hier.sharded: producer, channel, drain barrier, push-down.
    m("sharded.insert_us_p50", "us", "producer update_batch time, blocked sends included; target ingest_rate on durable-sharded"),
    m("sharded.insert_us_p99", "us", "target batch_p99_us on durable-sharded"),
    m("sharded.flush_ms", "ms", "median drain barrier; target ingest_rate on durable-sharded"),
    m("sharded.query_us_p50", "us", "push-down query time; target query_p99_us on durable-sharded"),
    m("sharded.query_us_p99", "us", "target query_p99_us on durable-sharded"),
    m("sharded.rounds", "count", "ingest rounds per episode; target ingest_rate on durable-sharded"),
    m("sharded.chunks_sent", "count", "chunks handed to workers per episode; target ingest_rate on durable-sharded"),
    m("sharded.pushdown_queries", "count", "push-down queries per episode; target query_p99_us on durable-sharded"),
    // hier.persist: WAL, checkpoints, recovery.
    m("persist.create_ms", "ms", "creating a durable store; target setup_s on durable-sharded"),
    m("persist.reopen_ms", "ms", "opening the store (load levels, replay WAL); target recover_s on durable-sharded"),
    m("persist.first_read_ms", "ms", "first full read after reopening; target recover_s on durable-sharded"),
    m("persist.wal_records_replayed", "count", "target recover_s on durable-sharded"),
    m("persist.levels_loaded", "count", "target recover_s on durable-sharded"),
    m("persist.bytes_written_per_user_byte", "ratio", "write() bytes in the timed phase over 24 B per update; target ingest_rate on durable-sharded"),
    m("persist.disk_bytes", "B", "store size after a clean close; target disk_bytes_per_entry on durable-sharded"),
    m("persist.weight_counter_mismatch", "count", "weight of a full read minus total_weight_f64() after reopening; a known defect on durable-sharded"),
    // workload: the input, not the system under test.
    m("workload.gen_s", "s", "input generation, untimed; target none"),
    m("workload.distinct_share", "share", "distinct cells per update; target none"),
    m("workload.max_out_degree", "count", "target none"),
    m("workload.max_in_degree", "count", "target none"),
    // trace: self time per layer and the cost of tracing itself.
    m("trace.overhead_share", "share", "traced over untraced timed phase, minus 1; target none"),
    m("self_share.bench", "share", "harness self time over traced episode time; target none"),
    m("self_share.hier", "share", "target ingest_rate on paper-ingest"),
    m("self_share.reader", "share", "target query_p50_us on ip-mixed"),
    m("self_share.algo", "share", "target pagerank_ms on ip-mixed"),
    m("self_share.sharded", "share", "target ingest_rate on durable-sharded"),
    m("self_share.persist", "share", "target recover_s on durable-sharded"),
];

/// The metrics for which a higher value is better; for every other
/// metric lower is better.
const HIGHER_IS_BETTER: &[&str] = &[
    "ingest_rate",
    "matrix.calls_append",
    "formats.merge_galloped",
    "formats.merge_bulk",
    "ops.spa_dense_rows",
];

pub fn better(name: &str) -> &'static str {
    if HIGHER_IS_BETTER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

/// Workload-level facts that are not measured from the engine.
pub struct InputFacts {
    pub gen_s: f64,
    pub distinct_share: f64,
    pub max_out_degree: u64,
    pub max_in_degree: u64,
}

/// One computed metric, with the number of samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub v: f64,
    pub n: Option<usize>,
}

impl Value {
    fn scalar(v: f64) -> Self {
        Self { v, n: None }
    }

    fn ms(self) -> Self {
        Self {
            v: self.v / 1e3,
            ..self
        }
    }
}

/// Every metric of both tables, computed from one run.
pub fn compute(
    rec: &Recorder,
    input: &InputFacts,
    spans: &BTreeMap<&'static str, SpanTotals>,
) -> BTreeMap<&'static str, Value> {
    let mut out = BTreeMap::new();
    let ep = |name: &str| {
        let v = rec.episodes(name);
        Value {
            v: median(v),
            n: Some(v.len()),
        }
    };
    let p = |series: &str, q: f64| {
        let v = rec.series(series);
        Value {
            v: percentile(v, q),
            n: Some(v.len()),
        }
    };

    out.insert("setup_s", ep("setup_s"));
    out.insert("ingest_rate", ep("ingest_rate"));
    out.insert("batch_p50_us", p("batch", 0.5));
    out.insert("batch_p99_us", p("batch", 0.99));
    out.insert("query_p50_us", p("query", 0.5));
    out.insert("query_p99_us", p("query", 0.99));
    out.insert("pagerank_ms", p("pagerank", 0.5).ms());
    out.insert("recover_s", ep("recover_s"));
    out.insert("mem_bytes_per_entry", ep("mem_bytes_per_entry"));
    out.insert("disk_bytes_per_entry", ep("disk_bytes_per_entry"));

    let traced_eps = rec.episodes("timed_s_traced").len().max(1) as f64;
    for (name, series) in [
        ("matrix.calls_append", "matrix.append"),
        ("matrix.calls_settle", "matrix.settle"),
        ("matrix.calls_cascade", "matrix.cascade"),
    ] {
        out.insert(
            name,
            Value::scalar(rec.series(series).len() as f64 / traced_eps),
        );
    }
    out.insert("matrix.settle_us_p50", p("matrix.settle", 0.5));
    out.insert("matrix.settle_us_p99", p("matrix.settle", 0.99));
    out.insert("matrix.cascade_us_p50", p("matrix.cascade", 0.5));
    out.insert("matrix.cascade_us_p99", p("matrix.cascade", 0.99));
    out.insert(
        "matrix.tail_time_share",
        Value::scalar(tail_share(rec.series("batch"), 0.01)),
    );
    for name in [
        "matrix.cascades_L0",
        "matrix.cascades_L1",
        "matrix.cascades_L2",
        "matrix.write_amp",
        "formats.merge_galloped",
        "formats.merge_bulk",
        "formats.merge_branchless",
        "formats.merge_linear",
        "ops.spa_dense_rows",
        "ops.spa_scatter_rows",
        "ops.spa_flops",
        "sharded.rounds",
        "sharded.chunks_sent",
        "sharded.pushdown_queries",
        "persist.create_ms",
        "persist.reopen_ms",
        "persist.first_read_ms",
        "persist.wal_records_replayed",
        "persist.levels_loaded",
        "persist.bytes_written_per_user_byte",
        "persist.disk_bytes",
        "persist.weight_counter_mismatch",
    ] {
        out.insert(name, ep(name));
    }
    const READER: [[&str; 3]; 6] = [
        ["reader.row", "reader.row_us_p50", "reader.row_us_p99"],
        [
            "reader.row_degree",
            "reader.row_degree_us_p50",
            "reader.row_degree_us_p99",
        ],
        ["reader.get", "reader.get_us_p50", "reader.get_us_p99"],
        ["reader.top_k", "reader.top_k_us_p50", "reader.top_k_us_p99"],
        ["reader.col", "reader.col_us_p50", "reader.col_us_p99"],
        [
            "reader.in_top_k",
            "reader.in_top_k_us_p50",
            "reader.in_top_k_us_p99",
        ],
    ];
    for [series, p50, p99] in READER {
        out.insert(p50, p(series, 0.5));
        out.insert(p99, p(series, 0.99));
    }
    out.insert("algo.pagerank_ms_p50", p("pagerank", 0.5).ms());
    out.insert("sharded.insert_us_p50", p("sharded.insert", 0.5));
    out.insert("sharded.insert_us_p99", p("sharded.insert", 0.99));
    out.insert("sharded.flush_ms", p("sharded.flush", 0.5).ms());
    out.insert("sharded.query_us_p50", p("sharded.query", 0.5));
    out.insert("sharded.query_us_p99", p("sharded.query", 0.99));

    out.insert("workload.gen_s", Value::scalar(input.gen_s));
    out.insert(
        "workload.distinct_share",
        Value::scalar(input.distinct_share),
    );
    out.insert(
        "workload.max_out_degree",
        Value::scalar(input.max_out_degree as f64),
    );
    out.insert(
        "workload.max_in_degree",
        Value::scalar(input.max_in_degree as f64),
    );

    let traced = median(rec.episodes("timed_s_traced"));
    let plain = median(rec.episodes("timed_s_plain"));
    let overhead = if traced > 0.0 && plain > 0.0 {
        traced / plain - 1.0
    } else {
        0.0
    };
    out.insert("trace.overhead_share", Value::scalar(overhead));
    let episode_us: f64 = spans.get("bench.episode").map_or(0.0, |t| t.total_us);
    for (name, layer) in [
        ("self_share.bench", "bench."),
        ("self_share.hier", "hier."),
        ("self_share.reader", "reader."),
        ("self_share.algo", "algo."),
        ("self_share.sharded", "sharded."),
        ("self_share.persist", "persist."),
    ] {
        let self_us = spans
            .iter()
            .filter(|(n, _)| n.starts_with(layer))
            .fold(0.0, |acc, (_, t)| acc + t.self_us);
        let share = if episode_us > 0.0 {
            self_us / episode_us
        } else {
            0.0
        };
        out.insert(name, Value::scalar(share));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_valid() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let flat: String = text.split_whitespace().collect();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                m.name,
                m.unit,
                better(m.name)
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = flat.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn every_metric_is_computed() {
        let rec = Recorder::new();
        let facts = InputFacts {
            gen_s: 0.0,
            distinct_share: 0.0,
            max_out_degree: 0,
            max_in_degree: 0,
        };
        let got = compute(&rec, &facts, &BTreeMap::new());
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(got.contains_key(m.name), "{} is not computed", m.name);
        }
        assert_eq!(got.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
