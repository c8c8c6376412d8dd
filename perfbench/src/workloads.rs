//! The three workloads.  Each runs closed-loop: one caller issues the next
//! call only after the previous one returns, as a library user does.  A
//! run repeats *episodes* until its time budget is spent (and at least
//! `min_episodes` ran, so every p99 has ten samples beyond it).  Every
//! episode builds a fresh system and replays the run's input, so all
//! episodes do identical work and the run's figures do not depend on how
//! many episodes fit in the budget.
//!
//! An episode has three parts:
//!
//! 1. **setup** (`setup_s`): construct the system, ingest the warm prefix,
//!    activate indexes, create the store;
//! 2. **timed phase** (`ingest_rate`, `batch_*`, and the in-loop queries
//!    of `ip-mixed` and `durable-sharded`): the closed loop over the
//!    batches, ending with a `flush`;
//! 3. **closing probes**, outside the timed phase: PageRank on the live
//!    matrix (`ip-mixed` runs it inside the loop instead), the read-back
//!    queries of `paper-ingest`, memory per entry, a reopen of the store
//!    (`recover_s`, `disk_bytes_per_entry`) and the oracle checks.  The
//!    in-memory workloads have no store of their own, so their probe
//!    checkpoints the final matrix into a fresh durable store through
//!    `hier::persist` and reopens it; every end-to-end metric is thereby
//!    measured on every workload.

use crate::harness::{Recorder, SpanId, NO_SPAN};
use crate::host::{dir_bytes, write_chars};
use crate::input::{Input, DIM};
use crate::oracle::{run_pagerank, ContentCheck, Oracle};
use hyperstream_graphblas::{
    merge_kernel_stats, spa_kernel_stats, GrbResult, MatrixReader, SparseVector,
};
use hyperstream_hier::{
    DurableConfig, FsyncPolicy, HierConfig, HierMatrix, HierStats, ShardedConfig, ShardedHierMatrix,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The WAL fsync policy of every durable store the benchmark creates.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(64);

/// k of every top-k query.
const TOP_K: usize = 10;

/// Bytes of one update as the caller hands it over: row, column, value.
const UPDATE_BYTES: f64 = 24.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's per-instance experiment (§III) at the batch size where
    /// the tail shows: `HierMatrix` with the paper's cuts
    /// (2^17/2^20/2^23) takes the paper's power-law stream in 1,000-tuple
    /// `update_batch` calls, in memory, with no queries while ingesting.
    /// Radix settle (`graphblas::formats`) and cascades (`hier::matrix`)
    /// do nearly all the work; the reader, persist and sharded layers sit
    /// idle until the closing probes.
    PaperIngest,
    /// Analytics on a live IP-traffic matrix (the Soliman et al. setting):
    /// IPv4 flows (Zipf hosts, 64 supernodes, weights 1–8) in
    /// 10,000-flow batches into a paper-cut `HierMatrix` whose two degree
    /// indexes are active.  After each batch the caller runs a point get,
    /// a row degree and one heavier query rotating over row extract,
    /// column extract, top-k and in-degree top-k, all aimed at the batch
    /// just ingested; PageRank runs every `ip_pagerank_every` batches.
    /// The read side (`graphblas::reader`, the degree indexes, the column
    /// twins, `algo`) does most of the work, and 30% distinct cells use
    /// the write path differently from `paper-ingest`.
    IpMixed,
    /// The only workload where the WAL, fsync, checkpoint-at-cascade and
    /// recovery code of `hier::persist` and the channel, backpressure,
    /// drain barrier and push-down code of `hier::sharded` do the work:
    /// a 1-shard durable `ShardedHierMatrix` (producer plus worker, two
    /// threads) under `FsyncPolicy::EveryN(64)` takes the paper stream in
    /// 10,000-tuple batches with a light push-down dashboard refresh
    /// at a fixed cadence: top-k, the rows of the top sources, a column.  After ingest the engine
    /// is dropped, reopened through `new_durable` (recovery) and verified.
    DurableSharded,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperIngest,
        Workload::IpMixed,
        Workload::DurableSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperIngest => "paper-ingest",
            Workload::IpMixed => "ip-mixed",
            Workload::DurableSharded => "durable-sharded",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of one episode of each workload, and episode counts.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Updates per `paper-ingest` episode, warm prefix included; 20M
    /// gives the paper stream's cascade profile (about 40 cascades out of
    /// level 0 and 4 out of level 1).
    pub paper_updates: usize,
    pub paper_warm: usize,
    pub paper_batch: usize,
    /// Rows read back (row extracts of a uniform sample of the rows) after
    /// a `paper-ingest` episode.
    pub paper_readback: usize,
    pub ip_warm: usize,
    pub ip_batches: usize,
    pub ip_batch: usize,
    /// Batches between PageRank runs; divides `ip_batches` an odd number
    /// of times, so the run's median PageRank sits on one matrix size.
    pub ip_pagerank_every: usize,
    pub durable_warm: usize,
    pub durable_batches: usize,
    pub durable_batch: usize,
    /// Batches between push-down dashboard refreshes (a top-k, the row of
    /// each of the top k sources, one column).
    pub durable_refresh_every: usize,
    /// Minimum episodes per run of each workload, indexed by `Workload`.
    pub min_episodes: [usize; 3],
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            paper_updates: 20_000_000,
            paper_warm: 1_000_000,
            paper_batch: 1_000,
            paper_readback: 2_000,
            ip_warm: 1_000_000,
            ip_batches: 250,
            ip_batch: 10_000,
            ip_pagerank_every: 50,
            durable_warm: 500_000,
            durable_batches: 450,
            durable_batch: 10_000,
            durable_refresh_every: 25,
            min_episodes: [3, 4, 5],
        }
    }

    /// A seconds-long configuration for the self-test.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            paper_updates: 300_000,
            paper_warm: 20_000,
            paper_batch: 1_000,
            paper_readback: 20,
            ip_warm: 20_000,
            ip_batches: 12,
            ip_batch: 2_000,
            ip_pagerank_every: 4,
            durable_warm: 20_000,
            durable_batches: 12,
            durable_batch: 5_000,
            durable_refresh_every: 3,
            min_episodes: [2, 2, 2],
        }
    }

    fn stream_len(&self, w: Workload) -> usize {
        match w {
            Workload::PaperIngest => self.paper_updates,
            Workload::IpMixed => self.ip_warm + self.ip_batches * self.ip_batch,
            Workload::DurableSharded => {
                self.durable_warm + self.durable_batches * self.durable_batch
            }
        }
    }
}

/// What one run produced besides the recorder.
pub struct RunSummary {
    pub episodes: usize,
    pub gen_s: f64,
    pub oracle: Oracle,
}

/// Generate the input, build the oracle, and run episodes of `w` until
/// `budget` is spent.  `trace` alternates untraced and traced episodes,
/// starting untraced, so the traced run can report its own overhead.
pub fn run(
    w: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    out_dir: &Path,
    sizes: &Sizes,
    rec: &mut Recorder,
) -> RunSummary {
    let t = Instant::now();
    let n = sizes.stream_len(w);
    let input = match w {
        Workload::IpMixed => Input::ip(seed, n),
        Workload::PaperIngest | Workload::DurableSharded => Input::paper(seed, n),
    };
    let gen_s = t.elapsed().as_secs_f64();
    let oracle = Oracle::new(&input);

    let min = sizes.min_episodes[w as usize];
    let start = Instant::now();
    let mut episodes = 0;
    while episodes < min.max(2) || start.elapsed() < budget {
        let traced = trace && episodes % 2 == 1;
        rec.tr.set_on(traced);
        let cx = Episode {
            input: &input,
            oracle: &oracle,
            sizes,
            first: episodes == 0,
            traced,
            store: out_dir.join(format!("store-{}-{episodes}", std::process::id())),
        };
        let span = rec.tr.open("bench.episode", NO_SPAN);
        match w {
            Workload::PaperIngest => paper_ingest(rec, &cx, span),
            Workload::IpMixed => ip_mixed(rec, &cx, span),
            Workload::DurableSharded => durable_sharded(rec, &cx, span),
        }
        rec.tr.close(span);
        let _ = std::fs::remove_dir_all(&cx.store);
        episodes += 1;
    }
    rec.tr.set_on(false);
    RunSummary {
        episodes,
        gen_s,
        oracle,
    }
}

struct Episode<'a> {
    input: &'a Input,
    oracle: &'a Oracle,
    sizes: &'a Sizes,
    /// The first episode of a run also runs the slower oracle checks
    /// (samples, top-k); every episode checks the full content.
    first: bool,
    traced: bool,
    store: PathBuf,
}

fn hier_config() -> HierConfig {
    HierConfig::paper_default()
}

fn durable_config(dir: &Path) -> DurableConfig {
    DurableConfig::new(dir).fsync(FSYNC)
}

/// Process-global kernel counters and write volume, read at the edges of
/// the timed phase.
struct Counters {
    merge: hyperstream_graphblas::MergeKernelStats,
    spa: hyperstream_graphblas::SpaKernelStats,
    wchar: u64,
}

impl Counters {
    fn read() -> Self {
        Self {
            merge: merge_kernel_stats(),
            spa: spa_kernel_stats(),
            wchar: write_chars(),
        }
    }

    /// The kernel counters under their metric names.
    fn kernels(&self) -> [(&'static str, u64); 7] {
        [
            ("formats.merge_galloped", self.merge.galloped_elems),
            ("formats.merge_bulk", self.merge.bulk_row_elems),
            ("formats.merge_branchless", self.merge.branchless_elems),
            ("formats.merge_linear", self.merge.linear_elems),
            ("ops.spa_dense_rows", self.spa.dense_rows),
            ("ops.spa_scatter_rows", self.spa.scatter_rows),
            (
                "ops.spa_flops",
                self.spa.dense_flops + self.spa.scatter_flops,
            ),
        ]
    }

    /// Snapshot for the trace file.
    fn snapshot(&self, label: &str, rec: &mut Recorder) {
        let mut all = self.kernels().to_vec();
        all.push(("wchar", self.wchar));
        rec.snapshot(label.to_string(), all);
    }

    /// Record the deltas since `before` as per-episode values.
    fn record_since(&self, before: &Counters, updates: usize, rec: &mut Recorder) {
        for ((name, after), (_, prior)) in self.kernels().into_iter().zip(before.kernels()) {
            rec.episode(name, after.saturating_sub(prior) as f64);
        }
        let written = self.wchar.saturating_sub(before.wchar) as f64;
        rec.episode(
            "persist.bytes_written_per_user_byte",
            written / (updates as f64 * UPDATE_BYTES),
        );
    }
}

/// Cascade counts per level and write amplification between two stat
/// readings of one hierarchy (or the sum over a sharded engine's shards).
fn record_hier_stats(before: &HierStats, after: &HierStats, rec: &mut Recorder) {
    for (level, name) in [
        "matrix.cascades_L0",
        "matrix.cascades_L1",
        "matrix.cascades_L2",
    ]
    .into_iter()
    .enumerate()
    {
        rec.episode(
            name,
            (after.cascades_from_level(level) - before.cascades_from_level(level)) as f64,
        );
    }
    let moved = after.total_entries_moved() - before.total_entries_moved();
    let updates = (after.updates - before.updates).max(1);
    rec.episode("matrix.write_amp", moved as f64 / updates as f64);
}

/// The timed phase of an episode: its clock and the counters at its start.
struct TimedPhase {
    start: Instant,
    counters: Counters,
}

impl TimedPhase {
    fn start(rec: &mut Recorder) -> Self {
        let counters = Counters::read();
        counters.snapshot("timed phase start", rec);
        Self {
            start: Instant::now(),
            counters,
        }
    }

    /// Record the phase's rate, its length (for the trace overhead) and
    /// the counter deltas.
    fn end(self, rec: &mut Recorder, cx: &Episode, updates: usize) {
        let secs = self.start.elapsed().as_secs_f64();
        let after = Counters::read();
        after.snapshot("timed phase end", rec);
        rec.episode("ingest_rate", updates as f64 / secs);
        let key = if cx.traced {
            "timed_s_traced"
        } else {
            "timed_s_plain"
        };
        rec.episode(key, secs);
        after.record_since(&self.counters, updates, rec);
    }
}

/// One `HierMatrix::update_batch` call.  In the timed phase of a traced
/// episode (`classify`) it is also classified as an append, a level-0
/// settle or a cascade from the entry counts and cascade statistics read
/// before and after it.  Returns µs.
fn hier_batch(
    rec: &mut Recorder,
    m: &mut HierMatrix<u64>,
    cx: &Episode,
    (lo, hi): (usize, usize),
    parent: SpanId,
    classify: bool,
) -> f64 {
    let (r, c, v) = cx.input.slice(lo, hi);
    let before =
        (classify && cx.traced).then(|| (m.level_entries_bound(0), m.stats().total_cascades()));
    let (_, us) = rec.call("hier.update_batch", parent, || m.update_batch(r, c, v));
    if let Some((l0, cascades)) = before {
        let class = if m.stats().total_cascades() > cascades {
            "matrix.cascade"
        } else if m.level_entries_bound(0) < l0 + (hi - lo) {
            "matrix.settle"
        } else {
            "matrix.append"
        };
        rec.push(class, us);
    }
    us
}

/// Record one reader query under its kind and in the pooled series.
fn query(rec: &mut Recorder, kind_series: &'static str, us: f64) {
    rec.push(kind_series, us);
    rec.push("query", us);
}

/// Record one push-down query of the sharded engine.
fn sharded_query(rec: &mut Recorder, kind_series: &'static str, us: f64) {
    query(rec, kind_series, us);
    rec.push("sharded.query", us);
}

fn check_pagerank(rec: &mut Recorder, cx: &Episode, pr: &SparseVector<f64>) {
    rec.check("pagerank", cx.oracle.check_pagerank(pr));
}

/// The sampled cells, rows and columns, top-k and in-degree top-k checks
/// through a reader.
fn check_reads<R: MatrixReader<u64> + ?Sized>(rec: &mut Recorder, cx: &Episode, m: &mut R) {
    let o = cx.oracle;
    for &(r, c) in &o.sample_cells {
        rec.check("sampled get", o.check_get(r, c, m.read_get(r, c)));
    }
    let mut out = Vec::new();
    for &r in &o.sample_rows {
        m.read_row(r, &mut out);
        rec.check("sampled row", o.check_row(r, &out));
    }
    for &c in &o.sample_cols {
        m.read_col(c, &mut out);
        rec.check("sampled column", o.check_col(c, &out));
    }
    let top = m.read_top_k(TOP_K);
    rec.check("top-k", o.check_top(TOP_K, &top, false));
    let top = m.read_in_top_k(TOP_K);
    rec.check("in-degree top-k", o.check_top(TOP_K, &top, true));
}

/// The closing checks of an in-memory hierarchy: nnz, total weight and
/// the full content every episode, reads through the reader on the first.
fn check_hier(rec: &mut Recorder, cx: &Episode, m: &mut HierMatrix<u64>) {
    rec.check("nnz", cx.oracle.check_nnz(m.nvals_exact()));
    rec.check("total weight", cx.oracle.check_weight(m.total_weight()));
    let mut check = cx.oracle.content();
    m.read_entries(&mut |r, c, v| check.push(r, c, v));
    rec.check("content", check.finish());
    if cx.first {
        check_reads(rec, cx, m);
    }
}

/// Reopen a store and read it back in full; `recover_s` runs from the
/// open call until the read is verified.  Returns the reopened system and
/// the weight the read summed.
fn recover<M>(
    rec: &mut Recorder,
    cx: &Episode,
    parent: SpanId,
    open: impl FnOnce() -> GrbResult<M>,
    read: impl FnOnce(&mut M, &mut ContentCheck) -> GrbResult<()>,
) -> Option<(M, u64)> {
    let disk = dir_bytes(&cx.store) as f64;
    rec.episode("persist.disk_bytes", disk);
    rec.episode("disk_bytes_per_entry", disk / cx.oracle.nnz().max(1) as f64);
    let t = Instant::now();
    let (m, open_us) = rec.call("persist.open", parent, open);
    let mut m = m?;
    let mut check = cx.oracle.content();
    let (ok, read_us) = rec.call("persist.first_read", parent, || read(&mut m, &mut check));
    let verified = check.finish();
    let recover_s = t.elapsed().as_secs_f64();
    ok?;
    rec.check("recovered content", verified);
    rec.episode("recover_s", recover_s);
    rec.episode("persist.reopen_ms", open_us / 1e3);
    rec.episode("persist.first_read_ms", read_us / 1e3);
    let weight = check.weight();
    Some((m, weight))
}

/// The closing checkpoint round trip of the in-memory workloads: save the
/// final matrix into a fresh durable store, close it, reopen and verify.
fn checkpoint_round_trip(rec: &mut Recorder, cx: &Episode, m: HierMatrix<u64>, parent: SpanId) {
    let (flat, _) = rec.time("hier.materialize", parent, || m.materialize_ref());
    drop(m);
    let (d, us) = rec.call("persist.create", parent, || {
        HierMatrix::<u64>::new_durable(DIM, DIM, hier_config(), durable_config(&cx.store))
    });
    rec.episode("persist.create_ms", us / 1e3);
    let Some(mut d) = d else { return };
    rec.call("persist.save", parent, || d.update_matrix(&flat));
    rec.call("persist.checkpoint", parent, || d.flush());
    drop(d);
    drop(flat);
    let store = cx.store.clone();
    let reopened = recover(
        rec,
        cx,
        parent,
        || HierMatrix::<u64>::open_with(durable_config(&store)),
        |m, check| {
            m.read_entries(&mut |r, c, v| check.push(r, c, v));
            Ok(())
        },
    );
    if let Some((m, weight)) = reopened {
        rec.episode(
            "persist.weight_counter_mismatch",
            weight as f64 - m.total_weight_f64(),
        );
        let report = m.recovery_report().cloned().unwrap_or_default();
        rec.episode("persist.levels_loaded", report.levels_loaded as f64);
        rec.episode(
            "persist.wal_records_replayed",
            report.wal_records_replayed as f64,
        );
    }
}

fn new_hier(rec: &mut Recorder, parent: SpanId) -> Option<HierMatrix<u64>> {
    rec.call("hier.new", parent, || {
        HierMatrix::<u64>::new(DIM, DIM, hier_config())
    })
    .0
}

fn paper_ingest(rec: &mut Recorder, cx: &Episode, ep: SpanId) {
    let s = cx.sizes;
    let (n, warm) = (cx.input.len(), s.paper_warm);

    let t = Instant::now();
    let setup = rec.tr.open("bench.setup", ep);
    let Some(mut m) = new_hier(rec, setup) else {
        return;
    };
    for b in Input::batches(0, warm, s.paper_batch) {
        hier_batch(rec, &mut m, cx, b, setup, false);
    }
    rec.tr.close(setup);
    rec.episode("setup_s", t.elapsed().as_secs_f64());

    let stats = m.stats().clone();
    let phase = TimedPhase::start(rec);
    for b in Input::batches(warm, n, s.paper_batch) {
        let step = rec.tr.open("bench.step", ep);
        let us = hier_batch(rec, &mut m, cx, b, step, true);
        rec.push("batch", us);
        rec.tr.close(step);
    }
    rec.call("hier.flush", ep, || m.flush());
    phase.end(rec, cx, n - warm);
    record_hier_stats(&stats, m.stats(), rec);
    rec.episode(
        "mem_bytes_per_entry",
        m.memory_bytes() as f64 / cx.oracle.nnz().max(1) as f64,
    );

    let (pr, us) = rec.time("algo.pagerank", ep, || run_pagerank(&mut m));
    rec.push("pagerank", us);
    check_pagerank(rec, cx, &pr);
    drop(pr);

    // Read-back: row extracts of a uniform sample of the matrix's rows,
    // each checked against the oracle.  One query kind keeps the pooled
    // median inside one latency cluster.
    let step = rec.tr.open("bench.readback", ep);
    let mut out = Vec::new();
    for r in cx.oracle.spread_rows(s.paper_readback) {
        let (_, us) = rec.time("reader.row", step, || m.read_row(r, &mut out));
        query(rec, "reader.row", us);
        rec.check("read-back row", cx.oracle.check_row(r, &out));
    }
    rec.tr.close(step);

    check_hier(rec, cx, &mut m);
    checkpoint_round_trip(rec, cx, m, ep);
}

fn ip_mixed(rec: &mut Recorder, cx: &Episode, ep: SpanId) {
    let s = cx.sizes;
    let (n, warm) = (cx.input.len(), s.ip_warm);

    let t = Instant::now();
    let setup = rec.tr.open("bench.setup", ep);
    let Some(mut m) = new_hier(rec, setup) else {
        return;
    };
    for b in Input::batches(0, warm, s.ip_batch) {
        hier_batch(rec, &mut m, cx, b, setup, false);
    }
    rec.time("reader.activate_rows", setup, || m.read_nnz());
    rec.time("reader.activate_cols", setup, || m.read_in_top_k(1));
    rec.tr.close(setup);
    rec.episode("setup_s", t.elapsed().as_secs_f64());

    let stats = m.stats().clone();
    let mut last_pr = None;
    let mut out = Vec::new();
    let phase = TimedPhase::start(rec);
    for (b, (lo, hi)) in Input::batches(warm, n, s.ip_batch).enumerate() {
        let step = rec.tr.open("bench.step", ep);
        let us = hier_batch(rec, &mut m, cx, (lo, hi), step, true);
        rec.push("batch", us);
        // Targets come from the batch just ingested.
        let i = lo + (b * 7919) % (hi - lo);
        let (r, c) = (cx.input.rows[i], cx.input.cols[i]);
        let (_, us) = rec.time("reader.get", step, || m.read_get(r, c));
        query(rec, "reader.get", us);
        let (_, us) = rec.time("reader.row_degree", step, || m.read_row_degree(r));
        query(rec, "reader.row_degree", us);
        let (series, us) = match b % 4 {
            0 => (
                "reader.row",
                rec.time("reader.row", step, || m.read_row(r, &mut out)).1,
            ),
            1 => (
                "reader.col",
                rec.time("reader.col", step, || m.read_col(c, &mut out)).1,
            ),
            2 => (
                "reader.top_k",
                rec.time("reader.top_k", step, || m.read_top_k(TOP_K)).1,
            ),
            _ => (
                "reader.in_top_k",
                rec.time("reader.in_top_k", step, || m.read_in_top_k(TOP_K))
                    .1,
            ),
        };
        query(rec, series, us);
        if (b + 1) % s.ip_pagerank_every == 0 {
            let (pr, us) = rec.time("algo.pagerank", step, || run_pagerank(&mut m));
            rec.push("pagerank", us);
            last_pr = Some(pr);
        }
        rec.tr.close(step);
    }
    rec.call("hier.flush", ep, || m.flush());
    phase.end(rec, cx, n - warm);
    record_hier_stats(&stats, m.stats(), rec);
    rec.episode(
        "mem_bytes_per_entry",
        m.memory_bytes() as f64 / cx.oracle.nnz().max(1) as f64,
    );

    // The last PageRank ran after the last batch, on the full content.
    match last_pr {
        Some(pr) => check_pagerank(rec, cx, &pr),
        None => rec.check("pagerank", Err("no PageRank ran".into())),
    }
    check_hier(rec, cx, &mut m);
    checkpoint_round_trip(rec, cx, m, ep);
}

fn durable_sharded(rec: &mut Recorder, cx: &Episode, ep: SpanId) {
    let s = cx.sizes;
    let (n, warm) = (cx.input.len(), s.durable_warm);
    let open = |store: &Path| {
        ShardedHierMatrix::<u64>::new_durable(
            DIM,
            DIM,
            hier_config(),
            ShardedConfig::with_shards(1),
            durable_config(store),
        )
    };

    let t = Instant::now();
    let setup = rec.tr.open("bench.setup", ep);
    let (m, us) = rec.call("persist.create", setup, || open(&cx.store));
    rec.episode("persist.create_ms", us / 1e3);
    let Some(mut m) = m else { return };
    for (lo, hi) in Input::batches(0, warm, s.durable_batch) {
        let (r, c, v) = cx.input.slice(lo, hi);
        rec.call("sharded.update_batch", setup, || m.update_batch(r, c, v));
    }
    rec.call("sharded.flush", setup, || m.flush());
    rec.tr.close(setup);
    rec.episode("setup_s", t.elapsed().as_secs_f64());

    let stats = rec
        .call("sharded.stats", ep, || m.aggregate_stats())
        .0
        .unwrap_or_default();
    let (rounds, chunks, pushdowns) = (m.rounds(), m.chunks_sent(), m.pushdown_queries());
    let mut out = Vec::new();
    let phase = TimedPhase::start(rec);
    for (b, (lo, hi)) in Input::batches(warm, n, s.durable_batch).enumerate() {
        let step = rec.tr.open("bench.step", ep);
        let (r, c, v) = cx.input.slice(lo, hi);
        let (_, us) = rec.call("sharded.update_batch", step, || m.update_batch(r, c, v));
        rec.push("batch", us);
        rec.push("sharded.insert", us);
        if (b + 1) % s.durable_refresh_every == 0 {
            // Dashboard refresh: the top sources, each one's row, and the
            // column of a destination from the batch just ingested.
            let (top, us) = rec.call("sharded.top_k", step, || m.try_read_top_k(TOP_K));
            sharded_query(rec, "reader.top_k", us);
            for (row, _) in top.unwrap_or_default() {
                let (_, us) = rec.call("sharded.row", step, || m.try_read_row(row, &mut out));
                sharded_query(rec, "reader.row", us);
            }
            let col = cx.input.cols[lo + (b * 7919) % (hi - lo)];
            let (_, us) = rec.call("sharded.col", step, || m.try_read_col(col, &mut out));
            sharded_query(rec, "reader.col", us);
        }
        rec.tr.close(step);
    }
    let (_, us) = rec.call("sharded.flush", ep, || m.flush());
    rec.push("sharded.flush", us);
    phase.end(rec, cx, n - warm);
    rec.episode("sharded.rounds", (m.rounds() - rounds) as f64);
    rec.episode("sharded.chunks_sent", (m.chunks_sent() - chunks) as f64);
    rec.episode(
        "sharded.pushdown_queries",
        (m.pushdown_queries() - pushdowns) as f64,
    );
    if let (Some(after), _) = rec.call("sharded.stats", ep, || m.aggregate_stats()) {
        record_hier_stats(&stats, &after, rec);
    }

    let (pr, us) = rec.time("algo.pagerank", ep, || run_pagerank(&mut m));
    rec.push("pagerank", us);
    match m.take_read_error() {
        None => check_pagerank(rec, cx, &pr),
        Some(e) => rec.check("pagerank", Err(e.to_string())),
    }
    drop(pr);
    rec.time("sharded.close", ep, || drop(m));

    let store = cx.store.clone();
    let reopened = recover(
        rec,
        cx,
        ep,
        || open(&store),
        |m, check| m.try_read_entries(&mut |r, c, v| check.push(r, c, v)),
    );
    let Some((mut m, weight)) = reopened else {
        return;
    };
    // Known defect: the producer-side weight counter restarts at 0 on
    // reopen although the recovered content holds every update.
    rec.episode(
        "persist.weight_counter_mismatch",
        weight as f64 - m.total_weight_f64(),
    );
    let reports = m.shard_recovery_reports();
    let sum = |f: fn(&hyperstream_hier::RecoveryReport) -> f64| -> f64 {
        reports.iter().flatten().map(f).sum()
    };
    rec.episode("persist.levels_loaded", sum(|r| r.levels_loaded as f64));
    rec.episode(
        "persist.wal_records_replayed",
        sum(|r| r.wal_records_replayed as f64),
    );
    let nnz = m.try_read_nnz().map_err(|e| e.to_string());
    rec.check("recovered nnz", nnz.and_then(|n| cx.oracle.check_nnz(n)));
    if cx.first {
        check_reads(rec, cx, &mut m);
        if let Some(e) = m.take_read_error() {
            rec.check("recovered reads", Err(e.to_string()));
        }
    }
    drop(m);

    // Memory per entry of the recovered hierarchy: the shard's store
    // opened directly as a HierMatrix.
    let shard = durable_config(&cx.store).shard(0);
    if let (Some(h), _) = rec.call("persist.open_shard", ep, || {
        HierMatrix::<u64>::open_with(shard)
    }) {
        rec.episode(
            "mem_bytes_per_entry",
            h.memory_bytes() as f64 / cx.oracle.nnz().max(1) as f64,
        );
    }
}
