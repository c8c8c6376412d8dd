//! The sharded parallel ingest engine: a **persistent pool** of N worker
//! threads, each owning a private [`HierMatrix`] shard, fed through
//! long-lived bounded SPSC tuple-batch channels.
//!
//! The paper's 75 G-updates/s headline is the *sum* of many independent
//! hierarchical hypersparse matrices, one per process.  Within one process
//! the same structure is a [`ShardedHierMatrix`]: a row partitioner routes
//! every update to the shard that owns its row, each shard is an ordinary
//! [`HierMatrix`] maintained by its own worker thread, and a query
//! materialises `Σ_shards Σ_levels` — valid because the shards hold disjoint
//! row sets and ⊕ is associative and commutative.
//!
//! Two effects make sharding pay:
//!
//! * **parallelism** — shards never communicate, so N cores stream N times
//!   as fast (the paper's process-level scaling, here at thread level); and
//! * **working-set reduction** — each shard's levels hold ~1/N of the
//!   entries, so every cascade merge rewrites ~1/N of the data.  This is
//!   measurable even on a single core once a stream outgrows one
//!   hierarchy's cut schedule (see the `parallel_rate` benchmark).
//!
//! # Threading model
//!
//! Workers are **persistent threads** spawned once at construction.  Each
//! worker owns its shard (behind an uncontended mutex that queries take
//! after a drain barrier), parks on its SPSC command channel when idle, and
//! lives until the engine is dropped — there are no per-round spawns or
//! joins.  The long-lived threads are also the parking spot the roadmap's
//! NUMA/affinity follow-on needs: a worker is a stable OS thread that can
//! be pinned once, not a scoped thread that vanishes every round.
//!
//! Inserts are staged into per-shard partition buffers
//! ([`PartitionBuffers`]); a shard's staging is handed to its worker
//! *whole* (a zero-copy `Vec` handoff, with emptied buffers recycled back
//! through a return channel) as soon as [`ShardedConfig::chunk_tuples`]
//! accumulate, so partitioning overlaps worker application continuously.
//! Every [`ShardedConfig::round_tuples`] staged updates the engine counts
//! one ingest *round* and force-dispatches all remainders.  The bounded
//! command channels provide backpressure: the producer blocks when a shard
//! falls [`ShardedConfig::channel_depth`] batches behind.
//!
//! Queries and [`ShardedHierMatrix::flush`] use a **drain barrier**: a
//! barrier message per worker, acknowledged only after every previously
//! queued batch has been applied (workers also report their thread id,
//! which the thread-reuse tests round-trip).
//!
//! # Fault tolerance
//!
//! Every worker runs under a panic-catching supervision wrapper: a panic
//! is captured (payload preserved), the worker's shared liveness flag
//! clears, and the engine observes the death as a *typed* error —
//! [`GrbError::ShardsLost`] — instead of panicking or hanging.  The
//! producer never blocks unboundedly: sends fail immediately once a dead
//! worker's channel disconnects (a live worker always drains, so the
//! blocking send is bounded by backpressure alone), and every ack/reply
//! wait is capped by [`ShardedConfig::wait_timeout`]
//! ([`GrbError::Timeout`]; a timeout does not declare the worker dead).
//! [`ShardedHierMatrix::health`] reports the pool state as an
//! [`EngineHealth`]; with [`ShardedConfig::degraded_reads`] enabled,
//! whole-matrix reads answer from the survivors and record the skipped
//! row bands; [`ShardedHierMatrix::respawn_shard`] rebuilds a dead worker
//! and replays the batches retained under
//! [`ShardedConfig::replay_limit_tuples`].  The `failpoints` feature
//! compiles deterministic fault-injection sites into the worker loop
//! (see [`crate::failpoint`]) — the chaos suite drives panics, injected
//! errors, and stalls through every one of these paths.

use crate::config::HierConfig;
use crate::matrix::HierMatrix;
use crate::persist::{DurableConfig, RecoveryReport};
use crate::pool::{
    col_degree_histogram, rank_col_degrees, rerank_top_k, row_hash, sum_col_degrees,
    sum_histograms, PartitionBuffers,
};
use crate::stats::HierStats;
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::ops::ewise_add::ewise_add_into;
use hyperstream_graphblas::ops::reader_mx::{vxm_pattern_levels_f64, PatternAdd};
use hyperstream_graphblas::sink::check_tuple_lengths;
use hyperstream_graphblas::GrbError;
use hyperstream_graphblas::{
    validate_index, CursorReader, GrbResult, Index, Matrix, MatrixReader, MatrixSnapshot,
    ScalarType, SpaScratch, SparseVector, StreamingSink,
};
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

/// How updates are routed to shards.  Both strategies depend only on the
/// row, so every `(row, col)` cell lives in exactly one shard and per-shard
/// results sum without overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Multiplicative row hash (default): spreads adjacent rows across
    /// shards, robust to skewed row spaces.
    RowHash,
    /// Contiguous row bands: shard `k` owns rows
    /// `[k·ceil(nrows/N), (k+1)·ceil(nrows/N))`.  Preserves row locality
    /// within a shard (useful when queries are row-range scans).
    RowRange,
}

impl ShardPartitioner {
    /// The shard that owns `row` in an `nshards`-way partition of `nrows`.
    pub fn shard(&self, row: Index, nrows: Index, nshards: usize) -> usize {
        match self {
            ShardPartitioner::RowHash => (row_hash(row) % nshards.max(1) as u64) as usize,
            ShardPartitioner::RowRange => {
                let band = nrows.div_ceil(nshards.max(1) as u64).max(1);
                ((row / band) as usize).min(nshards.max(1) - 1)
            }
        }
    }
}

/// Tuning knobs of the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Number of shards (= persistent worker threads).  Clamped to at
    /// least 1.
    pub shards: usize,
    /// Row partitioning strategy.
    pub partitioner: ShardPartitioner,
    /// Staged tuples at which a shard's buffer is handed to its worker.
    /// Larger batches amortise channel synchronisation; smaller batches
    /// start workers sooner.
    pub chunk_tuples: usize,
    /// Bounded channel capacity in batches — the producer blocks when a
    /// worker falls this far behind (backpressure).
    pub channel_depth: usize,
    /// Staged tuples that count one ingest round (all remainders are
    /// force-dispatched).  Rounds also complete on flush and queries.
    pub round_tuples: usize,
    /// Upper bound on any single wait for a worker (barrier acks, query
    /// replies).  A wait that exceeds it returns [`GrbError::Timeout`]
    /// instead of blocking forever; a timeout does *not* mark the worker
    /// lost (a slow worker is not a dead one — channel disconnection is
    /// what proves death).  The default is generous: it exists to bound
    /// pathological stalls, not to race healthy workers.
    pub wait_timeout: Duration,
    /// When `true`, whole-matrix reads against a degraded engine answer
    /// from the surviving shards and record the lost row bands in
    /// [`ShardedHierMatrix::last_answer_lost`]; when `false` (default),
    /// any read touching a lost shard returns [`GrbError::ShardsLost`].
    pub degraded_reads: bool,
    /// Per-shard bound on the tuples retained for replay after a worker
    /// loss ([`ShardedHierMatrix::respawn_shard`]).  `0` (default)
    /// disables retention entirely — the ingest hot path then does no
    /// copying — and a respawned shard restarts empty with the loss
    /// recorded.
    pub replay_limit_tuples: usize,
}

impl ShardedConfig {
    /// Default knobs for `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            partitioner: ShardPartitioner::RowHash,
            chunk_tuples: 8192,
            channel_depth: 4,
            round_tuples: 1 << 19,
            wait_timeout: Duration::from_secs(60),
            degraded_reads: false,
            replay_limit_tuples: 0,
        }
    }
}

impl Default for ShardedConfig {
    /// One shard per available core.
    fn default() -> Self {
        Self::with_shards(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }
}

/// Supervision state of the worker pool, derived from per-worker liveness.
///
/// A worker is *lost* when its thread has exited — by panic (the panic
/// payload is captured and reported in [`GrbError::ShardsLost`]) or by
/// channel disconnection.  Losses are permanent until
/// [`ShardedHierMatrix::respawn_shard`] rebuilds the worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineHealth {
    /// Every worker is alive.
    Healthy,
    /// Some workers died; the listed shards' row bands are unreachable.
    /// Reads either fail typed or, with [`ShardedConfig::degraded_reads`],
    /// answer from the survivors.
    Degraded {
        /// Indices of the lost shards, ascending.
        lost: Vec<usize>,
    },
    /// Every worker died — no data is reachable through the pool.
    Failed,
}

/// The outcome of [`ShardedHierMatrix::respawn_shard`]: how much of the
/// lost shard's stream could be restored — from the in-memory replay
/// buffer, or (on a durable engine) from the shard's on-disk store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecovery {
    /// The respawned shard.
    pub shard: usize,
    /// Tuples re-dispatched into the fresh hierarchy from the replay
    /// buffer (always 0 on a durable engine, where the on-disk store is
    /// authoritative and re-dispatching would double-apply under `⊕`).
    pub replayed_tuples: usize,
    /// In-memory engine: tuples that could not be recovered — dropped by
    /// the replay bound (or disabled retention) or retired by a pre-loss
    /// barrier.  Zero means the rebuilt shard is exact.
    ///
    /// Durable engine: an *upper bound* on the at-risk tuples — those
    /// dispatched since the last acknowledged barrier, which may or may
    /// not have reached the store before the worker died (applied batches
    /// are WAL-logged before they touch memory, so under
    /// [`crate::persist::FsyncPolicy::EveryBatch`] everything the worker
    /// actually applied is on disk).  Zero still means provably exact.
    pub lost_tuples: u64,
    /// Present when the shard is durable: what reopening its on-disk
    /// store observed.  `None` on in-memory engines.
    pub disk: Option<RecoveryReport>,
}

/// State shared between the engine and one worker thread's panic wrapper.
#[derive(Debug)]
struct WorkerShared {
    /// Cleared (release) by the worker's unwind wrapper on any exit, and
    /// by the producer when a send/recv finds the channel disconnected.
    /// An `AtomicBool` rather than a mutexed flag so `&self` read paths
    /// (e.g. [`StreamingSink::nvals`]) can record a discovered loss.
    alive: AtomicBool,
    /// The captured panic payload, if the worker died panicking.
    panic_msg: Mutex<Option<String>>,
}

impl WorkerShared {
    fn new() -> Self {
        Self {
            alive: AtomicBool::new(true),
            panic_msg: Mutex::new(None),
        }
    }
}

/// Producer-side retention of one shard's dispatched tuples, replayed into
/// a fresh hierarchy by [`ShardedHierMatrix::respawn_shard`].  Batches are
/// retained from dispatch until the next fully-acknowledged drain barrier
/// (the worker has then provably applied them *and* stayed alive), bounded
/// by [`ShardedConfig::replay_limit_tuples`].
#[derive(Debug, Default)]
struct ReplayBuffer<T> {
    rows: Vec<Index>,
    cols: Vec<Index>,
    vals: Vec<T>,
    /// Tuples dispatched but *not* retained (limit exceeded or retention
    /// disabled).  Non-zero at respawn time means the rebuilt shard is
    /// missing data — recorded, never silent.
    dropped: u64,
    /// Tuples retired by an acknowledged barrier since the last respawn.
    /// Non-zero at respawn time likewise means unrecoverable data: the
    /// dead worker's hierarchy held them and the replay buffer no longer
    /// does.
    retired: u64,
}

impl<T: ScalarType> ReplayBuffer<T> {
    fn retained(&self) -> usize {
        self.rows.len()
    }

    /// Retire retained batches after a fully-acknowledged barrier.
    fn on_barrier_ack(&mut self) {
        self.retired += self.rows.len() as u64;
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Forget everything (after a respawn replayed the retained tuples the
    /// fresh hierarchy corresponds to the buffer exactly).
    fn reset(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
        self.dropped = 0;
        self.retired = 0;
    }
}

/// A tuple batch travelling to a worker (and, emptied, back).
type TupleBuf<T> = (Vec<Index>, Vec<Index>, Vec<T>);

/// Batched-read routing: per shard, the original request indices and the
/// keys that shard owns, so replies scatter back into request order.
type ShardBatch<K> = Vec<(usize, Vec<usize>, Vec<K>)>;

/// Commands a worker consumes from its SPSC channel.
enum WorkerMsg<T> {
    /// Apply a batch of pre-validated tuples to the shard.  The buffers
    /// return through the recycle channel.
    Apply(TupleBuf<T>),
    /// Complete the shard's outstanding cascades.
    Flush,
    /// Acknowledge once every prior message has been applied.
    Barrier(SyncSender<BarrierAck>),
    /// Answer a read query from the owned shard — the query push-down.
    /// Rides the same FIFO channel as `Apply`, so by the time the worker
    /// answers it has applied every previously queued batch (the drain
    /// barrier and the query are one message).
    Query(ReaderQuery, SyncSender<ReaderReply<T>>),
}

/// A read query pushed down to a shard worker.  Row-targeted queries go to
/// the single owning shard; whole-matrix queries fan out to every worker,
/// which answer *in parallel* from their own hierarchies via the merged
/// level cursors — no materialised matrix is built or shipped anywhere.
enum ReaderQuery {
    /// Point get `A(row, col)`.
    Get(Index, Index),
    /// Extract one merged row.
    Row(Index),
    /// Distinct columns in one row.
    RowDegree(Index),
    /// Reduce one row under `+`.
    RowReduce(Index),
    /// The shard's local top-`k` rows by degree.
    TopK(usize),
    /// Distinct cells stored in the shard.
    Nnz,
    /// The shard's sorted entry list.
    Entries,
    /// The shard's sorted entries within a row range (half-open).
    RowRange(Index, Index),
    /// The shard's degree histogram.
    Histogram,
    /// A consistent point-in-time snapshot of the shard (Arc'd levels +
    /// degree-index view): the analytics-while-ingest handoff — the
    /// producer sweeps the snapshot while this worker's channel keeps
    /// draining.
    Snapshot,
    /// Extract one merged column (the shard's slice of it — every shard
    /// may own rows intersecting any column, so column queries always fan
    /// out to the whole pool).
    Col(Index),
    /// Distinct rows in one column of this shard.
    ColDegree(Index),
    /// Reduce one column of this shard under `+`.
    ColReduce(Index),
    /// The shard's **complete** column→in-degree list.  Unlike the row
    /// top-k, a per-shard in-degree *top-k* cannot be re-ranked by the
    /// producer — a column's degree splits across the row-partitioned
    /// shards — so workers ship the full per-column stats and the producer
    /// sums per column before ranking or histogramming.
    InDegrees,
    /// The shard's entries within a column range (half-open), column-major.
    ColRange(Index, Index),
    /// Extract a batch of merged rows (one settle shard-side, row-disjoint
    /// partials reassembled by the producer).
    Rows(Vec<Index>),
    /// Batched point gets.
    GetMany(Vec<(Index, Index)>),
    /// The frontier pattern push `w(j) = ⊕ u(i)` over this shard's slice
    /// of the frontier: the worker runs the reader-native kernel over its
    /// own level DCSRs and ships the partial product back; the producer
    /// folds overlapping output columns under the same monoid.  This is
    /// the distributed `mxv` step of BFS (`min`) and pagerank (`plus`).
    VxmPattern(Vec<(Index, f64)>, PatternAdd),
    /// The shard's complete row → out-degree list (distinct cells per
    /// row, served from the shard's degree index).
    OutDegrees,
}

/// A worker's answer to a [`ReaderQuery`] (disjoint-row partials the
/// producer concatenates or k-way merges).  Replies travel once per query
/// over a rendezvous channel, so the size spread between variants is
/// irrelevant.
#[allow(clippy::large_enum_variant)]
enum ReaderReply<T> {
    Value(Option<T>),
    Row(Vec<(Index, T)>),
    Count(usize),
    TopK(Vec<(Index, usize)>),
    Entries(Vec<(Index, Index, T)>),
    Hist(std::collections::BTreeMap<u64, u64>),
    Snapshot(MatrixSnapshot<T>),
    Rows(Vec<Vec<(Index, T)>>),
    Values(Vec<Option<T>>),
    Push(Vec<(Index, f64)>),
    Degrees(Vec<(Index, u64)>),
}

/// A worker's answer to a drain barrier.
struct BarrierAck {
    /// Index of the acknowledging shard.
    shard: usize,
    /// OS thread identity — round-tripped by the thread-reuse tests to
    /// prove the pool is persistent.
    worker: ThreadId,
    /// First error since the previous barrier, if any — a failed shard
    /// flush or a failed batch apply is latched worker-side and surfaces
    /// here rather than being lost.
    result: GrbResult<()>,
}

/// The producer-side handle of one persistent worker.
#[derive(Debug)]
struct ShardWorker<T> {
    /// Command channel (bounded: provides ingest backpressure).
    tx: SyncSender<WorkerMsg<T>>,
    /// Emptied tuple buffers coming back from the worker.
    recycled: Receiver<TupleBuf<T>>,
    /// The worker thread, joined on drop.
    handle: JoinHandle<()>,
    /// Liveness flag and captured panic payload.
    shared: Arc<WorkerShared>,
}

/// One batch apply inside the worker, behind the fallible
/// `worker-apply-error` fault site — a failure is latched worker-side and
/// surfaces in the next barrier ack.
#[cfg_attr(not(feature = "failpoints"), allow(unused_variables))]
fn apply_batch<T: ScalarType>(
    shard_idx: usize,
    shard: &Mutex<HierMatrix<T>>,
    rows: &[Index],
    cols: &[Index],
    vals: &[T],
) -> GrbResult<()> {
    crate::failpoint!("worker-apply-error", shard_idx);
    shard.lock().update_batch(rows, cols, vals)
}

/// The worker thread body: park on the channel, apply batches to the owned
/// shard, answer barriers.  Exits when the engine drops its sender.
fn worker_loop<T: ScalarType>(
    shard_idx: usize,
    shard: Arc<Mutex<HierMatrix<T>>>,
    rx: Receiver<WorkerMsg<T>>,
    recycle: Sender<TupleBuf<T>>,
) {
    let mut error: GrbResult<()> = Ok(());
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Apply((mut rows, mut cols, mut vals)) => {
                crate::failpoint_panic!("worker-apply", shard_idx);
                if error.is_ok() {
                    error = apply_batch(shard_idx, &shard, &rows, &cols, &vals);
                }
                rows.clear();
                cols.clear();
                vals.clear();
                // The engine may already be shutting down; dropping the
                // buffers then is fine.
                let _ = recycle.send((rows, cols, vals));
            }
            WorkerMsg::Flush => {
                // Latch a failed flush: the next barrier ack reports it
                // instead of the outcome silently vanishing.
                let result = shard.lock().flush();
                if error.is_ok() {
                    error = result;
                }
            }
            WorkerMsg::Barrier(ack) => {
                crate::failpoint_panic!("worker-barrier", shard_idx);
                let _ = ack.send(BarrierAck {
                    shard: shard_idx,
                    worker: std::thread::current().id(),
                    result: std::mem::replace(&mut error, Ok(())),
                });
            }
            WorkerMsg::Query(query, reply) => {
                crate::failpoint_panic!("worker-query", shard_idx);
                let mut shard = shard.lock();
                let answer = match query {
                    ReaderQuery::Get(r, c) => ReaderReply::Value(shard.read_get(r, c)),
                    ReaderQuery::Row(r) => {
                        let mut out = Vec::new();
                        shard.read_row(r, &mut out);
                        ReaderReply::Row(out)
                    }
                    ReaderQuery::RowDegree(r) => ReaderReply::Count(shard.read_row_degree(r)),
                    ReaderQuery::RowReduce(r) => ReaderReply::Value(shard.read_row_reduce(r)),
                    ReaderQuery::TopK(k) => ReaderReply::TopK(shard.read_top_k(k)),
                    ReaderQuery::Nnz => ReaderReply::Count(shard.read_nnz()),
                    ReaderQuery::Entries => {
                        let mut out = Vec::new();
                        shard.read_entries(&mut |r, c, v| out.push((r, c, v)));
                        ReaderReply::Entries(out)
                    }
                    ReaderQuery::RowRange(lo, hi) => {
                        let mut out = Vec::new();
                        shard.read_row_range(lo, hi, &mut |r, c, v| out.push((r, c, v)));
                        ReaderReply::Entries(out)
                    }
                    ReaderQuery::Histogram => ReaderReply::Hist(shard.read_degree_histogram()),
                    ReaderQuery::Snapshot => ReaderReply::Snapshot(shard.snapshot()),
                    ReaderQuery::Col(c) => {
                        let mut out = Vec::new();
                        shard.read_col(c, &mut out);
                        ReaderReply::Row(out)
                    }
                    ReaderQuery::ColDegree(c) => ReaderReply::Count(shard.read_col_degree(c)),
                    ReaderQuery::ColReduce(c) => ReaderReply::Value(shard.read_col_reduce(c)),
                    ReaderQuery::InDegrees => {
                        // nnz bounds the number of distinct columns, so
                        // this is the shard's complete column stat list.
                        let bound = shard.read_nnz();
                        ReaderReply::TopK(shard.read_in_top_k(bound))
                    }
                    ReaderQuery::ColRange(lo, hi) => {
                        let mut out = Vec::new();
                        shard.read_col_range(lo, hi, &mut |r, c, v| out.push((r, c, v)));
                        ReaderReply::Entries(out)
                    }
                    ReaderQuery::Rows(rows) => ReaderReply::Rows(shard.read_rows(&rows)),
                    ReaderQuery::GetMany(keys) => ReaderReply::Values(shard.read_get_many(&keys)),
                    ReaderQuery::VxmPattern(u, add) => {
                        let mut spa = SpaScratch::new();
                        let mut out = Vec::new();
                        shard.with_level_dcsrs(&mut |lv| {
                            vxm_pattern_levels_f64(&u, lv, add, &mut spa, &mut out);
                        });
                        ReaderReply::Push(out)
                    }
                    ReaderQuery::OutDegrees => ReaderReply::Degrees(
                        shard
                            .out_degrees()
                            .expect("hier shards always serve out-degrees"),
                    ),
                };
                let _ = reply.send(answer);
            }
        }
    }
}

/// An N-way sharded hierarchical hypersparse matrix with parallel ingest
/// over a persistent worker pool.
///
/// See the [module documentation](self) for the design.  The engine
/// implements [`StreamingSink`], so the existing `make_sink`/`drive_sink`
/// measurement harness drives it unchanged.
#[derive(Debug)]
pub struct ShardedHierMatrix<T> {
    nrows: Index,
    ncols: Index,
    config: ShardedConfig,
    /// The shard hierarchies.  A worker locks its own shard only while
    /// applying a batch; the engine locks a shard only after a drain
    /// barrier, so the mutexes are uncontended by construction.
    shards: Vec<Arc<Mutex<HierMatrix<T>>>>,
    workers: Vec<ShardWorker<T>>,
    staging: PartitionBuffers<T>,
    /// Exact sum of all successfully ingested weight (staged, in flight,
    /// or applied) — kept producer-side so [`StreamingSink::total_weight`]
    /// needs no barrier.
    ingested_weight: f64,
    /// Staged tuples since the last completed round.
    since_round: usize,
    rounds: u64,
    chunks_sent: u64,
    /// Read queries answered by the worker pool (never through a
    /// materialised matrix) — the counter the no-materialisation tests
    /// assert against.
    pushdown_queries: u64,
    /// Workers consulted by the most recent pushed-down query — the
    /// range-dispatch tests assert a narrow `read_row_range` on a
    /// RowRange-partitioned engine touches only the overlapping workers.
    last_fanout: usize,
    /// Producer-side cache of the summed column → in-degree map.  Unlike
    /// row rankings (disjoint rows, rerank per query), the in-degree
    /// ranking needs every shard's full column stats shipped and summed —
    /// expensive enough that a query burst must not repeat it.  Any staged
    /// tuple invalidates the cache; flushes and settles don't (they never
    /// change the represented union).
    in_degrees_cache: Option<std::collections::BTreeMap<Index, usize>>,
    /// Per-shard replay retention (empty vectors when
    /// [`ShardedConfig::replay_limit_tuples`] is 0).
    replay: Vec<ReplayBuffer<T>>,
    /// Shard cut schedule, kept so [`Self::respawn_shard`] can build a
    /// fresh hierarchy identical to the lost one's.
    hier_config: HierConfig,
    /// Durable backing for the whole engine: shard `i` persists to
    /// `dir/shard-i` ([`DurableConfig::shard`]).  `None` for in-memory
    /// engines.  Kept so [`Self::respawn_shard`] can reopen a lost
    /// shard's store instead of rebuilding from the replay buffer.
    durable: Option<DurableConfig>,
    /// First error swallowed by an infallible [`MatrixReader`] method since
    /// the last [`Self::take_read_error`] — the trait's signatures cannot
    /// carry it, so it is latched here instead of vanishing.  Mutexed so
    /// `&self` paths (e.g. [`StreamingSink::nvals`]) can latch too.
    last_error: Mutex<Option<GrbError>>,
    /// Shards skipped by the most recent degraded read (empty when the
    /// answer was complete).
    last_answer_lost: Vec<usize>,
}

/// Spawn one supervised worker thread for shard `i`: the loop runs under
/// `catch_unwind`, and any exit — panic or channel closure — clears the
/// shared liveness flag so the producer observes the death instead of
/// blocking on it.
fn spawn_worker<T: ScalarType>(
    i: usize,
    shard: Arc<Mutex<HierMatrix<T>>>,
    depth: usize,
) -> ShardWorker<T> {
    let (tx, rx) = sync_channel::<WorkerMsg<T>>(depth);
    let (recycle_tx, recycle_rx) = channel::<TupleBuf<T>>();
    let shared = Arc::new(WorkerShared::new());
    let worker_shared = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name(format!("shard-worker-{i}"))
        .spawn(move || {
            // AssertUnwindSafe: on panic the shard hierarchy may be
            // mid-mutation; the engine treats a lost shard's contents as
            // unreliable and rebuilds from scratch on respawn, so the
            // broken invariants never escape.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                worker_loop(i, shard, rx, recycle_tx)
            }));
            if let Err(payload) = outcome {
                let msg = panic_message(payload.as_ref());
                *worker_shared.panic_msg.lock() = Some(msg);
            }
            worker_shared.alive.store(false, Ordering::Release);
        })
        .expect("spawn shard worker");
    ShardWorker {
        tx,
        recycled: recycle_rx,
        handle,
        shared,
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

impl<T: ScalarType> ShardedHierMatrix<T> {
    /// Create an engine whose shards are `nrows x ncols` hierarchies with
    /// the cut schedule `hier_config`, spawning one persistent worker
    /// thread per shard.
    pub fn new(
        nrows: Index,
        ncols: Index,
        hier_config: HierConfig,
        config: ShardedConfig,
    ) -> GrbResult<Self> {
        Self::build(nrows, ncols, hier_config, config, None)
    }

    /// Create a *durable* engine: shard `i` persists to `durable.dir/shard-i`
    /// with the configured fsync policy.  If the per-shard directories
    /// already hold initialised stores they are reopened (crash recovery
    /// included); otherwise fresh stores are created.  Inspect what each
    /// shard's recovery observed via [`Self::shard_recovery_reports`].
    ///
    /// The shard count, dimensions, and cut schedule must match the ones
    /// the stores were created with ([`GrbError::InvalidValue`] otherwise) —
    /// re-sharding an existing store is not supported, because rows would
    /// migrate between shard directories.
    pub fn new_durable(
        nrows: Index,
        ncols: Index,
        hier_config: HierConfig,
        config: ShardedConfig,
        durable: DurableConfig,
    ) -> GrbResult<Self> {
        Self::build(nrows, ncols, hier_config, config, Some(durable))
    }

    fn build(
        nrows: Index,
        ncols: Index,
        hier_config: HierConfig,
        config: ShardedConfig,
        durable: Option<DurableConfig>,
    ) -> GrbResult<Self> {
        let nshards = config.shards.max(1);
        let depth = config.channel_depth.max(1);
        let mut shards = Vec::with_capacity(nshards);
        let mut workers = Vec::with_capacity(nshards);
        let mut replay = Vec::with_capacity(nshards);
        // A reopened durable store already holds weight: the producer-side
        // counter starts from what the shards recovered.
        let mut recovered_weight = 0.0;
        for i in 0..nshards {
            let hier = match &durable {
                Some(dcfg) => {
                    HierMatrix::open_or_create(nrows, ncols, hier_config.clone(), dcfg.shard(i))?
                }
                None => HierMatrix::new(nrows, ncols, hier_config.clone())?,
            };
            recovered_weight += hier.total_weight_f64();
            let shard = Arc::new(Mutex::new(hier));
            workers.push(spawn_worker(i, Arc::clone(&shard), depth));
            shards.push(shard);
            replay.push(ReplayBuffer::default());
        }
        Ok(Self {
            nrows,
            ncols,
            config: ShardedConfig {
                shards: nshards,
                ..config
            },
            staging: PartitionBuffers::new(nshards),
            shards,
            workers,
            ingested_weight: recovered_weight,
            since_round: 0,
            rounds: 0,
            chunks_sent: 0,
            pushdown_queries: 0,
            last_fanout: 0,
            in_degrees_cache: None,
            replay,
            hier_config,
            durable,
            last_error: Mutex::new(None),
            last_answer_lost: Vec::new(),
        })
    }

    /// Per-shard recovery reports from a durable open: `reports[i]` is
    /// what reopening shard `i`'s store observed, `None` when the shard
    /// was freshly created (or the engine is in-memory, in which case
    /// every entry is `None`).
    pub fn shard_recovery_reports(&self) -> Vec<Option<RecoveryReport>> {
        self.shards
            .iter()
            .map(|s| s.lock().recovery_report().cloned())
            .collect()
    }

    /// Whether this engine persists its shards to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Convenience constructor: `shards` shards with the paper-default cut
    /// schedule and default engine knobs.
    pub fn with_shards(nrows: Index, ncols: Index, shards: usize) -> GrbResult<Self> {
        Self::new(
            nrows,
            ncols,
            HierConfig::paper_default(),
            ShardedConfig::with_shards(shards),
        )
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of shards (= persistent workers).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The engine configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Whether shard `i`'s worker thread is alive.
    fn is_alive(&self, i: usize) -> bool {
        self.workers[i].shared.alive.load(Ordering::Acquire)
    }

    /// Indices of the lost shards, ascending.
    pub fn lost_shards(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&i| !self.is_alive(i))
            .collect()
    }

    /// Current supervision state of the worker pool.
    pub fn health(&self) -> EngineHealth {
        let lost = self.lost_shards();
        if lost.is_empty() {
            EngineHealth::Healthy
        } else if lost.len() == self.workers.len() {
            EngineHealth::Failed
        } else {
            EngineHealth::Degraded { lost }
        }
    }

    /// Shards skipped by the most recent degraded read (empty when the
    /// last answer was complete).  Only meaningful with
    /// [`ShardedConfig::degraded_reads`] enabled.
    pub fn last_answer_lost(&self) -> &[usize] {
        &self.last_answer_lost
    }

    /// Take (and clear) the first error swallowed by an infallible
    /// [`MatrixReader`] method since the previous call.  The fallible
    /// `try_*` duals never latch — prefer them on supervised engines.
    pub fn take_read_error(&self) -> Option<GrbError> {
        self.last_error.lock().take()
    }

    /// The typed error describing the given lost shards, carrying the
    /// first captured panic payload as detail.
    fn lost_error(&self, shards: Vec<usize>) -> GrbError {
        let detail = shards
            .iter()
            .find_map(|&i| self.workers[i].shared.panic_msg.lock().clone())
            .unwrap_or_else(|| "worker channel closed".to_string());
        GrbError::ShardsLost { shards, detail }
    }

    /// Record shard `i`'s worker as dead after a disconnected channel and
    /// return the typed error.
    fn mark_lost(&self, i: usize) -> GrbError {
        self.workers[i].shared.alive.store(false, Ordering::Release);
        self.lost_error(vec![i])
    }

    /// Send one command to shard `i`'s worker.  The send blocks only while
    /// the bounded channel is full of a *live* worker's backlog
    /// (backpressure); a dead worker's channel is disconnected, which
    /// returns immediately — so this cannot hang.  Returns the message on
    /// failure so callers can salvage its payload.
    fn send_msg(&self, i: usize, msg: WorkerMsg<T>) -> Result<(), WorkerMsg<T>> {
        self.workers[i].tx.send(msg).map_err(|e| e.0)
    }

    /// Bounded wait for one reply from shard `i`: a disconnect marks the
    /// worker lost; exceeding [`ShardedConfig::wait_timeout`] returns a
    /// typed timeout *without* declaring the worker dead.
    fn recv_bounded<R>(&self, i: usize, what: &'static str, rx: &Receiver<R>) -> GrbResult<R> {
        match rx.recv_timeout(self.config.wait_timeout) {
            Ok(r) => Ok(r),
            Err(RecvTimeoutError::Disconnected) => Err(self.mark_lost(i)),
            Err(RecvTimeoutError::Timeout) => Err(GrbError::Timeout {
                what,
                after_ms: self.config.wait_timeout.as_millis() as u64,
            }),
        }
    }

    /// Fail fast when any worker is already known lost, unless degraded
    /// reads are enabled — then report the survivors the caller should
    /// target and record the skipped shards.
    fn surviving_targets(&mut self, targets: &[usize]) -> GrbResult<Vec<usize>> {
        let lost: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|&i| !self.is_alive(i))
            .collect();
        if lost.is_empty() {
            self.last_answer_lost.clear();
            return Ok(targets.to_vec());
        }
        if !self.config.degraded_reads {
            return Err(self.lost_error(lost));
        }
        let alive: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|&i| self.is_alive(i))
            .collect();
        self.last_answer_lost = lost;
        Ok(alive)
    }

    /// A snapshot of one shard's hierarchy statistics (drains that shard's
    /// worker first so in-flight batches are counted).
    pub fn shard_stats(&self, i: usize) -> GrbResult<HierStats> {
        self.barrier_shard(i)?;
        Ok(self.shards[i].lock().stats().clone())
    }

    /// Ingest rounds completed so far.  Rounds meter the stream into
    /// [`ShardedConfig::round_tuples`] slices; since the worker pool is
    /// persistent they no longer imply any thread spawns.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Tuple batches handed to workers so far.
    pub fn chunks_sent(&self) -> u64 {
        self.chunks_sent
    }

    /// Read queries answered through the worker pool so far.  The
    /// no-materialisation tests pair this with
    /// [`HierStats::materializations`] staying zero: every pushed-down
    /// query is served from shard-local level cursors.
    pub fn pushdown_queries(&self) -> u64 {
        self.pushdown_queries
    }

    /// The OS thread ids of the worker pool, obtained through a drain
    /// barrier.  Repeated calls on a live engine return the same ids —
    /// the property the thread-reuse tests assert.
    pub fn worker_ids(&self) -> GrbResult<Vec<ThreadId>> {
        let mut acks = Vec::with_capacity(self.workers.len());
        for (shard, ack) in self.collect_barrier_acks() {
            let ack = ack?;
            debug_assert_eq!(ack.shard, shard);
            ack.result?;
            acks.push((ack.shard, ack.worker));
        }
        acks.sort_by_key(|&(shard, _)| shard);
        Ok(acks.into_iter().map(|(_, worker)| worker).collect())
    }

    /// Total updates applied across all shards (drains in-flight batches
    /// first; staged tuples are excluded).  A degraded engine with
    /// [`ShardedConfig::degraded_reads`] sums the surviving shards.
    pub fn total_updates(&self) -> GrbResult<u64> {
        let lost = self.barrier_live()?;
        Ok(self
            .shards
            .iter()
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .map(|(_, s)| s.lock().stats().updates)
            .sum())
    }

    /// Aggregate hierarchy statistics (sums over shards, after a drain).
    /// A degraded engine with [`ShardedConfig::degraded_reads`] sums the
    /// surviving shards.
    pub fn aggregate_stats(&self) -> GrbResult<HierStats> {
        let lost = self.barrier_live()?;
        let levels = self.shards.first().map(|m| m.lock().levels()).unwrap_or(1);
        let mut agg = HierStats::new(levels);
        for (i, m) in self.shards.iter().enumerate() {
            if lost.contains(&i) {
                continue;
            }
            let m = m.lock();
            let s = m.stats();
            agg.updates += s.updates;
            agg.materializations += s.materializations;
            for l in 0..levels {
                agg.cascades[l] += s.cascades_from_level(l);
                agg.entries_moved[l] += s.entries_moved_from_level(l);
            }
        }
        Ok(agg)
    }

    /// Apply one streaming update `A(row, col) += val`.
    pub fn update(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        validate_index(row, self.nrows)?;
        validate_index(col, self.ncols)?;
        let shard = self
            .config
            .partitioner
            .shard(row, self.nrows, self.shards.len());
        self.staging.push(shard, row, col, val);
        self.ingested_weight += val.to_f64();
        self.since_round += 1;
        self.in_degrees_cache = None;
        if self.staging.staged(shard) >= self.config.chunk_tuples.max(1) {
            self.dispatch_shard(shard)?;
        }
        self.maybe_complete_round()
    }

    /// Apply a batch of updates given as parallel slices.  The batch is
    /// validated up front and applies atomically.
    pub fn update_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        check_tuple_lengths(rows, cols, vals)?;
        for i in 0..rows.len() {
            validate_index(rows[i], self.nrows)?;
            validate_index(cols[i], self.ncols)?;
        }
        let nshards = self.shards.len();
        for i in 0..rows.len() {
            let shard = self.config.partitioner.shard(rows[i], self.nrows, nshards);
            self.staging.push(shard, rows[i], cols[i], vals[i]);
            self.ingested_weight += vals[i].to_f64();
        }
        self.since_round += rows.len();
        if !rows.is_empty() {
            self.in_degrees_cache = None;
        }
        let chunk = self.config.chunk_tuples.max(1);
        for shard in 0..nshards {
            if self.staging.staged(shard) >= chunk {
                self.dispatch_shard(shard)?;
            }
        }
        self.maybe_complete_round()
    }

    /// Hand `shard`'s staged tuples to its worker: swap the staging vectors
    /// out (replaced by recycled buffers when the worker has returned any),
    /// and send them whole over the bounded channel.  Blocks when the
    /// worker is `channel_depth` batches behind — the engine's
    /// backpressure (a *dead* worker's channel is disconnected and fails
    /// immediately instead).  On a send failure the batch is re-staged, so
    /// a later [`Self::respawn_shard`] can still dispatch it.
    fn dispatch_shard(&mut self, shard: usize) -> GrbResult<()> {
        if self.staging.staged(shard) == 0 {
            return Ok(());
        }
        if !self.is_alive(shard) {
            return Err(self.lost_error(vec![shard]));
        }
        // Retain a replay copy before the buffers travel (rolled back if
        // the send fails — the tuples then live in staging, not both).
        let batch_len = self.staging.staged(shard);
        let retained_before = self.replay_retain(shard);
        let replacement = self.workers[shard].recycled.try_recv().unwrap_or_default();
        let buf = self.staging.take_shard(shard, replacement);
        match self.send_msg(shard, WorkerMsg::Apply(buf)) {
            Ok(()) => {
                self.chunks_sent += 1;
                Ok(())
            }
            Err(WorkerMsg::Apply((rows, cols, vals))) => {
                // The worker died between the liveness check and the send:
                // salvage the batch back into staging and undo the replay
                // append so the tuples are counted exactly once.
                for i in 0..rows.len() {
                    self.staging.push(shard, rows[i], cols[i], vals[i]);
                }
                self.replay_rollback(shard, retained_before, batch_len);
                Err(self.mark_lost(shard))
            }
            Err(_) => unreachable!("send returned a different message than it was given"),
        }
    }

    /// Append `shard`'s currently staged tuples to its replay buffer
    /// (bounded; overflow is recorded, not silently dropped).  Returns the
    /// buffer's prior retained length for rollback.
    fn replay_retain(&mut self, shard: usize) -> usize {
        let staged = self.staging.staged(shard);
        let rb = &mut self.replay[shard];
        let before = rb.retained();
        let limit = self.config.replay_limit_tuples;
        if limit == 0 || before + staged > limit {
            rb.dropped += staged as u64;
            return before;
        }
        let (r, c, v) = self.staging.shard_slices(shard);
        rb.rows.extend_from_slice(r);
        rb.cols.extend_from_slice(c);
        rb.vals.extend_from_slice(v);
        before
    }

    /// Undo a [`Self::replay_retain`] after a failed dispatch.
    fn replay_rollback(&mut self, shard: usize, retained_before: usize, batch_len: usize) {
        let rb = &mut self.replay[shard];
        if rb.retained() > retained_before {
            rb.rows.truncate(retained_before);
            rb.cols.truncate(retained_before);
            rb.vals.truncate(retained_before);
        } else {
            // The batch was never retained — it was counted as dropped.
            rb.dropped = rb.dropped.saturating_sub(batch_len as u64);
        }
    }

    /// Dispatch every live shard's staged remainder, surfacing the first
    /// failure after trying them all.
    fn dispatch_all(&mut self) -> GrbResult<()> {
        let mut result = Ok(());
        for shard in 0..self.shards.len() {
            if self.staging.staged(shard) == 0 {
                continue;
            }
            if !self.is_alive(shard) {
                // Leave the staged tuples in place for a future respawn.
                if result.is_ok() {
                    result = Err(self.lost_error(vec![shard]));
                }
                continue;
            }
            let r = self.dispatch_shard(shard);
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    /// Count a round once `round_tuples` have been staged since the last
    /// one, force-dispatching all remainders so the round is fully in
    /// flight.
    fn maybe_complete_round(&mut self) -> GrbResult<()> {
        if self.since_round >= self.config.round_tuples.max(1) {
            let r = self.dispatch_all();
            self.since_round = 0;
            self.rounds += 1;
            return r;
        }
        Ok(())
    }

    /// Push one read query down to `shard`'s worker: drain that shard's
    /// staging into its channel, enqueue the query (FIFO ⇒ it acts as its
    /// own drain barrier) and wait for the answer.  Only the owning shard
    /// does any work; the other workers keep ingesting.
    ///
    /// Returns `Ok(None)` when the owning shard is lost and degraded reads
    /// are enabled: the caller substitutes the empty answer and the skipped
    /// shard is recorded in [`Self::last_answer_lost`].
    fn query_shard(
        &mut self,
        shard: usize,
        query: ReaderQuery,
    ) -> GrbResult<Option<ReaderReply<T>>> {
        if !self.is_alive(shard) {
            if self.config.degraded_reads {
                self.last_answer_lost = vec![shard];
                return Ok(None);
            }
            return Err(self.lost_error(vec![shard]));
        }
        self.last_answer_lost.clear();
        self.dispatch_shard(shard)?;
        let (reply_tx, reply_rx) = sync_channel(1);
        if self
            .send_msg(shard, WorkerMsg::Query(query, reply_tx))
            .is_err()
        {
            return Err(self.mark_lost(shard));
        }
        self.pushdown_queries += 1;
        self.last_fanout = 1;
        self.recv_bounded(shard, "query reply", &reply_rx).map(Some)
    }

    /// Push one read query down to a *subset* of workers and collect their
    /// partial answers.  The range dispatch uses this to consult only the
    /// workers whose row bands overlap a scan.  One reply channel per
    /// worker keeps loss attribution exact; all targeted workers still
    /// compute concurrently.
    fn query_shards(
        &mut self,
        shards: &[usize],
        mk: impl Fn() -> ReaderQuery,
    ) -> GrbResult<Vec<ReaderReply<T>>> {
        let targets = self.surviving_targets(shards)?;
        for &s in &targets {
            self.dispatch_shard(s)?;
        }
        let mut receivers = Vec::with_capacity(targets.len());
        for &s in &targets {
            let (reply_tx, reply_rx) = sync_channel(1);
            if self.send_msg(s, WorkerMsg::Query(mk(), reply_tx)).is_err() {
                return Err(self.mark_lost(s));
            }
            receivers.push((s, reply_rx));
        }
        self.pushdown_queries += 1;
        self.last_fanout = targets.len();
        receivers
            .iter()
            .map(|(s, rx)| self.recv_bounded(*s, "query reply", rx))
            .collect()
    }

    /// Push one read query down to *every* worker and collect the partial
    /// answers.  All shards compute concurrently; because shards own
    /// disjoint row sets the producer only concatenates or k-way merges
    /// the partials — no materialised matrices travel through the
    /// channels.
    fn query_all(&mut self, mk: impl Fn() -> ReaderQuery) -> GrbResult<Vec<ReaderReply<T>>> {
        let all: Vec<usize> = (0..self.workers.len()).collect();
        self.query_shards(&all, mk)
    }

    /// Push a *distinct* query down to each listed worker (the batched-read
    /// dispatch: each shard gets exactly the keys it owns) and collect the
    /// replies in the same order as `queries`.  One reply channel per query
    /// keeps the pairing; all targeted workers still compute concurrently.
    /// A `None` slot stands for a lost shard skipped by a degraded read.
    fn query_each(
        &mut self,
        queries: Vec<(usize, ReaderQuery)>,
    ) -> GrbResult<Vec<Option<ReaderReply<T>>>> {
        let targets: Vec<usize> = queries.iter().map(|&(s, _)| s).collect();
        let live = self.surviving_targets(&targets)?;
        for &s in &live {
            self.dispatch_shard(s)?;
        }
        let mut pending = Vec::with_capacity(queries.len());
        for (s, q) in queries {
            if !live.contains(&s) {
                pending.push((s, None));
                continue;
            }
            let (reply_tx, reply_rx) = sync_channel(1);
            if self.send_msg(s, WorkerMsg::Query(q, reply_tx)).is_err() {
                return Err(self.mark_lost(s));
            }
            pending.push((s, Some(reply_rx)));
        }
        self.pushdown_queries += 1;
        self.last_fanout = pending.iter().filter(|(_, rx)| rx.is_some()).count();
        pending
            .into_iter()
            .map(|(s, rx)| match rx {
                None => Ok(None),
                Some(rx) => self.recv_bounded(s, "query reply", &rx).map(Some),
            })
            .collect()
    }

    /// The shards whose row sets can intersect `lo..hi`: a contiguous band
    /// range under the RowRange partitioner, every shard under RowHash.
    fn range_shards(&self, lo: Index, hi: Index) -> Vec<usize> {
        let n = self.shards.len();
        match self.config.partitioner {
            ShardPartitioner::RowRange => {
                let band = self.nrows.div_ceil(n as u64).max(1);
                let first = ((lo / band) as usize).min(n - 1);
                let last =
                    (((hi - 1).min(self.nrows.saturating_sub(1)) / band) as usize).min(n - 1);
                (first..=last).collect()
            }
            ShardPartitioner::RowHash => (0..n).collect(),
        }
    }

    /// Workers consulted by the most recent pushed-down query.
    pub fn last_query_fanout(&self) -> usize {
        self.last_fanout
    }

    /// Take a consistent engine-wide snapshot: staged tuples dispatch,
    /// every worker snapshots its shard at its drain barrier (O(levels)
    /// Arc bumps — no entries are copied or shipped), and the producer
    /// receives one [`MatrixSnapshot`] per shard.  The returned
    /// [`ShardedSnapshot`] answers every [`MatrixReader`] query from the
    /// captured state while the workers keep draining their channels —
    /// the analytics-while-ingest overlap the roadmap parked here.
    pub fn snapshot(&mut self) -> GrbResult<ShardedSnapshot<T>> {
        let shards = self
            .query_all(|| ReaderQuery::Snapshot)?
            .into_iter()
            .map(|reply| match reply {
                ReaderReply::Snapshot(s) => s,
                _ => unreachable!("worker answered Snapshot with a non-Snapshot reply"),
            })
            .collect();
        Ok(ShardedSnapshot {
            nrows: self.nrows,
            ncols: self.ncols,
            shards,
            lost: self.last_answer_lost.clone(),
        })
    }

    /// The distributed frontier pattern push `w(j) = ⊕ u(i)` over the
    /// stored cells `(i, j)`: the frontier is sliced by owning shard, each
    /// slice ships over the drain-barrier query channel (so every worker
    /// answers after applying everything queued before the query), the
    /// workers run the reader-native kernel over their own level DCSRs in
    /// parallel, and the partial products are summed producer-side under
    /// `add` — output columns overlap across shards even though rows are
    /// disjoint.  `u` must be sorted by index; the result is sorted by
    /// index.  Under degraded reads a lost shard's slice is skipped and
    /// recorded in [`Self::last_answer_lost`].
    pub fn try_vxm_pattern(
        &mut self,
        u: &[(Index, f64)],
        add: PatternAdd,
    ) -> GrbResult<Vec<(Index, f64)>> {
        if u.is_empty() {
            return Ok(Vec::new());
        }
        let nshards = self.shards.len();
        let mut slices: Vec<Vec<(Index, f64)>> = vec![Vec::new(); nshards];
        for &(r, m) in u {
            slices[self.owner(r)].push((r, m));
        }
        let queries: Vec<(usize, ReaderQuery)> = slices
            .into_iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(s, part)| (s, ReaderQuery::VxmPattern(part, add)))
            .collect();
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let mut all: Vec<(Index, f64)> = Vec::new();
        for reply in self.query_each(queries)? {
            match reply {
                Some(ReaderReply::Push(part)) => all.extend(part),
                Some(_) => unreachable!("worker answered VxmPattern with a wrong reply"),
                // Lost shard under degraded reads: its slice of the push
                // is simply absent from the (degraded) product.
                None => {}
            }
        }
        all.sort_unstable_by_key(|&(j, _)| j);
        let mut out: Vec<(Index, f64)> = Vec::with_capacity(all.len());
        for (j, v) in all {
            match out.last_mut() {
                Some(last) if last.0 == j => {
                    last.1 = match add {
                        PatternAdd::Plus => last.1 + v,
                        PatternAdd::Min => last.1.min(v),
                    };
                }
                _ => out.push((j, v)),
            }
        }
        Ok(out)
    }

    /// Row → out-degree list for the whole engine, served from each
    /// shard's degree index over the query channel.  Rows are disjoint
    /// across shards, so the partials concatenate; one sort restores
    /// global row order.
    pub fn try_out_degrees(&mut self) -> GrbResult<Vec<(Index, u64)>> {
        let mut all: Vec<(Index, u64)> = Vec::new();
        for reply in self.query_all(|| ReaderQuery::OutDegrees)? {
            match reply {
                ReaderReply::Degrees(part) => all.extend(part),
                _ => unreachable!("worker answered OutDegrees with a wrong reply"),
            }
        }
        all.sort_unstable_by_key(|&(r, _)| r);
        Ok(all)
    }

    /// PageRank with every `mxv` iteration pushed down to the shard pool:
    /// out-degrees come from the per-shard degree indexes
    /// ([`Self::try_out_degrees`]), and each iteration is one distributed
    /// pattern push of `rank(i)/outdeg(i)` under `plus`
    /// ([`Self::try_vxm_pattern`]) — no transition matrix and no
    /// materialised `Σ shards Σ levels` are ever formed, and the shards
    /// multiply their slices in parallel.
    ///
    /// Same contract as [`hyperstream_graphblas::algo::pagerank`]: ranks
    /// for every vertex with at least one in- or out-edge.
    pub fn pagerank(
        &mut self,
        damping: f64,
        max_iters: usize,
        tol: f64,
    ) -> GrbResult<SparseVector<f64>> {
        let degrees = self.try_out_degrees()?;
        let mut active: Vec<Index> = self.ensure_in_degrees()?.keys().copied().collect();
        active.extend(degrees.iter().map(|&(r, _)| r));
        active.sort_unstable();
        active.dedup();
        let n = active.len();
        let mut rank = SparseVector::<f64>::new(self.nrows.max(self.ncols));
        if n == 0 {
            return Ok(rank);
        }
        for &v in &active {
            rank.set(v, 1.0 / n as f64)?;
        }
        let teleport = (1.0 - damping) / n as f64;
        let mut push: Vec<(Index, f64)> = Vec::with_capacity(degrees.len());
        for _ in 0..max_iters {
            push.clear();
            for &(r, d) in &degrees {
                if let Some(rv) = rank.get(r) {
                    push.push((r, rv / d as f64));
                }
            }
            let spread = self.try_vxm_pattern(&push, PatternAdd::Plus)?;
            let mut next = SparseVector::<f64>::new(rank.size());
            let mut delta = 0.0;
            let mut sp = spread.iter().peekable();
            for &v in &active {
                let mut mass = 0.0;
                while let Some(&&(j, m)) = sp.peek() {
                    if j < v {
                        sp.next();
                    } else {
                        if j == v {
                            mass = m;
                        }
                        break;
                    }
                }
                let val = teleport + damping * mass;
                delta += (val - rank.get(v).unwrap_or(0.0)).abs();
                next.set(v, val)?;
            }
            rank = next;
            if delta < tol {
                break;
            }
        }
        Ok(rank)
    }

    /// Level-synchronous BFS with each wave's frontier sliced to its
    /// owning shards ([`Self::try_vxm_pattern`] under `min`); the visited
    /// mask is applied producer-side, where the level vector lives.
    ///
    /// Same contract as [`hyperstream_graphblas::algo::bfs_levels`]:
    /// `v(j)` is the BFS level of vertex `j`, source at level 1.
    pub fn bfs_levels(&mut self, source: Index) -> GrbResult<SparseVector<u64>> {
        let mut levels = SparseVector::<u64>::new(self.nrows.max(self.ncols));
        if source >= self.nrows {
            return Ok(levels);
        }
        levels.set(source, 1)?;
        let mut frontier: Vec<(Index, f64)> = vec![(source, 1.0)];
        let mut level = 1u64;
        while !frontier.is_empty() {
            level += 1;
            let reached = self.try_vxm_pattern(&frontier, PatternAdd::Min)?;
            frontier.clear();
            for (j, _) in reached {
                if levels.get(j).is_none() {
                    levels.set(j, level)?;
                    frontier.push((j, 1.0));
                }
            }
        }
        Ok(levels)
    }

    /// Full column → in-degree map summed across every shard.  A column's
    /// degree splits across the row-partitioned shards, so per-shard top-k
    /// lists cannot be re-ranked; workers ship their complete column stats
    /// and the producer sums them before ranking or binning.
    ///
    /// A degraded (survivors-only) sum is cached like any other: every
    /// staged tuple already invalidates the cache, and
    /// [`Self::respawn_shard`] clears it when a lost band comes back.
    fn ensure_in_degrees(&mut self) -> GrbResult<&std::collections::BTreeMap<Index, usize>> {
        if self.in_degrees_cache.is_none() {
            let parts: Vec<Vec<(Index, usize)>> = self
                .query_all(|| ReaderQuery::InDegrees)?
                .into_iter()
                .map(|reply| match reply {
                    ReaderReply::TopK(part) => part,
                    _ => unreachable!("worker answered InDegrees with a non-TopK reply"),
                })
                .collect();
            self.in_degrees_cache = Some(sum_col_degrees(parts));
        }
        Ok(self.in_degrees_cache.as_ref().expect("just filled"))
    }

    /// The shard owning `row` under the configured partitioner.
    fn owner(&self, row: Index) -> usize {
        self.config
            .partitioner
            .shard(row, self.nrows, self.shards.len())
    }

    /// Block until `shard`'s worker has applied everything queued so far,
    /// surfacing any worker error (a failed apply or flush latched since
    /// the previous barrier) — never swallowed.
    fn barrier_shard(&self, shard: usize) -> GrbResult<()> {
        if !self.is_alive(shard) {
            return Err(self.lost_error(vec![shard]));
        }
        let (ack_tx, ack_rx) = sync_channel(1);
        if self.send_msg(shard, WorkerMsg::Barrier(ack_tx)).is_err() {
            return Err(self.mark_lost(shard));
        }
        let ack = self.recv_bounded(shard, "barrier ack", &ack_rx)?;
        debug_assert_eq!(ack.shard, shard);
        ack.result
    }

    /// Send a drain barrier to every *live* worker and collect the
    /// acknowledgements, one entry per shard.  A known-lost or
    /// newly-disconnected shard yields a typed error entry; the rest are
    /// still drained (all barriers are sent before any ack is awaited, so
    /// live workers drain concurrently).
    fn collect_barrier_acks(&self) -> Vec<(usize, GrbResult<BarrierAck>)> {
        let mut pending: Vec<(usize, Result<Receiver<BarrierAck>, GrbError>)> =
            Vec::with_capacity(self.workers.len());
        for i in 0..self.workers.len() {
            if !self.is_alive(i) {
                pending.push((i, Err(self.lost_error(vec![i]))));
                continue;
            }
            let (ack_tx, ack_rx) = sync_channel(1);
            match self.send_msg(i, WorkerMsg::Barrier(ack_tx)) {
                Ok(()) => pending.push((i, Ok(ack_rx))),
                Err(_) => pending.push((i, Err(self.mark_lost(i)))),
            }
        }
        pending
            .into_iter()
            .map(|(i, rx)| {
                let ack = rx.and_then(|rx| self.recv_bounded(i, "barrier ack", &rx));
                (i, ack)
            })
            .collect()
    }

    /// Drain every live worker, tolerating already-lost shards when
    /// degraded reads are enabled.  Returns the lost shards the caller
    /// must exclude from producer-side sums (a dead worker's hierarchy may
    /// be mid-mutation and is never read).
    fn barrier_live(&self) -> GrbResult<Vec<usize>> {
        let known_lost = self.lost_shards();
        if !known_lost.is_empty() && !self.config.degraded_reads {
            return Err(self.lost_error(known_lost));
        }
        let mut result = Ok(());
        for (_, ack) in self.collect_barrier_acks() {
            let r = match ack {
                Ok(a) => a.result,
                Err(GrbError::ShardsLost { .. }) if self.config.degraded_reads => Ok(()),
                Err(e) => Err(e),
            };
            if result.is_ok() {
                result = r;
            }
        }
        result?;
        Ok(self.lost_shards())
    }

    /// [`Self::barrier_all`] plus replay retirement: a shard whose ack came
    /// back clean has provably applied every retained batch, so its replay
    /// buffer empties (this is what bounds the buffer on a healthy engine).
    fn settle_barrier(&mut self) -> GrbResult<()> {
        let acks = self.collect_barrier_acks();
        let mut result = Ok(());
        for (shard, ack) in acks {
            match ack {
                Ok(a) if a.result.is_ok() => self.replay[shard].on_barrier_ack(),
                Ok(a) => {
                    if result.is_ok() {
                        result = a.result;
                    }
                }
                Err(e) => {
                    if result.is_ok() {
                        result = Err(e);
                    }
                }
            }
        }
        result
    }

    /// Complete all deferred work: dispatch staged tuples, wait for the
    /// workers to apply them, and finish every shard's outstanding
    /// cascades.  The workers stay parked on their channels afterwards.
    /// On a degraded engine the surviving shards are still flushed and the
    /// first loss is reported.
    pub fn flush(&mut self) -> GrbResult<()> {
        let mut result = Ok(());
        if self.since_round > 0 || self.staging.total() > 0 {
            result = self.dispatch_all();
            self.since_round = 0;
            self.rounds += 1;
        }
        for i in 0..self.workers.len() {
            if !self.is_alive(i) {
                if result.is_ok() {
                    result = Err(self.lost_error(vec![i]));
                }
                continue;
            }
            if self.send_msg(i, WorkerMsg::Flush).is_err() {
                let e = self.mark_lost(i);
                if result.is_ok() {
                    result = Err(e);
                }
            }
        }
        let settled = self.settle_barrier();
        if result.is_ok() {
            result = settled;
        }
        result
    }

    /// Materialise the full matrix `A = Σ_shards Σ_levels` (staged and
    /// in-flight tuples are applied first; streaming can continue
    /// afterwards).  With [`ShardedConfig::degraded_reads`], a degraded
    /// engine materialises the surviving shards and records the skipped
    /// bands in [`Self::last_answer_lost`].
    pub fn materialize(&mut self) -> GrbResult<Matrix<T>> {
        let known_lost = self.lost_shards();
        if !known_lost.is_empty() && !self.config.degraded_reads {
            return Err(self.lost_error(known_lost));
        }
        for s in 0..self.shards.len() {
            if self.is_alive(s) {
                self.dispatch_shard(s)?;
            }
        }
        let lost = self.barrier_live()?;
        self.last_answer_lost = lost.clone();
        Ok(self.shard_sum(&lost))
    }

    /// `Σ_shards Σ_levels` of the shards' contents, excluding `skip` (lost
    /// shards, whose hierarchies may be mid-mutation).  Callers must have
    /// drained the live workers; tuples still staged producer-side are
    /// folded in by the caller where required.  This is the *snapshot*
    /// path — it counts one materialisation per shard, which is how the
    /// tests verify that the query push-down never comes through here.
    fn shard_sum(&self, skip: &[usize]) -> Matrix<T> {
        let mut acc = Matrix::new(self.nrows, self.ncols);
        for (i, shard) in self.shards.iter().enumerate() {
            if skip.contains(&i) {
                continue;
            }
            let level_sum = shard.lock().materialize();
            ewise_add_into(&mut acc, &level_sum, Plus).expect("shards share dimensions");
        }
        acc
    }

    /// Rebuild shard `i` after a worker loss: fresh hierarchy, fresh
    /// channels, a fresh supervised thread, then replay of the retained
    /// batches ([`ShardedConfig::replay_limit_tuples`]).  Tuples that were
    /// dropped by the bound, or retired by a pre-loss barrier, cannot be
    /// recovered — the returned [`ShardRecovery`] reports them, so data
    /// loss is always explicit.  A no-op on a live worker.
    pub fn respawn_shard(&mut self, i: usize) -> GrbResult<ShardRecovery> {
        assert!(i < self.workers.len(), "shard index out of range");
        if self.is_alive(i) {
            return Ok(ShardRecovery {
                shard: i,
                replayed_tuples: 0,
                lost_tuples: 0,
                disk: None,
            });
        }
        // Durable shards recover from their on-disk store: checkpointed
        // levels plus the WAL tail the dead worker logged before each
        // in-memory apply.  The old worker's file handles are harmless —
        // the thread has already exited, so nothing writes through them.
        let mut disk = None;
        let fresh = match &self.durable {
            Some(dcfg) => {
                let reopened = HierMatrix::open_or_create(
                    self.nrows,
                    self.ncols,
                    self.hier_config.clone(),
                    dcfg.shard(i),
                )?;
                disk = reopened.recovery_report().cloned();
                Arc::new(Mutex::new(reopened))
            }
            None => Arc::new(Mutex::new(HierMatrix::new(
                self.nrows,
                self.ncols,
                self.hier_config.clone(),
            )?)),
        };
        let depth = self.config.channel_depth.max(1);
        let old = std::mem::replace(
            &mut self.workers[i],
            spawn_worker(i, Arc::clone(&fresh), depth),
        );
        self.shards[i] = fresh;
        drop(old.tx);
        drop(old.recycled);
        // The old thread already exited (that is what being lost means);
        // join just reaps it.
        let _ = old.handle.join();
        // Answers derived from the dead shard's contents are stale now.
        self.in_degrees_cache = None;
        if self.durable.is_some() {
            // The store is authoritative: re-dispatching retained tuples
            // would double-apply everything the dead worker both logged
            // and applied (⊕ is not idempotent).  The retained count is
            // instead the honest at-risk bound — see [`ShardRecovery`].
            let rb = &mut self.replay[i];
            let lost_tuples = rb.retained() as u64;
            rb.reset();
            // Tuples still staged for the shard were never sent anywhere;
            // they remain valid and flow to the fresh worker now.
            self.dispatch_shard(i)?;
            return Ok(ShardRecovery {
                shard: i,
                replayed_tuples: 0,
                lost_tuples,
                disk,
            });
        }
        let rb = &mut self.replay[i];
        let lost_tuples = rb.dropped + rb.retired;
        let replayed_tuples = rb.retained();
        let rows = std::mem::take(&mut rb.rows);
        let cols = std::mem::take(&mut rb.cols);
        let vals = std::mem::take(&mut rb.vals);
        rb.reset();
        // Re-dispatch through the normal path: the replayed tuples join
        // whatever is still staged for the shard (⊕ is commutative, order
        // is irrelevant) and are themselves retained until the next
        // acknowledged barrier.  Weight totals were counted at original
        // ingest and are not recounted.
        for j in 0..rows.len() {
            self.staging.push(i, rows[j], cols[j], vals[j]);
        }
        self.dispatch_shard(i)?;
        Ok(ShardRecovery {
            shard: i,
            replayed_tuples,
            lost_tuples,
            disk: None,
        })
    }

    /// Value of the represented matrix at `(row, col)` — answered by the
    /// single shard that owns the row.  The row partitioner routes the
    /// query: only that shard's staging is dispatched and only its worker
    /// does any work (no producer-side locks, no scan of other shards).
    ///
    /// Infallible legacy signature: an error (lost shard, timeout) latches
    /// into [`Self::take_read_error`] and answers `None`.  Prefer
    /// [`Self::try_get`] on supervised engines.
    pub fn get(&mut self, row: Index, col: Index) -> Option<T> {
        match self.try_get(row, col) {
            Ok(v) => v,
            Err(e) => {
                self.latch_err(e);
                None
            }
        }
    }

    /// Fallible dual of [`Self::get`].  `Ok(None)` is also the degraded
    /// answer when the owning shard is lost and degraded reads are on
    /// (recorded in [`Self::last_answer_lost`]).
    pub fn try_get(&mut self, row: Index, col: Index) -> GrbResult<Option<T>> {
        let shard = self.owner(row);
        match self.query_shard(shard, ReaderQuery::Get(row, col))? {
            None => Ok(None),
            Some(ReaderReply::Value(v)) => Ok(v),
            Some(_) => unreachable!("worker answered Get with a non-Value reply"),
        }
    }

    /// Latch an error swallowed by an infallible signature (never
    /// overwrites an earlier unretrieved one).
    fn latch_err(&self, e: GrbError) {
        let mut slot = self.last_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Sum of all weight currently represented — staged, in flight, or
    /// applied.  Maintained producer-side, so this is exact at any moment
    /// and never blocks on the workers.
    pub fn total_weight_f64(&self) -> f64 {
        self.ingested_weight
    }
}

/// Join the pool on drop: closing the command channels unparks every
/// worker, which then exits its loop.  Dead workers are reaped the same
/// way (their channels are already disconnected), so dropping an engine
/// with lost shards or in-flight tuples never hangs: every live worker
/// exits as soon as it drains, and `join` on an exited thread returns
/// immediately.
impl<T> Drop for ShardedHierMatrix<T> {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            drop(w.tx);
            drop(w.recycled);
            // Panics were captured by the supervision wrapper, so this
            // join cannot propagate one (propagating out of drop would
            // abort).
            let _ = w.handle.join();
        }
    }
}

/// The harness-facing interface: identical contract to every other sink in
/// the workspace, so `make_sink`/`drive_sink` measure the parallel engine
/// with the same loop that measures the single-instance systems.
impl<T: ScalarType> StreamingSink<T> for ShardedHierMatrix<T> {
    fn sink_name(&self) -> &str {
        "sharded-hier-graphblas"
    }

    fn insert(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        self.update(row, col, val)
    }

    fn insert_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        self.update_batch(rows, cols, vals)
    }

    fn flush(&mut self) -> GrbResult<()> {
        ShardedHierMatrix::flush(self)
    }

    fn nvals(&self) -> usize {
        // Infallible legacy signature: drain what can be drained, latch
        // any error into `take_read_error`, and count the surviving
        // shards (a lost hierarchy may be mid-mutation and is never
        // read).  Bounded like every other wait — this cannot hang.
        for (_, ack) in self.collect_barrier_acks() {
            if let Err(e) = ack.and_then(|a| a.result) {
                self.latch_err(e);
            }
        }
        let lost = self.lost_shards();
        if self.staging.total() == 0 {
            // Shards own disjoint row sets: distinct cells simply add up.
            self.shards
                .iter()
                .enumerate()
                .filter(|(i, _)| !lost.contains(i))
                .map(|(_, s)| s.lock().nvals_exact())
                .sum()
        } else {
            // Staged tuples may collide with stored cells; settle a snapshot.
            let mut acc = self.shard_sum(&lost);
            for s in 0..self.staging.shards() {
                if lost.contains(&s) {
                    continue;
                }
                let (r, c, v) = self.staging.shard_slices(s);
                acc.accum_tuples(r, c, v).expect("staged tuples validated");
            }
            acc.nvals()
        }
    }

    fn total_weight(&self) -> f64 {
        self.total_weight_f64()
    }
}

/// Merge per-shard sorted entry lists into one row-major stream.  Shards
/// own disjoint row sets, so all entries of a row sit contiguously in one
/// list: after picking the list with the smallest head row the whole run
/// of that row is emitted before re-scanning heads.
fn merge_disjoint_entries<T: ScalarType>(
    parts: Vec<Vec<(Index, Index, T)>>,
    f: &mut dyn FnMut(Index, Index, T),
) {
    let mut pos = vec![0usize; parts.len()];
    loop {
        let mut best: Option<(usize, Index)> = None;
        for (i, p) in parts.iter().enumerate() {
            if let Some(&(r, _, _)) = p.get(pos[i]) {
                if best.map_or(true, |(_, br)| r < br) {
                    best = Some((i, r));
                }
            }
        }
        let Some((i, row)) = best else { break };
        while let Some(&(r, c, v)) = parts[i].get(pos[i]) {
            if r != row {
                break;
            }
            f(r, c, v);
            pos[i] += 1;
        }
    }
}

/// Fallible duals of the [`MatrixReader`] surface.  These carry the
/// supervision semantics exactly: a lost shard or a timed-out wait is a
/// typed error (or, with [`ShardedConfig::degraded_reads`], a
/// survivors-only answer with the skipped shards recorded in
/// [`ShardedHierMatrix::last_answer_lost`]).  The infallible trait
/// methods below wrap these, latching errors into
/// [`ShardedHierMatrix::take_read_error`].
impl<T: ScalarType> ShardedHierMatrix<T> {
    /// Fallible dual of [`MatrixReader::read_nnz`].
    pub fn try_read_nnz(&mut self) -> GrbResult<usize> {
        // Shards own disjoint rows: distinct cells simply add up.
        Ok(self
            .query_all(|| ReaderQuery::Nnz)?
            .into_iter()
            .map(|reply| match reply {
                ReaderReply::Count(n) => n,
                _ => unreachable!("worker answered Nnz with a non-Count reply"),
            })
            .sum())
    }

    /// Fallible dual of [`MatrixReader::read_row`].
    pub fn try_read_row(&mut self, row: Index, out: &mut Vec<(Index, T)>) -> GrbResult<()> {
        let shard = self.owner(row);
        out.clear();
        match self.query_shard(shard, ReaderQuery::Row(row))? {
            None => {}
            Some(ReaderReply::Row(r)) => out.extend(r),
            Some(_) => unreachable!("worker answered Row with a non-Row reply"),
        }
        Ok(())
    }

    /// Fallible dual of [`MatrixReader::read_row_degree`].
    pub fn try_read_row_degree(&mut self, row: Index) -> GrbResult<usize> {
        let shard = self.owner(row);
        match self.query_shard(shard, ReaderQuery::RowDegree(row))? {
            None => Ok(0),
            Some(ReaderReply::Count(n)) => Ok(n),
            Some(_) => unreachable!("worker answered RowDegree with a non-Count reply"),
        }
    }

    /// Fallible dual of [`MatrixReader::read_row_reduce`].
    pub fn try_read_row_reduce(&mut self, row: Index) -> GrbResult<Option<T>> {
        let shard = self.owner(row);
        match self.query_shard(shard, ReaderQuery::RowReduce(row))? {
            None => Ok(None),
            Some(ReaderReply::Value(v)) => Ok(v),
            Some(_) => unreachable!("worker answered RowReduce with a non-Value reply"),
        }
    }

    /// Fallible dual of [`MatrixReader::read_top_k`].
    pub fn try_read_top_k(&mut self, k: usize) -> GrbResult<Vec<(Index, usize)>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        // Every worker returns its local top-k; rows are disjoint, so the
        // global top-k is the top-k of the concatenated partials.
        let mut all: Vec<(Index, usize)> = Vec::new();
        for reply in self.query_all(|| ReaderQuery::TopK(k))? {
            match reply {
                ReaderReply::TopK(part) => all.extend(part),
                _ => unreachable!("worker answered TopK with a non-TopK reply"),
            }
        }
        Ok(rerank_top_k(all, k))
    }

    /// Fallible dual of [`MatrixReader::read_entries`].
    pub fn try_read_entries(&mut self, f: &mut dyn FnMut(Index, Index, T)) -> GrbResult<()> {
        let parts: Vec<Vec<(Index, Index, T)>> = self
            .query_all(|| ReaderQuery::Entries)?
            .into_iter()
            .map(|reply| match reply {
                ReaderReply::Entries(e) => e,
                _ => unreachable!("worker answered Entries with a non-Entries reply"),
            })
            .collect();
        merge_disjoint_entries(parts, f);
        Ok(())
    }

    /// Fallible dual of [`MatrixReader::read_row_range`].
    pub fn try_read_row_range(
        &mut self,
        lo: Index,
        hi: Index,
        f: &mut dyn FnMut(Index, Index, T),
    ) -> GrbResult<()> {
        if lo >= hi {
            return Ok(());
        }
        // Only the workers whose row bands can overlap the range are
        // consulted: a RowRange-partitioned engine serves a narrow scan
        // from one worker while the rest keep ingesting.
        let targets = self.range_shards(lo, hi);
        let parts: Vec<Vec<(Index, Index, T)>> = self
            .query_shards(&targets, || ReaderQuery::RowRange(lo, hi))?
            .into_iter()
            .map(|reply| match reply {
                ReaderReply::Entries(e) => e,
                _ => unreachable!("worker answered RowRange with a non-Entries reply"),
            })
            .collect();
        merge_disjoint_entries(parts, f);
        Ok(())
    }

    /// Fallible dual of [`MatrixReader::read_degree_histogram`].
    pub fn try_read_degree_histogram(&mut self) -> GrbResult<std::collections::BTreeMap<u64, u64>> {
        // Shards own disjoint rows: per-shard histograms sum exactly.
        Ok(sum_histograms(
            self.query_all(|| ReaderQuery::Histogram)?
                .into_iter()
                .map(|reply| match reply {
                    ReaderReply::Hist(part) => part,
                    _ => unreachable!("worker answered Histogram with a non-Hist reply"),
                }),
        ))
    }

    /// Fallible dual of [`MatrixReader::read_col`].
    pub fn try_read_col(&mut self, col: Index, out: &mut Vec<(Index, T)>) -> GrbResult<()> {
        // A column intersects every row partition, so the query fans out to
        // all workers (each answering O(k) off its shard's column twins);
        // the partials hold disjoint row sets, so one sort merges them.
        let mut all: Vec<(Index, T)> = Vec::new();
        for reply in self.query_all(|| ReaderQuery::Col(col))? {
            match reply {
                ReaderReply::Row(part) => all.extend(part),
                _ => unreachable!("worker answered Col with a non-Row reply"),
            }
        }
        all.sort_unstable_by_key(|&(r, _)| r);
        out.clear();
        out.extend(all);
        Ok(())
    }

    /// Fallible dual of [`MatrixReader::read_col_degree`].
    pub fn try_read_col_degree(&mut self, col: Index) -> GrbResult<usize> {
        // Disjoint rows: per-shard distinct-row counts of one column add.
        Ok(self
            .query_all(|| ReaderQuery::ColDegree(col))?
            .into_iter()
            .map(|reply| match reply {
                ReaderReply::Count(n) => n,
                _ => unreachable!("worker answered ColDegree with a non-Count reply"),
            })
            .sum())
    }

    /// Fallible dual of [`MatrixReader::read_col_reduce`].
    pub fn try_read_col_reduce(&mut self, col: Index) -> GrbResult<Option<T>> {
        Ok(self
            .query_all(|| ReaderQuery::ColReduce(col))?
            .into_iter()
            .filter_map(|reply| match reply {
                ReaderReply::Value(v) => v,
                _ => unreachable!("worker answered ColReduce with a non-Value reply"),
            })
            .reduce(|a, b| a.add(b)))
    }

    /// Fallible dual of [`MatrixReader::read_in_top_k`].
    pub fn try_read_in_top_k(&mut self, k: usize) -> GrbResult<Vec<(Index, usize)>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        // Per-shard in-degree top-k lists can NOT be re-ranked like the row
        // side: a column's degree splits across the row-partitioned shards.
        // Workers ship their complete column stats; sum, then rank.
        Ok(rank_col_degrees(self.ensure_in_degrees()?, k))
    }

    /// Fallible dual of [`MatrixReader::read_in_degree_histogram`].
    pub fn try_read_in_degree_histogram(
        &mut self,
    ) -> GrbResult<std::collections::BTreeMap<u64, u64>> {
        Ok(col_degree_histogram(self.ensure_in_degrees()?))
    }

    /// Fallible dual of [`MatrixReader::read_col_range`].
    pub fn try_read_col_range(
        &mut self,
        lo: Index,
        hi: Index,
        f: &mut dyn FnMut(Index, Index, T),
    ) -> GrbResult<()> {
        if lo >= hi {
            return Ok(());
        }
        // Column bands cannot be bounded by the row partitioner: full
        // fan-out, then one (col, row) sort over the disjoint-row partials.
        let mut all: Vec<(Index, Index, T)> = Vec::new();
        for reply in self.query_all(|| ReaderQuery::ColRange(lo, hi))? {
            match reply {
                ReaderReply::Entries(part) => all.extend(part),
                _ => unreachable!("worker answered ColRange with a non-Entries reply"),
            }
        }
        all.sort_unstable_by_key(|&(r, c, _)| (c, r));
        for (r, c, v) in all {
            f(r, c, v);
        }
        Ok(())
    }

    /// Fallible dual of [`MatrixReader::read_rows`].  Rows owned by a lost
    /// shard come back empty under degraded reads.
    pub fn try_read_rows(&mut self, rows: &[Index]) -> GrbResult<Vec<Vec<(Index, T)>>> {
        // Group the keys by owning shard, push one batched query per
        // involved worker, and scatter the per-shard answers back into
        // request order.
        let mut per_shard: ShardBatch<Index> = Vec::new();
        for (i, &row) in rows.iter().enumerate() {
            let owner = self.owner(row);
            match per_shard.iter_mut().find(|(s, _, _)| *s == owner) {
                Some((_, idxs, keys)) => {
                    idxs.push(i);
                    keys.push(row);
                }
                None => per_shard.push((owner, vec![i], vec![row])),
            }
        }
        let queries: Vec<(usize, ReaderQuery)> = per_shard
            .iter()
            .map(|(s, _, keys)| (*s, ReaderQuery::Rows(keys.clone())))
            .collect();
        let mut out: Vec<Vec<(Index, T)>> = vec![Vec::new(); rows.len()];
        for ((_, idxs, _), reply) in per_shard.iter().zip(self.query_each(queries)?) {
            match reply {
                None => {}
                Some(ReaderReply::Rows(parts)) => {
                    for (&i, part) in idxs.iter().zip(parts) {
                        out[i] = part;
                    }
                }
                Some(_) => unreachable!("worker answered Rows with a non-Rows reply"),
            }
        }
        Ok(out)
    }

    /// Fallible dual of [`MatrixReader::read_get_many`].  Keys owned by a
    /// lost shard come back `None` under degraded reads.
    pub fn try_read_get_many(&mut self, keys: &[(Index, Index)]) -> GrbResult<Vec<Option<T>>> {
        let mut per_shard: ShardBatch<(Index, Index)> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let owner = self.owner(key.0);
            match per_shard.iter_mut().find(|(s, _, _)| *s == owner) {
                Some((_, idxs, ks)) => {
                    idxs.push(i);
                    ks.push(key);
                }
                None => per_shard.push((owner, vec![i], vec![key])),
            }
        }
        let queries: Vec<(usize, ReaderQuery)> = per_shard
            .iter()
            .map(|(s, _, ks)| (*s, ReaderQuery::GetMany(ks.clone())))
            .collect();
        let mut out: Vec<Option<T>> = vec![None; keys.len()];
        for ((_, idxs, _), reply) in per_shard.iter().zip(self.query_each(queries)?) {
            match reply {
                None => {}
                Some(ReaderReply::Values(vals)) => {
                    for (&i, v) in idxs.iter().zip(vals) {
                        out[i] = v;
                    }
                }
                Some(_) => unreachable!("worker answered GetMany with a non-Values reply"),
            }
        }
        Ok(out)
    }

    /// Unwrap an infallible reader answer: latch the error and hand back
    /// the empty default so the legacy [`MatrixReader`] signatures keep
    /// working on supervised engines.
    fn latch<R>(&self, r: GrbResult<R>, default: R) -> R {
        match r {
            Ok(v) => v,
            Err(e) => {
                self.latch_err(e);
                default
            }
        }
    }
}

/// The read path pushed down the drain-barrier protocol: row-targeted
/// queries go to the one owning worker; whole-matrix queries fan out and
/// every worker answers *in parallel* from its own shard's merged level
/// cursors.  The producer only sums counts, k-way merges disjoint-row
/// entry runs, or re-ranks partial top-k lists — it never receives (or
/// builds) a materialised matrix.
///
/// These signatures are infallible, so a supervision error (lost shard,
/// timeout) answers with the empty default and latches into
/// [`ShardedHierMatrix::take_read_error`]; the `try_*` duals above carry
/// the typed errors directly.
impl<T: ScalarType> MatrixReader<T> for ShardedHierMatrix<T> {
    fn reader_name(&self) -> &str {
        "sharded-hier-graphblas"
    }

    fn read_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn read_nnz(&mut self) -> usize {
        let r = self.try_read_nnz();
        self.latch(r, 0)
    }

    fn read_get(&mut self, row: Index, col: Index) -> Option<T> {
        ShardedHierMatrix::get(self, row, col)
    }

    fn read_row(&mut self, row: Index, out: &mut Vec<(Index, T)>) {
        let r = self.try_read_row(row, out);
        self.latch(r, ());
    }

    fn read_row_degree(&mut self, row: Index) -> usize {
        let r = self.try_read_row_degree(row);
        self.latch(r, 0)
    }

    fn read_row_reduce(&mut self, row: Index) -> Option<T> {
        let r = self.try_read_row_reduce(row);
        self.latch(r, None)
    }

    fn read_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        let r = self.try_read_top_k(k);
        self.latch(r, Vec::new())
    }

    fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, T)) {
        let r = self.try_read_entries(f);
        self.latch(r, ());
    }

    fn read_row_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
        let r = self.try_read_row_range(lo, hi, f);
        self.latch(r, ());
    }

    fn read_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        let r = self.try_read_degree_histogram();
        self.latch(r, std::collections::BTreeMap::new())
    }

    fn read_col(&mut self, col: Index, out: &mut Vec<(Index, T)>) {
        let r = self.try_read_col(col, out);
        self.latch(r, ());
    }

    fn read_col_degree(&mut self, col: Index) -> usize {
        let r = self.try_read_col_degree(col);
        self.latch(r, 0)
    }

    fn read_col_reduce(&mut self, col: Index) -> Option<T> {
        let r = self.try_read_col_reduce(col);
        self.latch(r, None)
    }

    fn read_in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        let r = self.try_read_in_top_k(k);
        self.latch(r, Vec::new())
    }

    fn read_in_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        let r = self.try_read_in_degree_histogram();
        self.latch(r, std::collections::BTreeMap::new())
    }

    fn read_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
        let r = self.try_read_col_range(lo, hi, f);
        self.latch(r, ());
    }

    fn read_rows(&mut self, rows: &[Index]) -> Vec<Vec<(Index, T)>> {
        let r = self.try_read_rows(rows);
        self.latch(r, vec![Vec::new(); rows.len()])
    }

    fn read_get_many(&mut self, keys: &[(Index, Index)]) -> Vec<Option<T>> {
        let r = self.try_read_get_many(keys);
        self.latch(r, vec![None; keys.len()])
    }
}

impl<T: ScalarType> CursorReader<T> for ShardedHierMatrix<T> {
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<T>])) {
        // A consistent engine-wide capture: every worker snapshots its
        // shard at its drain barrier (O(levels) Arc bumps, no copies),
        // and the Arc'd level structures stay alive for the duration of
        // the callback while the workers keep draining.  Shards own
        // disjoint rows, so the concatenated level list is a valid level
        // decomposition of the whole engine.
        match self.snapshot() {
            Ok(mut snap) => snap.with_level_dcsrs(f),
            Err(e) => {
                self.latch_err(e);
                f(&[]);
            }
        }
    }

    fn out_degrees(&mut self) -> Option<Vec<(Index, u64)>> {
        match self.try_out_degrees() {
            Ok(d) => Some(d),
            Err(e) => {
                self.latch_err(e);
                None
            }
        }
    }
}

/// One consistent point-in-time view of the whole sharded engine: a
/// [`MatrixSnapshot`] per shard, captured at each worker's drain barrier.
/// Shards own disjoint row sets, so cross-shard combination is pure
/// concatenation / summation / re-ranking — and because every per-shard
/// snapshot holds Arc'd level structures, the engine keeps ingesting (and
/// its workers keep draining) while this view answers long sweeps.
#[derive(Debug)]
pub struct ShardedSnapshot<T> {
    nrows: Index,
    ncols: Index,
    shards: Vec<MatrixSnapshot<T>>,
    /// Shards missing from the capture (degraded snapshot of a degraded
    /// engine); empty for a complete capture.
    lost: Vec<usize>,
}

impl<T: ScalarType> ShardedSnapshot<T> {
    /// Number of captured shard snapshots.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards missing from the capture (only non-empty when the snapshot
    /// was taken from a degraded engine with degraded reads enabled).
    pub fn lost_shards(&self) -> &[usize] {
        &self.lost
    }

    /// Every captured level structure across all shards (for k-way merged
    /// sweeps).
    fn all_levels(&self) -> Vec<&Dcsr<T>> {
        self.shards.iter().flat_map(|s| s.level_dcsrs()).collect()
    }

    /// Column → in-degree over the whole capture: per-shard stats summed
    /// (a column's degree splits across the row-partitioned shards).
    fn summed_in_degrees(&mut self) -> std::collections::BTreeMap<Index, usize> {
        let parts: Vec<Vec<(Index, usize)>> = self
            .shards
            .iter_mut()
            .map(|s| {
                let bound = s.read_nnz();
                s.read_in_top_k(bound)
            })
            .collect();
        sum_col_degrees(parts)
    }
}

impl<T: ScalarType> MatrixReader<T> for ShardedSnapshot<T> {
    fn reader_name(&self) -> &str {
        "sharded-hier-graphblas-snapshot"
    }

    fn read_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn read_nnz(&mut self) -> usize {
        self.shards.iter_mut().map(|s| s.read_nnz()).sum()
    }

    fn read_get(&mut self, row: Index, col: Index) -> Option<T> {
        hyperstream_graphblas::cursor::merged_point(&self.all_levels(), row, col, Plus)
    }

    fn read_row(&mut self, row: Index, out: &mut Vec<(Index, T)>) {
        hyperstream_graphblas::cursor::merged_row_into(&self.all_levels(), row, Plus, out);
    }

    fn read_row_degree(&mut self, row: Index) -> usize {
        // Disjoint rows: exactly one shard can own the row.
        self.shards.iter_mut().map(|s| s.read_row_degree(row)).sum()
    }

    fn read_row_reduce(&mut self, row: Index) -> Option<T> {
        self.shards
            .iter_mut()
            .filter_map(|s| s.read_row_reduce(row))
            .reduce(|a, b| a.add(b))
    }

    fn read_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        if k == 0 {
            return Vec::new();
        }
        let mut all: Vec<(Index, usize)> = Vec::new();
        for s in &mut self.shards {
            all.extend(s.read_top_k(k));
        }
        rerank_top_k(all, k)
    }

    fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, T)) {
        hyperstream_graphblas::cursor::for_each_merged(&self.all_levels(), Plus, f);
    }

    fn read_row_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
        hyperstream_graphblas::cursor::merged_row_range(&self.all_levels(), lo, hi, Plus, f);
    }

    fn read_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        sum_histograms(self.shards.iter_mut().map(|s| s.read_degree_histogram()))
    }

    fn read_col(&mut self, col: Index, out: &mut Vec<(Index, T)>) {
        // Every shard snapshot may hold a slice of the column (disjoint
        // rows): concatenate the per-shard partials and sort once.
        let mut all: Vec<(Index, T)> = Vec::new();
        let mut part = Vec::new();
        for s in &mut self.shards {
            s.read_col(col, &mut part);
            all.append(&mut part);
        }
        all.sort_unstable_by_key(|&(r, _)| r);
        out.clear();
        out.extend(all);
    }

    fn read_col_degree(&mut self, col: Index) -> usize {
        self.shards.iter_mut().map(|s| s.read_col_degree(col)).sum()
    }

    fn read_col_reduce(&mut self, col: Index) -> Option<T> {
        self.shards
            .iter_mut()
            .filter_map(|s| s.read_col_reduce(col))
            .reduce(|a, b| a.add(b))
    }

    fn read_in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        if k == 0 {
            return Vec::new();
        }
        rank_col_degrees(&self.summed_in_degrees(), k)
    }

    fn read_in_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        col_degree_histogram(&self.summed_in_degrees())
    }

    fn read_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
        if lo >= hi {
            return;
        }
        let mut all: Vec<(Index, Index, T)> = Vec::new();
        for s in &mut self.shards {
            s.read_col_range(lo, hi, &mut |r, c, v| all.push((r, c, v)));
        }
        all.sort_unstable_by_key(|&(r, c, _)| (c, r));
        for (r, c, v) in all {
            f(r, c, v);
        }
    }

    fn read_rows(&mut self, rows: &[Index]) -> Vec<Vec<(Index, T)>> {
        let levels = self.all_levels();
        rows.iter()
            .map(|&row| {
                let mut out = Vec::new();
                hyperstream_graphblas::cursor::merged_row_into(&levels, row, Plus, &mut out);
                out
            })
            .collect()
    }

    fn read_get_many(&mut self, keys: &[(Index, Index)]) -> Vec<Option<T>> {
        let levels = self.all_levels();
        keys.iter()
            .map(|&(r, c)| hyperstream_graphblas::cursor::merged_point(&levels, r, c, Plus))
            .collect()
    }
}

impl<T: ScalarType> CursorReader<T> for ShardedSnapshot<T> {
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<T>])) {
        // Shards hold disjoint rows, so their captured levels concatenate
        // into one valid level decomposition of the whole engine.
        f(&self.all_levels());
    }

    fn out_degrees(&mut self) -> Option<Vec<(Index, u64)>> {
        // Disjoint rows: concatenate the per-shard index answers and
        // restore global row order.  `None` as soon as any shard capture
        // lacks its index view (e.g. it carried a pending tail).
        let mut all: Vec<(Index, u64)> = Vec::new();
        for s in &mut self.shards {
            all.extend(s.out_degrees()?);
        }
        all.sort_unstable_by_key(|&(r, _)| r);
        Some(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIM: u64 = 1 << 32;

    fn small_cfg() -> HierConfig {
        HierConfig::from_cuts(vec![16, 128, 1024]).unwrap()
    }

    fn tiny_engine(shards: usize, partitioner: ShardPartitioner) -> ShardedHierMatrix<u64> {
        ShardedHierMatrix::new(
            DIM,
            DIM,
            small_cfg(),
            ShardedConfig {
                shards,
                partitioner,
                chunk_tuples: 64,
                channel_depth: 2,
                round_tuples: 256,
                ..ShardedConfig::with_shards(shards)
            },
        )
        .unwrap()
    }

    fn stream(n: u64) -> Vec<(u64, u64, u64)> {
        (0..n)
            .map(|i| ((i * 7919) % 5000 * 797_003, (i * 104_729) % 3000, i % 4 + 1))
            .collect()
    }

    #[test]
    fn matches_flat_accumulation_for_both_partitioners() {
        for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
            let mut engine = tiny_engine(4, partitioner);
            let mut flat = Matrix::<u64>::new(DIM, DIM);
            for &(r, c, v) in &stream(3000) {
                engine.update(r, c, v).unwrap();
                flat.accum_element(r, c, v).unwrap();
            }
            flat.wait();
            let snap = engine.materialize().unwrap();
            assert_eq!(
                snap.extract_tuples(),
                flat.extract_tuples(),
                "{partitioner:?}"
            );
            assert!(engine.rounds() > 1, "expected multiple ingest rounds");
            assert!(engine.chunks_sent() > engine.rounds());
        }
    }

    #[test]
    fn batch_and_single_update_agree() {
        let updates = stream(2000);
        let rows: Vec<u64> = updates.iter().map(|u| u.0).collect();
        let cols: Vec<u64> = updates.iter().map(|u| u.1).collect();
        let vals: Vec<u64> = updates.iter().map(|u| u.2).collect();

        let mut singles = tiny_engine(3, ShardPartitioner::RowHash);
        for &(r, c, v) in &updates {
            singles.update(r, c, v).unwrap();
        }
        let mut batched = tiny_engine(3, ShardPartitioner::RowHash);
        batched.update_batch(&rows, &cols, &vals).unwrap();
        assert_eq!(
            singles.materialize().unwrap().extract_tuples(),
            batched.materialize().unwrap().extract_tuples()
        );
    }

    #[test]
    fn mid_stream_query_and_flush_do_not_disturb() {
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        let updates = stream(1500);
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            engine.update(r, c, v).unwrap();
            if i == 700 {
                let _ = engine.materialize().unwrap();
                engine.flush().unwrap();
            }
        }
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in &updates {
            flat.accum_element(r, c, v).unwrap();
        }
        flat.wait();
        assert_eq!(
            engine.materialize().unwrap().extract_tuples(),
            flat.extract_tuples()
        );
    }

    #[test]
    fn weight_exact_with_staged_tuples() {
        let mut engine = tiny_engine(4, ShardPartitioner::RowHash);
        engine.update(1, 1, 10).unwrap();
        engine.update(2, 2, 5).unwrap();
        // Nothing dispatched yet (chunk_tuples = 64), weight still exact.
        assert_eq!(engine.rounds(), 0);
        assert_eq!(engine.total_weight_f64(), 15.0);
        assert_eq!(engine.get(1, 1), Some(10));
        assert_eq!(StreamingSink::nvals(&engine), 2);
        engine.flush().unwrap();
        assert_eq!(engine.total_weight_f64(), 15.0);
        assert_eq!(engine.get(1, 1), Some(10));
        assert_eq!(engine.total_updates().unwrap(), 2);
    }

    #[test]
    fn bounds_rejected_and_batches_atomic() {
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        assert!(engine.update(DIM, 0, 1).is_err());
        assert!(engine.update(0, DIM, 1).is_err());
        assert!(engine.update_batch(&[1, DIM], &[1, 1], &[1, 1]).is_err());
        assert!(engine.update_batch(&[1], &[1, 2], &[1]).is_err());
        assert_eq!(engine.total_weight_f64(), 0.0);
        assert_eq!(StreamingSink::nvals(&engine), 0);
    }

    #[test]
    fn single_shard_works() {
        let mut engine = tiny_engine(1, ShardPartitioner::RowRange);
        for &(r, c, v) in &stream(500) {
            engine.update(r, c, v).unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(engine.num_shards(), 1);
        assert!(engine.total_updates().unwrap() == 500);
        // Zero shards clamps to one.
        let clamped = ShardedHierMatrix::<u64>::with_shards(100, 100, 0).unwrap();
        assert_eq!(clamped.num_shards(), 1);
    }

    #[test]
    fn sink_interface_round_trip() {
        let mut sink: Box<dyn StreamingSink<u64>> =
            Box::new(tiny_engine(3, ShardPartitioner::RowHash));
        for &(r, c, v) in &stream(800) {
            sink.insert(r, c, v).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.sink_name(), "sharded-hier-graphblas");
        let expected: u64 = stream(800).iter().map(|u| u.2).sum();
        assert_eq!(sink.total_weight(), expected as f64);
        assert!(sink.nvals() > 0);
    }

    #[test]
    fn partitioners_cover_all_shards() {
        for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
            let mut seen = [false; 8];
            for r in 0..10_000u64 {
                // Spread rows over the whole index space for RowRange.
                let row = r * (DIM / 10_000);
                seen[partitioner.shard(row, DIM, 8)] = true;
            }
            assert!(seen.iter().all(|&s| s), "{partitioner:?} starves shards");
        }
        // Rows at the very top of the space stay in range.
        assert!(ShardPartitioner::RowRange.shard(DIM - 1, DIM, 7) < 7);
        assert!(ShardPartitioner::RowHash.shard(DIM - 1, DIM, 7) < 7);
    }

    #[test]
    fn shard_stats_aggregate() {
        let mut engine = tiny_engine(4, ShardPartitioner::RowHash);
        for &(r, c, v) in &stream(2000) {
            engine.update(r, c, v).unwrap();
        }
        engine.flush().unwrap();
        let agg = engine.aggregate_stats().unwrap();
        assert_eq!(agg.updates, 2000);
        assert!(agg.total_cascades() > 0, "small cuts must cascade");
        assert!((0..engine.num_shards()).all(|i| engine.shard_stats(i).unwrap().updates > 0));
    }

    #[test]
    fn workers_persist_across_rounds_and_flushes() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        let ids_start = engine.worker_ids().unwrap();
        assert_eq!(ids_start.len(), 3);
        // All workers are distinct threads, none of them this one.
        let me = std::thread::current().id();
        assert!(ids_start.iter().all(|&id| id != me));
        for i in 0..3 {
            for j in 0..3 {
                assert!(i == j || ids_start[i] != ids_start[j]);
            }
        }
        for round in 0..5 {
            for &(r, c, v) in &stream(700) {
                engine.update(r, c, v).unwrap();
            }
            engine.flush().unwrap();
            let _ = engine.materialize().unwrap();
            assert_eq!(
                engine.worker_ids().unwrap(),
                ids_start,
                "worker set changed in round {round}"
            );
        }
        assert!(engine.rounds() >= 5);
    }

    #[test]
    fn reader_pushdown_matches_flat_reference() {
        for shards in [1usize, 3] {
            let mut engine = tiny_engine(shards, ShardPartitioner::RowHash);
            let mut flat = Matrix::<u64>::new(DIM, DIM);
            for &(r, c, v) in &stream(2500) {
                engine.update(r, c, v).unwrap();
                flat.accum_element(r, c, v).unwrap();
            }
            flat.wait();
            // Mid-ingest (staged + in-flight tuples): every reader answer
            // must equal the flat reference.
            assert_eq!(engine.read_nnz(), flat.nvals(), "{shards} shards");
            let d = flat.dcsr();
            let probe_row = d.row_ids()[0];
            let (cols, vals) = d.row(probe_row).unwrap();
            let expect_row: Vec<(u64, u64)> =
                cols.iter().copied().zip(vals.iter().copied()).collect();
            let mut got_row = Vec::new();
            engine.read_row(probe_row, &mut got_row);
            assert_eq!(got_row, expect_row);
            assert_eq!(engine.read_row_degree(probe_row), expect_row.len());
            assert_eq!(
                engine.read_row_reduce(probe_row),
                Some(expect_row.iter().map(|&(_, v)| v).sum())
            );
            assert_eq!(
                engine.read_get(probe_row, expect_row[0].0),
                Some(expect_row[0].1)
            );
            assert_eq!(engine.read_get(DIM - 1, DIM - 1), None);
            // Entries stream row-major sorted and identical to flat.
            let mut got = Vec::new();
            engine.read_entries(&mut |r, c, v| got.push((r, c, v)));
            let expect: Vec<_> = flat.iter_settled().collect();
            assert_eq!(got, expect);
            // Top-k equals the reference ranking (degree desc, row asc).
            let mut ranking: Vec<(u64, usize)> = (0..d.nrows_nonempty())
                .map(|k| (d.row_ids()[k], d.row_slot(k).0.len()))
                .collect();
            ranking.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranking.truncate(7);
            assert_eq!(engine.read_top_k(7), ranking);
        }
    }

    #[test]
    fn reader_pushdown_never_materializes() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        for &(r, c, v) in &stream(2000) {
            engine.update(r, c, v).unwrap();
        }
        let before = engine.pushdown_queries();
        let _ = engine.read_nnz();
        let _ = engine.read_top_k(5);
        let mut row = Vec::new();
        engine.read_row(797_003, &mut row);
        let _ = engine.read_get(797_003, 1);
        let _ = engine.read_row_degree(797_003);
        let mut n = 0usize;
        engine.read_entries(&mut |_, _, _| n += 1);
        assert!(n > 0);
        assert!(engine.pushdown_queries() >= before + 6);
        // The whole query battery ran through the worker pool's cursors:
        // no shard ever materialised `Σ levels`.
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
        // The snapshot path, by contrast, is counted — proving the counter
        // would have caught a materialising query path.
        let _ = engine.materialize().unwrap();
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 3);
    }

    /// A column-dense stream: 60 columns, ~42 distinct rows each, so
    /// in-degree rankings are non-degenerate.
    fn col_stream(n: u64) -> Vec<(u64, u64, u64)> {
        (0..n)
            .map(|i| ((i * 7919) % 5000 * 797_003, (i * 104_729) % 60, i % 4 + 1))
            .collect()
    }

    #[test]
    fn column_pushdown_matches_transposed_flat_reference() {
        for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
            let mut engine = tiny_engine(3, partitioner);
            let mut transposed = Matrix::<u64>::new(DIM, DIM);
            for &(r, c, v) in &col_stream(2500) {
                engine.update(r, c, v).unwrap();
                transposed.accum_element(c, r, v).unwrap();
            }
            transposed.wait();
            // Mid-ingest: staged and in-flight tuples must be visible.
            let probe_col = 7u64;
            let mut got = Vec::new();
            engine.read_col(probe_col, &mut got);
            let mut expect = Vec::new();
            transposed.read_row(probe_col, &mut expect);
            assert!(!expect.is_empty());
            assert_eq!(got, expect, "{partitioner:?}");
            assert_eq!(
                engine.read_col_degree(probe_col),
                transposed.read_row_degree(probe_col),
                "{partitioner:?}"
            );
            assert_eq!(
                engine.read_col_reduce(probe_col),
                transposed.read_row_reduce(probe_col)
            );
            assert_eq!(engine.read_col_degree(DIM - 1), 0);
            assert_eq!(engine.read_col_reduce(DIM - 1), None);
            // In-degree ranking: per-shard partial degrees must sum before
            // ranking — the transposed flat matrix is the oracle.
            assert_eq!(engine.read_in_top_k(7), transposed.read_top_k(7));
            assert_eq!(
                engine.read_in_degree_histogram(),
                transposed.read_degree_histogram()
            );
            // Column band: (col, row)-sorted and identical to a transposed
            // row band with coordinates swapped back.
            let mut got_band = Vec::new();
            engine.read_col_range(0, 30, &mut |r, c, v| got_band.push((r, c, v)));
            let mut expect_band = Vec::new();
            transposed.read_row_range(0, 30, &mut |c, r, v| expect_band.push((r, c, v)));
            assert!(!expect_band.is_empty());
            assert_eq!(got_band, expect_band, "{partitioner:?}");
        }
    }

    #[test]
    fn column_battery_never_materializes() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        for &(r, c, v) in &col_stream(2000) {
            engine.update(r, c, v).unwrap();
        }
        let before = engine.pushdown_queries();
        let mut col = Vec::new();
        engine.read_col(7, &mut col);
        assert!(!col.is_empty());
        let _ = engine.read_col_degree(7);
        let _ = engine.read_col_reduce(7);
        let _ = engine.read_in_top_k(5);
        let _ = engine.read_in_degree_histogram();
        let mut n = 0usize;
        engine.read_col_range(0, 30, &mut |_, _, _| n += 1);
        assert!(n > 0);
        let _ = engine.read_rows(&[0, 797_003]);
        let _ = engine.read_get_many(&[(797_003, 7)]);
        // 7 push-down rounds, not 8: the histogram right after top-k reuses
        // the producer-side summed in-degree cache instead of re-shipping
        // every shard's column stats.
        assert!(engine.pushdown_queries() >= before + 7);
        let warm = engine.pushdown_queries();
        let _ = engine.read_in_top_k(5);
        assert_eq!(engine.pushdown_queries(), warm, "cache hit expected");
        engine.update(1, 1, 1).unwrap();
        let _ = engine.read_in_top_k(5);
        assert!(
            engine.pushdown_queries() > warm,
            "ingest must invalidate the in-degree cache"
        );
        // The whole column battery ran off worker-side twins and cursors:
        // no shard ever materialised `Σ levels`.
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
    }

    #[test]
    fn batched_pushdown_matches_singles() {
        // RowRange spreads consecutive probe rows across different owners,
        // exercising the group-by-shard dispatch and request-order
        // reassembly.
        let mut engine = tiny_engine(4, ShardPartitioner::RowRange);
        let updates = col_stream(2000);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
        }
        let mut probe_rows: Vec<u64> = updates.iter().take(9).map(|u| u.0).collect();
        probe_rows.push(DIM - 1); // absent row
        let batched = engine.read_rows(&probe_rows);
        assert_eq!(batched.len(), probe_rows.len());
        for (&row, got) in probe_rows.iter().zip(&batched) {
            let mut single = Vec::new();
            engine.read_row(row, &mut single);
            assert_eq!(*got, single, "row {row}");
        }
        let mut keys: Vec<(u64, u64)> = updates.iter().take(9).map(|u| (u.0, u.1)).collect();
        keys.push((DIM - 1, DIM - 1)); // absent cell
        let values = engine.read_get_many(&keys);
        assert_eq!(values.len(), keys.len());
        for (&(r, c), got) in keys.iter().zip(&values) {
            assert_eq!(*got, engine.read_get(r, c), "key ({r}, {c})");
        }
        // One batched call is a single push-down round, fanning out to at
        // most one query per owning shard.
        let before = engine.pushdown_queries();
        let _ = engine.read_rows(&probe_rows);
        assert_eq!(engine.pushdown_queries(), before + 1);
        assert!(engine.last_query_fanout() <= 4);
    }

    #[test]
    fn snapshot_column_answers_survive_continued_ingest() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        let updates = col_stream(2400);
        let (first, second) = updates.split_at(1200);
        let mut transposed = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in first {
            engine.update(r, c, v).unwrap();
            transposed.accum_element(c, r, v).unwrap();
        }
        transposed.wait();
        let mut snap = engine.snapshot().unwrap();
        // Keep ingesting after the capture: the snapshot must stay pinned
        // to the barrier state.
        for &(r, c, v) in second {
            engine.update(r, c, v).unwrap();
        }
        assert_eq!(snap.read_in_top_k(5), transposed.read_top_k(5));
        assert_eq!(
            snap.read_in_degree_histogram(),
            transposed.read_degree_histogram()
        );
        let mut got = Vec::new();
        snap.read_col(7, &mut got);
        let mut expect = Vec::new();
        transposed.read_row(7, &mut expect);
        assert_eq!(got, expect);
        assert_eq!(snap.read_col_degree(7), transposed.read_row_degree(7));
        let mut got_band = Vec::new();
        snap.read_col_range(0, 30, &mut |r, c, v| got_band.push((r, c, v)));
        let mut expect_band = Vec::new();
        transposed.read_row_range(0, 30, &mut |c, r, v| expect_band.push((r, c, v)));
        assert_eq!(got_band, expect_band);
        // Batched snapshot reads agree with their single-key counterparts.
        let rows: Vec<u64> = first.iter().take(5).map(|u| u.0).collect();
        let singles: Vec<Vec<(u64, u64)>> = rows
            .iter()
            .map(|&r| {
                let mut out = Vec::new();
                snap.read_row(r, &mut out);
                out
            })
            .collect();
        assert_eq!(snap.read_rows(&rows), singles);
        let keys: Vec<(u64, u64)> = first.iter().take(5).map(|u| (u.0, u.1)).collect();
        let point_singles: Vec<Option<u64>> =
            keys.iter().map(|&(r, c)| snap.read_get(r, c)).collect();
        assert_eq!(snap.read_get_many(&keys), point_singles);
        // The engine itself has since moved past the capture.
        assert!(engine.read_nnz() > snap.read_nnz());
    }

    #[test]
    fn snapshot_answers_capture_while_ingest_continues() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        let updates = stream(2000);
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in &updates {
            engine.update(r, c, v).unwrap();
            flat.accum_element(r, c, v).unwrap();
        }
        flat.wait();
        let mut snap = engine.snapshot().unwrap();
        assert_eq!(snap.num_shards(), 3);
        // The engine keeps ingesting *after* the capture...
        for &(r, c, v) in &stream(1000) {
            engine.update(r.wrapping_add(1), c, v).unwrap();
        }
        // ...while the snapshot still answers exactly the captured state.
        assert_eq!(snap.read_nnz(), flat.nvals());
        let probe = flat.dcsr().row_ids()[0];
        let (cols, vals) = flat.dcsr().row(probe).unwrap();
        assert_eq!(snap.read_row_degree(probe), cols.len());
        assert_eq!(snap.read_row_reduce(probe), Some(vals.iter().sum::<u64>()));
        assert_eq!(snap.read_get(probe, cols[0]), Some(vals[0]));
        let mut got = Vec::new();
        snap.read_entries(&mut |r, c, v| got.push((r, c, v)));
        let expect: Vec<_> = flat.iter_settled().collect();
        assert_eq!(got, expect);
        // Top-k re-ranks the per-shard index answers.
        let mut ranking: Vec<(u64, usize)> = (0..flat.dcsr().nrows_nonempty())
            .map(|k| (flat.dcsr().row_ids()[k], flat.dcsr().row_slot(k).0.len()))
            .collect();
        ranking.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranking.truncate(5);
        assert_eq!(snap.read_top_k(5), ranking);
        // The capture never materialised any shard.
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
    }

    #[test]
    fn row_range_dispatches_only_overlapping_workers() {
        let mut range_engine = tiny_engine(4, ShardPartitioner::RowRange);
        let mut hash_engine = tiny_engine(4, ShardPartitioner::RowHash);
        let updates = stream(2000);
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in &updates {
            range_engine.update(r, c, v).unwrap();
            hash_engine.update(r, c, v).unwrap();
            flat.accum_element(r, c, v).unwrap();
        }
        flat.wait();
        // A band well inside the first shard's range (rows < DIM / 4).
        let (lo, hi) = (0u64, 1u64 << 26);
        let expect: Vec<(u64, u64, u64)> = flat
            .iter_settled()
            .filter(|&(r, _, _)| r >= lo && r < hi)
            .collect();
        let mut got = Vec::new();
        range_engine.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got, expect);
        assert_eq!(
            range_engine.last_query_fanout(),
            1,
            "narrow range should visit one RowRange worker"
        );
        // The hash partitioner cannot bound the scan: full fan-out.
        got.clear();
        hash_engine.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got, expect);
        assert_eq!(hash_engine.last_query_fanout(), 4);
        // Wide ranges visit every band worker and agree too.
        got.clear();
        range_engine.read_row_range(0, DIM, &mut |r, c, v| got.push((r, c, v)));
        assert_eq!(got.len(), flat.nvals());
        assert_eq!(range_engine.last_query_fanout(), 4);
        // Empty range is free.
        got.clear();
        range_engine.read_row_range(5, 5, &mut |r, c, v| got.push((r, c, v)));
        assert!(got.is_empty());
    }

    #[test]
    fn histogram_pushdown_sums_disjoint_shards() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in &stream(1500) {
            engine.update(r, c, v).unwrap();
            flat.accum_element(r, c, v).unwrap();
        }
        assert_eq!(engine.read_degree_histogram(), flat.read_degree_histogram());
        assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        for &(r, c, v) in &stream(300) {
            engine.update(r, c, v).unwrap();
        }
        // Dropping with staged + in-flight tuples must not hang or panic.
        drop(engine);
    }

    #[test]
    fn pattern_push_folds_partials_across_shards() {
        // Edges 1->5, 2->5, 3->5 land on different shards under RowHash;
        // column 5's partial products must sum producer-side.
        for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
            let mut engine = tiny_engine(4, partitioner);
            let big = 3 * (DIM / 4) + 9; // lands in a high RowRange band
            for (r, c) in [(1u64, 5u64), (2, 5), (3, 5), (3, 7), (big, 5)] {
                engine.update(r, c, 1).unwrap();
            }
            let u: Vec<(u64, f64)> = vec![(1, 0.25), (2, 0.5), (3, 1.0), (big, 2.0)];
            let before = engine.pushdown_queries();
            let got = engine.try_vxm_pattern(&u, PatternAdd::Plus).unwrap();
            assert_eq!(got, vec![(5, 3.75), (7, 1.0)], "{partitioner:?}");
            assert!(engine.pushdown_queries() > before);
            let got = engine.try_vxm_pattern(&u, PatternAdd::Min).unwrap();
            assert_eq!(got, vec![(5, 0.25), (7, 1.0)], "{partitioner:?}");
        }
    }

    #[test]
    fn out_degrees_concatenate_disjoint_shards() {
        let mut engine = tiny_engine(3, ShardPartitioner::RowHash);
        let mut flat = Matrix::<u64>::new(DIM, DIM);
        for &(r, c, v) in &stream(1200) {
            engine.update(r, c, v).unwrap();
            flat.accum_element(r, c, v).unwrap();
        }
        let got = engine.try_out_degrees().unwrap();
        let want = CursorReader::out_degrees(&mut flat).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn pushdown_pagerank_and_bfs_match_flat_oracle() {
        let edges: &[(u64, u64)] = &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 0),
            (3, 4),
            (4, 3),
            (9, 2),
            (1 << 30, 0),
        ];
        for partitioner in [ShardPartitioner::RowHash, ShardPartitioner::RowRange] {
            let mut engine = tiny_engine(4, partitioner);
            let mut flat = Matrix::<u64>::new(DIM, DIM);
            for &(r, c) in edges {
                engine.update(r, c, 1).unwrap();
                flat.accum_element(r, c, 1).unwrap();
            }
            let pr = engine.pagerank(0.85, 60, 1e-12).unwrap();
            let oracle = hyperstream_graphblas::algo::pagerank(&mut flat, 0.85, 60, 1e-12);
            assert_eq!(pr.nvals(), oracle.nvals(), "{partitioner:?}");
            for (v, r) in pr.iter() {
                let s = oracle.get(v).expect("same active set");
                assert!((r - s).abs() < 1e-9, "{partitioner:?} v={v}: {r} vs {s}");
            }
            for src in [0u64, 3, 9, 77] {
                let got = engine.bfs_levels(src).unwrap();
                let want = hyperstream_graphblas::algo::bfs_levels(&mut flat, src);
                assert_eq!(
                    got.iter().collect::<Vec<_>>(),
                    want.iter().collect::<Vec<_>>(),
                    "{partitioner:?} src={src}"
                );
            }
        }
    }

    #[test]
    fn engine_and_snapshot_serve_cursor_algorithms() {
        // A symmetric triangle plus stragglers, counted straight off the
        // engine (snapshot-backed CursorReader) and off an explicit
        // snapshot while ingest continues.
        let mut engine = tiny_engine(2, ShardPartitioner::RowHash);
        for (a, b) in [(1u64, 2u64), (2, 3), (1, 3), (3, 900)] {
            engine.update(a, b, 1).unwrap();
            engine.update(b, a, 1).unwrap();
        }
        assert_eq!(hyperstream_graphblas::algo::triangle_count(&mut engine), 1);
        let mut snap = engine.snapshot().unwrap();
        engine.update(5, 6, 1).unwrap(); // ingest continues past the capture
        assert_eq!(hyperstream_graphblas::algo::triangle_count(&mut snap), 1);
        assert_eq!(
            hyperstream_graphblas::algo::triangle_count_tuples(&mut snap),
            1
        );
    }
}
