//! The incremental degree index: O(1)/O(k) degree-centric analytics over a
//! streaming hypersparse matrix.
//!
//! The read-path cursor layer ([`crate::cursor`]) made every query
//! materialisation-free, but `top_k`, `degree_distribution` and `nnz` were
//! still full `O(nnz)` sweeps — under a mixed ingest+query workload the
//! top-k quarter of the query mix dominated the whole run.  A
//! [`DegreeIndex`] turns those answers into cheap lookups by maintaining,
//! *incrementally on the existing hot-path events*:
//!
//! * a **cell-membership oracle** (`cells`): the set of distinct
//!   `(row, col)` cells of the represented union.  Fed from the settle
//!   dedup-unpack (the sorted, deduplicated pending batch), one hash probe
//!   per settled distinct cell decides whether the union grew.  Cascades
//!   (`merge_into` between levels) move cells without changing the union,
//!   so they need **no** index maintenance at all.
//! * **per-row counters** (`rows`): distinct-column degree and the
//!   `+`-monoid weight reduction of every non-empty row, shared with
//!   snapshots through an [`Arc`] (copy-on-write: maintaining the index
//!   while a snapshot is outstanding clones the row stats once, `O(rows)`,
//!   never the cell oracle).
//! * an exact **`nnz`** counter.
//!
//! `top_k` and the degree histogram are served from **caches kept current
//! by the settle observer**.  The first query builds a cache with one scan
//! of the row stats (`O(rows)`, a bounded min-heap for top-k — no sort of
//! the full row set).  From then on each settle updates it in place, at a
//! cost proportional to the rows the settle touched, and every query
//! answers in `O(k)` / `O(distinct degrees)`:
//!
//! * the top-k cache holds the `C` leading rows.  Between clears degrees
//!   only grow, so the new top `C` is a subset of the old top `C` plus the
//!   rows the settle touched.  A touched row whose degree rose is checked
//!   against the cached `C`-th key; those that beat it are merged in and
//!   the list is cut back to `C`.
//! * the histogram moves each touched row from its old degree to its new
//!   one.
//!
//! A cache nobody has queried is not maintained, and the bulk paths
//! (`observe_dcsr*`, `add_unique_row`, `clear`) let both caches go stale
//! for the next query to rebuild.  Answers are deterministic (degree
//! descending, row ascending) and byte-identical to the cursor-sweep
//! fallback, which the read paths keep as a `debug_assert` and the
//! equivalence property tests drive directly.
//!
//! Ordering caveat: per-row weights fold in *arrival* order while a cursor
//! sweep folds in level/column order.  For the integer scalar types every
//! reader uses the `+` monoid is associative and the answers are
//! byte-identical; for `f64` the two paths may differ in the last ulp.

use crate::formats::dcsr::Dcsr;
use crate::index::Index;
use crate::types::ScalarType;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A multiply-rotate hasher (FxHash-style) for the index's hot cell and row
/// probes: the default SipHash is measurably slower on the settle path and
/// the keys here are attacker-free internal coordinates.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Deterministic builder: no per-process random seed, so iteration order —
/// which never leaks into answers, all of which sort — is reproducible.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Pack a `(row, col)` coordinate into the cell-oracle key.  Dimensions are
/// capped at [`crate::index::MAX_DIM`] = 2^60, so both halves fit.
#[inline]
fn cell_key(row: Index, col: Index) -> u128 {
    ((row as u128) << 64) | col as u128
}

/// Degree and weight-reduce counters of one non-empty row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowStat<V> {
    /// Number of distinct columns stored in the row.
    pub degree: u64,
    /// `+`-monoid reduction of every value accumulated into the row.
    pub weight: V,
}

/// The shared (snapshot-visible) part of the index: per-row stats, the
/// exact distinct-cell count, and a version stamp for the lazy caches.
#[derive(Debug, Clone)]
struct RowStatsCore<V> {
    rows: HashMap<Index, RowStat<V>, FxBuildHasher>,
    nnz: usize,
    /// Bumped on every mutation; a query cache is valid while its stamp
    /// equals this.
    version: u64,
}

impl<V> Default for RowStatsCore<V> {
    fn default() -> Self {
        Self {
            rows: HashMap::default(),
            nnz: 0,
            version: 0,
        }
    }
}

/// Query caches, each valid while its version stamp equals the core's.
/// The settle observer keeps a valid cache valid by updating it in place;
/// every other mutation lets it go stale, and the next query rebuilds it.
/// Not shared: a snapshot's view carries its own copy, frozen with the
/// core it captured.
///
/// Version 0 is the empty core's version, so `Default` (all-empty caches
/// stamped 0) is trivially consistent with a fresh core.
#[derive(Debug, Clone, Default)]
struct QueryCache {
    /// The top `covered` rows by (degree desc, row asc); answers any
    /// `top_k(k)` with `k <= covered` (or when it holds every row).
    topk: Vec<(Index, usize)>,
    /// How many leading ranks `topk` is valid for.
    covered: usize,
    /// True when `topk` holds *every* non-empty row.
    complete: bool,
    topk_version: u64,
    /// degree -> number of rows with that degree.
    hist: BTreeMap<u64, u64>,
    hist_version: u64,
    /// Reusable min-heap buffer for rebuilds.
    heap_buf: Vec<std::cmp::Reverse<(u64, std::cmp::Reverse<Index>)>>,
}

/// Rank order of the top-k answers: degree descending, row ascending.
fn rank_order(a: &(Index, usize), b: &(Index, usize)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

impl QueryCache {
    /// Whether a row now at `degree` may enter the cached ranks: when the
    /// cache holds every row, any row whose degree rose; otherwise only a
    /// row whose key beats the cached last (C-th) key.  Degrees only grow
    /// between clears, so a row that does not beat it stays outside the
    /// top C: the C cached rows all still rank above it.
    #[inline]
    fn topk_admits(&self, row: Index, degree: u64) -> bool {
        if self.complete {
            return true;
        }
        match self.topk.last() {
            Some(&(last_row, last_deg)) => {
                let last_deg = last_deg as u64;
                degree > last_deg || (degree == last_deg && row < last_row)
            }
            None => true,
        }
    }

    /// Fold one settle's `(row, new degree)` candidates into the cached
    /// ranks: the new top C is a subset of the old top C plus the
    /// candidates.
    fn merge_topk_candidates(&mut self, mut candidates: Vec<(Index, u64)>) {
        if candidates.is_empty() {
            return;
        }
        // A row can be a candidate many times in one settle (the column
        // index sees a column once per row storing it); its degree only
        // rose, so the largest is the latest.
        candidates.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        candidates.dedup_by_key(|c| c.0);
        self.topk
            .retain(|&(row, _)| candidates.binary_search_by_key(&row, |c| c.0).is_err());
        self.topk
            .extend(candidates.iter().map(|&(row, d)| (row, d as usize)));
        self.topk.sort_unstable_by(rank_order);
        if self.topk.len() > self.covered {
            self.topk.truncate(self.covered);
            self.complete = false;
        }
    }
}

/// Move one row from `old` to `new` degree in a degree histogram (`old` 0
/// is a row that did not exist).
fn hist_move(hist: &mut BTreeMap<u64, u64>, old: u64, new: u64) {
    if old > 0 {
        if let Some(n) = hist.get_mut(&old) {
            *n -= 1;
            if *n == 0 {
                hist.remove(&old);
            }
        }
    }
    *hist.entry(new).or_insert(0) += 1;
}

/// Smallest top-k cache width: rebuilding for a tiny `k` would re-scan the
/// row stats again as soon as a slightly larger `k` arrives, so rebuilds
/// always cover at least this many ranks.
const TOPK_MIN_COVER: usize = 128;

/// A read-only view of a [`DegreeIndex`]: the `Arc`-shared row stats plus
/// private query caches.  This is what a [`MatrixSnapshot`] carries — the
/// writer keeps maintaining its index (copy-on-write on the shared core)
/// while the view keeps answering from the captured state.
///
/// [`MatrixSnapshot`]: crate::snapshot::MatrixSnapshot
#[derive(Debug, Clone)]
pub struct DegreeIndexView<V> {
    core: Arc<RowStatsCore<V>>,
    cache: QueryCache,
}

impl<V: ScalarType> Default for DegreeIndexView<V> {
    fn default() -> Self {
        Self {
            core: Arc::new(RowStatsCore::default()),
            cache: QueryCache::default(),
        }
    }
}

impl<V: ScalarType> DegreeIndexView<V> {
    /// Distinct `(row, col)` cells — O(1).
    pub fn nnz(&self) -> usize {
        self.core.nnz
    }

    /// Number of non-empty rows — O(1).
    pub fn nrows_nonempty(&self) -> usize {
        self.core.rows.len()
    }

    /// Distinct columns stored in `row` — O(1).
    pub fn row_degree(&self, row: Index) -> usize {
        self.core.rows.get(&row).map_or(0, |s| s.degree as usize)
    }

    /// `+`-reduction of `row`'s accumulated values — O(1), `None` when the
    /// row is empty.
    pub fn row_weight(&self, row: Index) -> Option<V> {
        self.core.rows.get(&row).map(|s| s.weight)
    }

    /// Every non-empty row's `(row, distinct-column count)`, sorted by
    /// row — the out-degree table the reader-native pagerank consumes in
    /// one O(rows) pass instead of a per-iteration entry sweep.
    pub fn row_degrees(&self) -> Vec<(Index, u64)> {
        let mut out: Vec<(Index, u64)> =
            self.core.rows.iter().map(|(&r, s)| (r, s.degree)).collect();
        out.sort_unstable_by_key(|&(r, _)| r);
        out
    }

    /// The `k` rows with the most distinct columns (degree descending, row
    /// ascending) — O(k) off the cache, which the settle observer keeps
    /// current; one O(rows) bounded-heap scan builds it on first use and
    /// after a bulk mutation.
    pub fn top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        if k == 0 {
            return Vec::new();
        }
        let stale = self.cache.topk_version != self.core.version
            || (self.cache.covered < k && !self.cache.complete);
        if stale {
            self.rebuild_topk(k.max(TOPK_MIN_COVER));
        }
        let take = k.min(self.cache.topk.len());
        self.cache.topk[..take].to_vec()
    }

    /// One bounded-heap pass over the row stats: collects the top `cover`
    /// ranks exactly as a full sort would order them.
    fn rebuild_topk(&mut self, cover: usize) {
        use std::cmp::Reverse;
        // Clear before heapifying: `from` on an empty Vec is free.
        self.cache.heap_buf.clear();
        let mut heap = std::collections::BinaryHeap::from(std::mem::take(&mut self.cache.heap_buf));
        for (&row, stat) in &self.core.rows {
            heap.push(Reverse((stat.degree, Reverse(row))));
            if heap.len() > cover {
                heap.pop();
            }
        }
        self.cache.complete = heap.len() == self.core.rows.len();
        self.cache.covered = cover;
        let mut buf = heap.into_vec();
        self.cache.topk.clear();
        self.cache.topk.extend(
            buf.drain(..)
                .map(|Reverse((d, Reverse(r)))| (r, d as usize)),
        );
        self.cache.heap_buf = buf;
        self.cache.topk.sort_unstable_by(rank_order);
        self.cache.topk_version = self.core.version;
    }

    /// The degree histogram (`degree -> row count`) — O(distinct degrees)
    /// off the cache, which the settle observer keeps current; one O(rows)
    /// scan builds it on first use and after a bulk mutation.
    pub fn degree_histogram(&mut self) -> BTreeMap<u64, u64> {
        if self.cache.hist_version != self.core.version {
            self.cache.hist.clear();
            for stat in self.core.rows.values() {
                *self.cache.hist.entry(stat.degree).or_insert(0) += 1;
            }
            self.cache.hist_version = self.core.version;
        }
        self.cache.hist.clone()
    }
}

/// The incremental degree index a hierarchical matrix maintains alongside
/// its levels.  See the [module documentation](self) for the design.
///
/// The index starts **inactive**: pure-ingest workloads never touch it
/// (the observers return immediately), so streams that are never asked a
/// degree question pay zero maintenance.  The first degree query
/// activates it ([`DegreeIndex::activate`] + one `observe`/`add` rebuild
/// sweep by the owner); from then on the settle observer maintains it
/// incrementally.
#[derive(Debug, Clone)]
pub struct DegreeIndex<V> {
    /// Membership oracle over every distinct cell of the union.  Writer
    /// private: snapshots never need it, so maintaining the index past a
    /// snapshot copies only the row stats, not this set.
    cells: HashSet<u128, FxBuildHasher>,
    /// False until the first degree query: observers are no-ops while
    /// inactive.
    active: bool,
    view: DegreeIndexView<V>,
}

impl<V: ScalarType> Default for DegreeIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: ScalarType> DegreeIndex<V> {
    /// An empty, inactive index.
    pub fn new() -> Self {
        Self {
            cells: HashSet::default(),
            active: false,
            view: DegreeIndexView::default(),
        }
    }

    /// True once a degree query has activated maintenance.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Start maintaining the index.  The owner must immediately rebuild it
    /// from the current content (e.g. [`DegreeIndex::observe_dcsr`] per
    /// settled level — the cell oracle deduplicates across levels);
    /// afterwards every settle flows through the observers.  Idempotent.
    pub fn activate(&mut self) {
        self.active = true;
    }

    /// Remove everything and deactivate (the matrix was cleared; the next
    /// degree query rebuilds from scratch).
    pub fn clear(&mut self) {
        self.cells.clear();
        self.cells.shrink_to_fit();
        self.active = false;
        let core = Arc::make_mut(&mut self.view.core);
        core.rows.clear();
        core.nnz = 0;
        core.version += 1;
    }

    /// A cheap, immutable view sharing the row stats (the snapshot
    /// companion).  The caches are cloned warm.
    pub fn view(&self) -> DegreeIndexView<V> {
        self.view.clone()
    }

    /// Bytes held by the index structures (hash tables + caches), for the
    /// memory accounting of the owning matrix.
    pub fn memory_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<u128>()
            + self.view.core.rows.capacity()
                * (std::mem::size_of::<Index>() + std::mem::size_of::<RowStat<V>>())
            + self.view.cache.topk.capacity() * std::mem::size_of::<(Index, usize)>()
    }

    /// Observe the settle dedup-unpack: `rows/cols/vals` are one sorted,
    /// row-major, in-batch-deduplicated pending batch about to merge into a
    /// settled level.  Values must already be combined under `+` (they
    /// are — the hierarchy settles with the `Plus` monoid).
    ///
    /// Cost: one cell probe per batch entry plus one row-stat update per
    /// *distinct row in the batch* (the row-major order lets the per-row
    /// deltas accumulate in registers before touching the map).
    pub fn observe_settle(&mut self, rows: &[Index], cols: &[Index], vals: &[V]) {
        if !self.active || rows.is_empty() {
            return;
        }
        let core = Arc::make_mut(&mut self.view.core);
        let cache = &mut self.view.cache;
        // Caches valid before this settle are updated in place and stay
        // valid; stale ones stay stale for the next query to rebuild.
        let keep_topk = cache.topk_version == core.version;
        let keep_hist = cache.hist_version == core.version;
        let mut candidates = Vec::new();
        let mut i = 0;
        while i < rows.len() {
            let row = rows[i];
            let mut new_cells = 0u64;
            let mut weight = V::default();
            while i < rows.len() && rows[i] == row {
                if self.cells.insert(cell_key(row, cols[i])) {
                    new_cells += 1;
                }
                weight = weight.add(vals[i]);
                i += 1;
            }
            let stat = core.rows.entry(row).or_insert(RowStat {
                degree: 0,
                weight: V::default(),
            });
            let old = stat.degree;
            stat.degree += new_cells;
            stat.weight = stat.weight.add(weight);
            core.nnz += new_cells as usize;
            if new_cells > 0 {
                if keep_topk && cache.topk_admits(row, stat.degree) {
                    candidates.push((row, stat.degree));
                }
                if keep_hist {
                    hist_move(&mut cache.hist, old, stat.degree);
                }
            }
        }
        core.version += 1;
        if keep_topk {
            cache.merge_topk_candidates(candidates);
            cache.topk_version = core.version;
        }
        if keep_hist {
            cache.hist_version = core.version;
        }
    }

    /// Observe a settled structure wholesale (the `update_matrix` bulk
    /// path): every entry runs through the cell oracle.
    pub fn observe_dcsr(&mut self, d: &Dcsr<V>) {
        let (ids, ptr, cols, vals) = d.raw_parts();
        if !self.active || ids.is_empty() {
            return;
        }
        let core = Arc::make_mut(&mut self.view.core);
        for (slot, &row) in ids.iter().enumerate() {
            let mut new_cells = 0u64;
            let mut weight = V::default();
            for j in ptr[slot]..ptr[slot + 1] {
                if self.cells.insert(cell_key(row, cols[j])) {
                    new_cells += 1;
                }
                weight = weight.add(vals[j]);
            }
            let stat = core.rows.entry(row).or_insert(RowStat {
                degree: 0,
                weight: V::default(),
            });
            stat.degree += new_cells;
            stat.weight = stat.weight.add(weight);
            core.nnz += new_cells as usize;
        }
        core.version += 1;
    }

    /// Observe a settled structure **transposed**: every `(row, col)` entry
    /// feeds the oracle and stats as `(col, row)`.  This is how a *column*
    /// degree index rebuilds from row-major level structures — the settle
    /// observer is coordinate-agnostic (grouping by the first coordinate is
    /// only a fast path), so the same [`DegreeIndex`] type indexes either
    /// axis; only this bulk rebuild needs to know the storage is row-major.
    pub fn observe_dcsr_transposed(&mut self, d: &Dcsr<V>) {
        let (ids, ptr, cols, vals) = d.raw_parts();
        if !self.active || ids.is_empty() {
            return;
        }
        let core = Arc::make_mut(&mut self.view.core);
        for (slot, &row) in ids.iter().enumerate() {
            for j in ptr[slot]..ptr[slot + 1] {
                let col = cols[j];
                let new_cell = self.cells.insert(cell_key(col, row));
                let stat = core.rows.entry(col).or_insert(RowStat {
                    degree: 0,
                    weight: V::default(),
                });
                if new_cell {
                    stat.degree += 1;
                    core.nnz += 1;
                }
                stat.weight = stat.weight.add(vals[j]);
            }
        }
        core.version += 1;
    }

    /// Record one row's worth of entries that are *known distinct and new*
    /// (no cell probes) — the rebuild path of readers that reconstruct an
    /// index from an already-deduplicated union sweep, where the oracle
    /// would be pure overhead.  The cell oracle is left untouched, so a
    /// rebuilt index must not be maintained incrementally afterwards
    /// (rebuild again instead).
    pub fn add_unique_row(&mut self, row: Index, degree: u64, weight: V) {
        let core = Arc::make_mut(&mut self.view.core);
        let stat = core.rows.entry(row).or_insert(RowStat {
            degree: 0,
            weight: V::default(),
        });
        stat.degree += degree;
        stat.weight = stat.weight.add(weight);
        core.nnz += degree as usize;
        core.version += 1;
    }

    /// Distinct `(row, col)` cells — O(1).
    pub fn nnz(&self) -> usize {
        self.view.nnz()
    }

    /// Number of non-empty rows — O(1).
    pub fn nrows_nonempty(&self) -> usize {
        self.view.nrows_nonempty()
    }

    /// Distinct columns stored in `row` — O(1).
    pub fn row_degree(&self, row: Index) -> usize {
        self.view.row_degree(row)
    }

    /// `+`-reduction of `row`'s accumulated values — O(1).
    pub fn row_weight(&self, row: Index) -> Option<V> {
        self.view.row_weight(row)
    }

    /// The `k` highest-degree rows (degree desc, row asc) — O(k) warm.
    pub fn top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        self.view.top_k(k)
    }

    /// Every non-empty row's `(row, degree)` sorted by row — O(rows).
    pub fn row_degrees(&self) -> Vec<(Index, u64)> {
        self.view.row_degrees()
    }

    /// The degree histogram — O(distinct degrees) warm.
    pub fn degree_histogram(&mut self) -> BTreeMap<u64, u64> {
        self.view.degree_histogram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Plus;

    fn settle(ix: &mut DegreeIndex<u64>, batch: &[(u64, u64, u64)]) {
        // Batches must arrive sorted row-major and deduplicated, like the
        // real settle produces.
        ix.activate();
        let rows: Vec<u64> = batch.iter().map(|e| e.0).collect();
        let cols: Vec<u64> = batch.iter().map(|e| e.1).collect();
        let vals: Vec<u64> = batch.iter().map(|e| e.2).collect();
        ix.observe_settle(&rows, &cols, &vals);
    }

    #[test]
    fn inactive_index_ignores_observers() {
        let mut ix = DegreeIndex::<u64>::new();
        assert!(!ix.is_active());
        ix.observe_settle(&[1, 2], &[1, 2], &[1, 1]);
        let d = Dcsr::from_tuples(10, 10, &[3], &[3], &[3u64], Plus).unwrap();
        ix.observe_dcsr(&d);
        // Nothing recorded: pure-ingest streams pay no maintenance.
        assert_eq!(ix.nnz(), 0);
        assert!(ix.top_k(5).is_empty());
        // Activation starts maintenance; clear() deactivates again.
        ix.activate();
        assert!(ix.is_active());
        ix.observe_dcsr(&d);
        assert_eq!(ix.nnz(), 1);
        ix.clear();
        assert!(!ix.is_active());
    }

    #[test]
    fn incremental_counters_match_reality() {
        let mut ix = DegreeIndex::<u64>::new();
        assert_eq!(ix.nnz(), 0);
        assert_eq!(ix.row_degree(5), 0);
        assert_eq!(ix.row_weight(5), None);
        assert!(ix.top_k(3).is_empty());

        settle(&mut ix, &[(5, 1, 10), (5, 2, 20), (9, 9, 1)]);
        assert_eq!(ix.nnz(), 3);
        assert_eq!(ix.row_degree(5), 2);
        assert_eq!(ix.row_weight(5), Some(30));
        assert_eq!(ix.row_weight(9), Some(1));

        // A later settle revisits one cell (weight grows, degree does not)
        // and adds one new cell.
        settle(&mut ix, &[(5, 2, 5), (5, 3, 7)]);
        assert_eq!(ix.nnz(), 4);
        assert_eq!(ix.row_degree(5), 3);
        assert_eq!(ix.row_weight(5), Some(42));
        assert_eq!(ix.top_k(2), vec![(5, 3), (9, 1)]);
        assert_eq!(ix.top_k(100), vec![(5, 3), (9, 1)]);

        let hist = ix.degree_histogram();
        assert_eq!(hist.get(&3), Some(&1));
        assert_eq!(hist.get(&1), Some(&1));

        ix.clear();
        assert_eq!(ix.nnz(), 0);
        assert!(ix.top_k(5).is_empty());
        assert!(ix.degree_histogram().is_empty());
    }

    #[test]
    fn top_k_deterministic_ordering_and_cache_reuse() {
        let mut ix = DegreeIndex::<u64>::new();
        // Rows 1..=40 with degree i % 4 + 1: plenty of ties.
        for r in 1u64..=40 {
            let deg = r % 4 + 1;
            let batch: Vec<(u64, u64, u64)> = (0..deg).map(|c| (r, c, 1)).collect();
            settle(&mut ix, &batch);
        }
        let top = ix.top_k(10);
        // Ties break by ascending row id.
        let mut expect: Vec<(u64, usize)> =
            (1u64..=40).map(|r| (r, (r % 4 + 1) as usize)).collect();
        expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        expect.truncate(10);
        assert_eq!(top, expect);
        // Warm-cache answers for smaller and equal k agree with prefixes.
        assert_eq!(ix.top_k(3), expect[..3].to_vec());
        assert_eq!(ix.top_k(10), expect);
        // A mutation invalidates the cache.
        settle(
            &mut ix,
            &[(7, 100, 1), (7, 101, 1), (7, 102, 1), (7, 103, 1)],
        );
        // Row 7 had degree 7 % 4 + 1 = 4; four new cells make 8.
        assert_eq!(ix.top_k(1), vec![(7, 8)]);
    }

    #[test]
    fn topk_beyond_cached_cover_rebuilds() {
        let mut ix = DegreeIndex::<u64>::new();
        for r in 0u64..300 {
            settle(&mut ix, &[(r, 0, 1)]);
        }
        // First query caches TOPK_MIN_COVER ranks; a wider ask rebuilds.
        assert_eq!(ix.top_k(2).len(), 2);
        assert_eq!(ix.top_k(250).len(), 250);
        assert_eq!(ix.top_k(1000).len(), 300);
    }

    /// Every row's degree, ranked, from the stats themselves.
    fn ranked(ix: &DegreeIndex<u64>) -> Vec<(u64, usize)> {
        let mut all: Vec<(u64, usize)> = ix
            .row_degrees()
            .into_iter()
            .map(|(r, d)| (r, d as usize))
            .collect();
        all.sort_by(rank_order);
        all
    }

    fn ranked_hist(ix: &DegreeIndex<u64>) -> BTreeMap<u64, u64> {
        let mut h = BTreeMap::new();
        for (_, d) in ix.row_degrees() {
            *h.entry(d).or_insert(0) += 1;
        }
        h
    }

    fn caches_current(ix: &DegreeIndex<u64>) -> bool {
        let v = ix.view.core.version;
        ix.view.cache.topk_version == v && ix.view.cache.hist_version == v
    }

    #[test]
    fn settles_update_warm_caches_in_place() {
        let mut ix = DegreeIndex::<u64>::new();
        // 400 rows of degree 1..=3: far more rows than the cached ranks,
        // and long runs of equal degrees.
        for r in 0u64..400 {
            let batch: Vec<(u64, u64, u64)> = (0..r % 3 + 1).map(|c| (r, c, 1)).collect();
            settle(&mut ix, &batch);
        }
        assert_eq!(ix.top_k(10), ranked(&ix)[..10].to_vec());
        assert_eq!(ix.degree_histogram(), ranked_hist(&ix));
        assert!(!ix.view.cache.complete);
        for step in 0u64..60 {
            // Rows spread over the whole range gain cells: some climb past
            // the cached last key, most stay below it, and revisited cells
            // grow no degree.
            let mut batch: Vec<(u64, u64, u64)> = (0..5)
                .map(|j| ((step * 37 + j * 91) % 420, 100 + step % 7, 1))
                .collect();
            batch.sort_unstable();
            batch.dedup_by_key(|e| (e.0, e.1));
            settle(&mut ix, &batch);
            assert!(
                caches_current(&ix),
                "step {step}: a settle invalidated a cache"
            );
            let all = ranked(&ix);
            for k in [1usize, 10, TOPK_MIN_COVER] {
                assert_eq!(ix.top_k(k), all[..k].to_vec(), "step {step}, k = {k}");
            }
            assert_eq!(ix.degree_histogram(), ranked_hist(&ix), "step {step}");
        }
        // A bulk observation lets the caches go stale; the next query
        // rebuilds them.
        let d = Dcsr::from_tuples(1000, 1000, &[7], &[999], &[1u64], Plus).unwrap();
        ix.observe_dcsr(&d);
        assert!(!caches_current(&ix));
        assert_eq!(ix.top_k(5), ranked(&ix)[..5].to_vec());
    }

    #[test]
    fn complete_cache_admits_new_rows_until_it_overflows() {
        let mut ix = DegreeIndex::<u64>::new();
        settle(&mut ix, &[(5, 1, 1), (6, 1, 1), (6, 2, 1)]);
        assert_eq!(ix.top_k(3), vec![(6, 2), (5, 1)]);
        assert!(ix.view.cache.complete);
        // New rows join a complete cache, each settle, until it holds more
        // than its cover.
        for r in 100u64..(100 + TOPK_MIN_COVER as u64) {
            settle(&mut ix, &[(r, 1, 1)]);
            assert!(caches_current(&ix));
            let all = ranked(&ix);
            let k = all.len().min(TOPK_MIN_COVER);
            assert_eq!(ix.top_k(TOPK_MIN_COVER), all[..k].to_vec());
        }
        assert!(!ix.view.cache.complete);
        // A wider ask than the cover rebuilds.
        assert_eq!(ix.top_k(1000).len(), ix.nrows_nonempty());
    }

    #[test]
    fn view_is_stable_under_writer_mutation() {
        let mut ix = DegreeIndex::<u64>::new();
        settle(&mut ix, &[(1, 1, 5), (2, 1, 6), (2, 2, 7)]);
        let mut view = ix.view();
        settle(&mut ix, &[(3, 1, 1), (3, 2, 1), (3, 3, 1)]);
        // The view still answers from the captured state...
        assert_eq!(view.nnz(), 3);
        assert_eq!(view.row_degree(3), 0);
        assert_eq!(view.top_k(1), vec![(2, 2)]);
        // ...while the writer reflects the mutation.
        assert_eq!(ix.nnz(), 6);
        assert_eq!(ix.top_k(1), vec![(3, 3)]);
        assert_eq!(view.degree_histogram().get(&1), Some(&1));
    }

    #[test]
    fn observe_dcsr_bulk_path() {
        let d =
            Dcsr::from_tuples(100, 100, &[4, 4, 9], &[1, 2, 3], &[10u64, 20, 30], Plus).unwrap();
        let mut ix = DegreeIndex::<u64>::new();
        ix.activate();
        ix.observe_dcsr(&d);
        // Overlapping re-observation only accumulates weight where cells
        // repeat.
        ix.observe_dcsr(&d);
        assert_eq!(ix.nnz(), 3);
        assert_eq!(ix.row_degree(4), 2);
        assert_eq!(ix.row_weight(4), Some(60));
    }

    #[test]
    fn transposed_observation_builds_a_column_index() {
        // (4,1) (4,2) (9,2): column degrees are {1: 1, 2: 2}.
        let d =
            Dcsr::from_tuples(100, 100, &[4, 4, 9], &[1, 2, 2], &[10u64, 20, 30], Plus).unwrap();
        let mut ix = DegreeIndex::<u64>::new();
        ix.activate();
        ix.observe_dcsr_transposed(&d);
        assert_eq!(ix.nnz(), 3);
        assert_eq!(ix.row_degree(1), 1);
        assert_eq!(ix.row_degree(2), 2);
        assert_eq!(ix.row_weight(2), Some(50));
        assert_eq!(ix.top_k(1), vec![(2, 2)]);
        // Re-observation only accumulates weight where cells repeat.
        ix.observe_dcsr_transposed(&d);
        assert_eq!(ix.nnz(), 3);
        assert_eq!(ix.row_degree(2), 2);
        // The settle observer with swapped coordinate slices maintains the
        // same column stats incrementally (grouping by the first slice is a
        // fast path, not a correctness requirement).
        ix.observe_settle(&[7, 2], &[1, 8], &[5, 5]);
        assert_eq!(ix.row_degree(7), 1);
        assert_eq!(ix.row_degree(2), 3);
        assert_eq!(ix.nnz(), 5);
    }

    #[test]
    fn add_unique_row_rebuild_path() {
        let mut ix = DegreeIndex::<u64>::new();
        ix.add_unique_row(8, 3, 15);
        ix.add_unique_row(2, 1, 4);
        assert_eq!(ix.nnz(), 4);
        assert_eq!(ix.row_degree(8), 3);
        assert_eq!(ix.top_k(2), vec![(8, 3), (2, 1)]);
    }

    #[test]
    fn fx_hasher_covers_byte_writes() {
        use std::hash::Hash;
        let mut a = FxHasher::default();
        "hello-degree-index".hash(&mut a);
        let mut b = FxHasher::default();
        "hello-degree-index".hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        "hello-degree-indey".hash(&mut c);
        assert_ne!(a.finish(), c.finish());
    }
}
