//! The hierarchical hypersparse matrix itself.

use crate::config::HierConfig;
use crate::persist::{self, manifest, recover, wal, DurableConfig, DurableState, RecoveryReport};
use crate::stats::HierStats;
use hyperstream_graphblas::cursor::{
    col_hits_into, col_range_transposed, fold_col_planes, for_each_merged, merge_levels,
    merged_col_degree, merged_col_into, merged_col_range, merged_col_reduce,
    merged_in_degree_histogram, merged_in_top_k, merged_nnz, merged_point, merged_row_degree,
    merged_row_into, merged_row_range, merged_row_reduce, merged_top_k, ColPlane,
};
use hyperstream_graphblas::formats::dcsr::Dcsr;
use hyperstream_graphblas::formats::MemoryFootprint;
use hyperstream_graphblas::matrix::{ColScan, ColSource};
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::ops::monoid::PlusMonoid;
use hyperstream_graphblas::ops::reduce::reduce_scalar;
use hyperstream_graphblas::{
    CursorReader, DegreeIndex, GrbError, GrbResult, Index, Matrix, MatrixReader, MatrixSnapshot,
    ScalarType, StreamingSink,
};
use std::sync::Arc;

/// An N-level hierarchical hypersparse matrix accumulating under `+`.
///
/// See the [crate-level documentation](crate) for the algorithm and an
/// example.  The accumulation operator is the `Plus` monoid of the scalar
/// type (logical OR for `bool`), matching the paper's usage; the linearity
/// guarantees the paper emphasises hold because cascades are ordinary
/// GraphBLAS `ewise_add` calls.
///
/// Alongside the levels the matrix maintains an incremental
/// [`DegreeIndex`]: every level-0 settle feeds its sorted, deduplicated
/// batch through the index (cascades move cells between levels without
/// changing the represented union, so they cost the index nothing), which
/// turns `read_nnz` / `read_row_degree` / `read_row_reduce` into O(1)
/// answers and `read_top_k` / the degree histogram into O(k) answers off
/// caches the settle observer keeps current — previously all full cursor
/// sweeps.  The sweep path is retained as the `sweep_*` fallback family and
/// re-checked by `debug_assert` on every indexed answer.
///
/// The *column* read path mirrors all of this through the transpose: a
/// second, lazily-activated [`DegreeIndex`] keyed by column (fed by the
/// same settle observer with the coordinate slices swapped) answers
/// in-degree / in-degree-top-k / in-degree-histogram in O(1)/O(k), and
/// column extracts and column-range scans run per level through
/// [`Matrix::col_source`]: a sweep of the level's row slots until the
/// sweeps since the level last changed have paid for a column twin, O(k)
/// off the twin from then on.  Cascades are union-preserving so they cost
/// the column index nothing either; the `sweep_col_*` / `sweep_in_*`
/// fallbacks retain the cursor path for equivalence checks.
#[derive(Debug)]
pub struct HierMatrix<T> {
    nrows: Index,
    ncols: Index,
    config: HierConfig,
    levels: Vec<Matrix<T>>,
    stats: HierStats,
    index: DegreeIndex<T>,
    /// Column-keyed twin of `index`: the same settle events observed with
    /// the coordinate slices swapped maintain in-degree stats (the observer
    /// is coordinate-agnostic).  Lazily activated by the first column-side
    /// degree query, so pure-ingest and row-only workloads never pay.
    col_index: DegreeIndex<T>,
    /// Durable backing (WAL + checkpointed level files), present only for
    /// matrices created through [`HierMatrix::new_durable`] /
    /// [`HierMatrix::open`].  See [`crate::persist`].
    durable: Option<DurableState>,
}

/// A clone is a detached in-memory copy: it shares no durable directory
/// with the original (two writers to one WAL would corrupt it), so the
/// clone's `durable` state is `None` regardless of the source's.
impl<T: Clone> Clone for HierMatrix<T> {
    fn clone(&self) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            config: self.config.clone(),
            levels: self.levels.clone(),
            stats: self.stats.clone(),
            index: self.index.clone(),
            col_index: self.col_index.clone(),
            durable: None,
        }
    }
}

/// Clean shutdown flushes the WAL tail to stable storage, so the next
/// open never sees a torn tail after an orderly drop.  Errors are
/// swallowed — a failing disk at drop time has nowhere to report to, and
/// recovery handles the resulting state anyway.
impl<T> Drop for HierMatrix<T> {
    fn drop(&mut self) {
        if let Some(d) = self.durable.as_mut() {
            let _ = d.wal.sync();
        }
    }
}

impl<T: ScalarType> HierMatrix<T> {
    /// Create an empty hierarchical matrix.
    pub fn new(nrows: Index, ncols: Index, config: HierConfig) -> GrbResult<Self> {
        let n_levels = config.levels();
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            // Disable the per-matrix automatic wait: the hierarchy itself is
            // the batching policy.
            levels.push(Matrix::try_new(nrows, ncols)?.with_pending_limit(usize::MAX));
        }
        Ok(Self {
            nrows,
            ncols,
            stats: HierStats::new(n_levels),
            config,
            levels,
            index: DegreeIndex::new(),
            col_index: DegreeIndex::new(),
            durable: None,
        })
    }

    /// Create with the default (paper) cut schedule.
    pub fn with_default_config(nrows: Index, ncols: Index) -> GrbResult<Self> {
        Self::new(nrows, ncols, HierConfig::default())
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// The cut configuration.
    pub fn config(&self) -> &HierConfig {
        &self.config
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &HierStats {
        &self.stats
    }

    /// Reset instrumentation counters (matrix contents are unchanged).
    pub fn reset_stats(&mut self) {
        self.stats = HierStats::new(self.levels.len());
    }

    /// Merge-kernel strategy counters (galloped / bulk-row / branchless /
    /// linear elements).  These are **process-global** — every matrix and
    /// every shard worker in the process shares them — re-exported here so
    /// engine-level debugging and the bench harness can explain *which*
    /// merge strategy a workload's cascades took without reaching into the
    /// graphblas crate.
    pub fn merge_kernel_stats() -> hyperstream_graphblas::MergeKernelStats {
        hyperstream_graphblas::merge_kernel_stats()
    }

    /// Apply one streaming update `A(row, col) += val`.
    pub fn update(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        if self.durable.is_some() {
            self.wal_log(&[row], &[col], &[val])?;
        }
        self.levels[0].accum_element(row, col, val)?;
        self.stats.updates += 1;
        self.mark_dirty(0);
        self.maybe_cascade()?;
        Ok(())
    }

    /// Apply a batch of updates given as parallel slices.
    ///
    /// The whole batch takes the bulk path: one validation pass, one bulk
    /// extend of the level-0 pending buffer, and one cascade check — which
    /// mirrors how the paper's benchmark feeds 100,000-edge sets into `A_1`.
    /// The batch applies atomically: on any invalid index nothing is
    /// inserted.
    pub fn update_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        if self.durable.is_some() {
            self.wal_log(rows, cols, vals)?;
        }
        self.levels[0].accum_tuples(rows, cols, vals)?;
        self.stats.updates += rows.len() as u64;
        self.mark_dirty(0);
        self.maybe_cascade()?;
        Ok(())
    }

    /// Apply a whole update matrix: `A_1 = A_1 ⊕ A` (the paper's formulation).
    pub fn update_matrix(&mut self, a: &Matrix<T>) -> GrbResult<()> {
        if a.nrows() != self.nrows || a.ncols() != self.ncols {
            return Err(GrbError::DimensionMismatch {
                detail: format!(
                    "update matrix is {}x{}, hierarchy is {}x{}",
                    a.nrows(),
                    a.ncols(),
                    self.nrows,
                    self.ncols
                ),
            });
        }
        let nupd = a.nvals_settled() + a.npending();
        if self.durable.is_some() {
            let (r, c, v) = a.extract_tuples();
            self.wal_log(&r, &c, &v)?;
        }
        // `accum_matrix` settles level 0 internally; settle through the
        // observed path first so the index sees the dedup-unpack, then feed
        // the whole update matrix through the cell oracle.
        self.settle_level(0);
        if a.npending() == 0 {
            self.index.observe_dcsr(a.dcsr());
            self.col_index.observe_dcsr_transposed(a.dcsr());
            self.levels[0].accum_matrix(a)?;
        } else {
            let settled = a.to_settled();
            self.index.observe_dcsr(settled.dcsr());
            self.col_index.observe_dcsr_transposed(settled.dcsr());
            self.levels[0].accum_matrix(&settled)?;
        }
        self.stats.updates += nupd as u64;
        self.mark_dirty(0);
        self.maybe_cascade()?;
        Ok(())
    }

    /// Upper bound on the number of stored entries at level `i`
    /// (exact for settled levels; counts pending tuples before duplicate
    /// collapse for level 0).
    pub fn level_entries_bound(&self, level: usize) -> usize {
        self.levels[level].nvals_settled() + self.levels[level].npending()
    }

    /// Upper bound on the total number of stored entries across all levels.
    pub fn total_entries_bound(&self) -> usize {
        (0..self.levels.len())
            .map(|i| self.level_entries_bound(i))
            .sum()
    }

    /// Per-level entry bounds, useful for inspecting the cascade state.
    pub fn entries_per_level(&self) -> Vec<usize> {
        (0..self.levels.len())
            .map(|i| self.level_entries_bound(i))
            .collect()
    }

    /// Per-level memory footprints.
    pub fn memory_per_level(&self) -> Vec<MemoryFootprint> {
        self.levels.iter().map(|l| l.memory()).collect()
    }

    /// Total bytes across all levels, including the degree index's tables.
    pub fn memory_bytes(&self) -> usize {
        self.memory_per_level()
            .iter()
            .map(|m| m.total())
            .sum::<usize>()
            + self.index.memory_bytes()
            + self.col_index.memory_bytes()
    }

    /// Sum of all stored values (in `f64`), computable without materialising
    /// because summation is linear across levels.
    pub fn total_weight(&self) -> u64 {
        self.total_weight_f64().round() as u64
    }

    /// Sum of all stored values without integer rounding, for scalar types
    /// with fractional weights.
    pub fn total_weight_f64(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| reduce_scalar(l, PlusMonoid).to_f64())
            .sum::<f64>()
    }

    /// Materialise the full matrix `A = Σ_i A_i` (the paper's query step).
    ///
    /// The hierarchy itself is left untouched, so streaming can continue
    /// afterwards; only the statistics record the materialisation.
    pub fn materialize(&mut self) -> Matrix<T> {
        self.stats.materializations += 1;
        self.materialize_ref()
    }

    /// Materialise without touching statistics (usable through `&self`).
    ///
    /// The settled level structures merge through the k-way cursor kernel
    /// in one pass — a single output allocation instead of the old
    /// per-level `ewise_add` loop that rewrote the accumulator L times —
    /// and any pending level-0 tuples fold in afterwards.
    pub fn materialize_ref(&self) -> Matrix<T> {
        let dcsrs: Vec<&Dcsr<T>> = self.level_dcsrs().collect();
        let merged =
            merge_levels(self.nrows, self.ncols, &dcsrs, Plus).expect("levels share dimensions");
        let mut acc = Matrix::from_dcsr(merged);
        self.fold_pending_into(&mut acc);
        acc
    }

    /// The settled DCSR structure of every level, lowest first (pending
    /// level-0 tuples are *not* included — see
    /// [`HierMatrix::fold_pending_into`]).
    pub(crate) fn level_dcsrs(&self) -> impl Iterator<Item = &Dcsr<T>> {
        self.levels.iter().map(|l| l.dcsr())
    }

    /// Fold every level's pending tuples into `acc` — the companion of
    /// [`HierMatrix::level_dcsrs`] for read paths that merge settled
    /// structures first.
    pub(crate) fn fold_pending_into(&self, acc: &mut Matrix<T>) {
        let mut any = false;
        for level in &self.levels {
            let (r, c, v) = level.pending_parts();
            if !r.is_empty() {
                acc.accum_tuples(r, c, v)
                    .expect("pending tuples are within bounds");
                any = true;
            }
        }
        if any {
            acc.wait();
        }
    }

    /// Settle level `i`'s pending tuples through the degree-index observer:
    /// the sorted, in-batch-deduplicated pending batch is exactly the settle
    /// dedup-unpack event the index maintains itself on.  Every settle in
    /// the hierarchy routes through here so the index never misses a cell.
    fn settle_level(&mut self, i: usize) {
        if self.levels[i].npending() == 0 {
            return;
        }
        crate::failpoint_panic!("hier-settle");
        let index = &mut self.index;
        let col_index = &mut self.col_index;
        self.levels[i].wait_observed(&mut |rows, cols, vals| {
            index.observe_settle(rows, cols, vals);
            // Same event, coordinates swapped: the observer is
            // coordinate-agnostic, so this maintains the in-degree stats.
            col_index.observe_settle(cols, rows, vals);
        });
    }

    /// Settle every level's pending tuples in place (cheap — only level 0
    /// can hold pending data, and it is cache resident by construction).
    /// The represented matrix is unchanged; afterwards the level DCSRs are
    /// the complete content, which is what the cursor queries walk.
    pub(crate) fn settle_levels(&mut self) {
        for i in 0..self.levels.len() {
            self.settle_level(i);
        }
    }

    /// The settled level DCSRs without settling — callers must have
    /// settled first ([`HierMatrix::settle_levels`]).
    fn dcsr_refs(&self) -> Vec<&Dcsr<T>> {
        self.levels.iter().map(|l| l.dcsr()).collect()
    }

    /// Settle everything and make sure the degree index is live.  The index
    /// is lazily activated so pure-ingest streams pay zero maintenance: the
    /// first degree query lands here, activates it and rebuilds it with one
    /// pass over the settled levels (the cell oracle deduplicates cells
    /// that sit in several levels); every later settle maintains it
    /// incrementally through the observer.
    fn ensure_index(&mut self) {
        self.settle_levels();
        if !self.index.is_active() {
            self.index.activate();
            for level in &self.levels {
                self.index.observe_dcsr(level.dcsr());
            }
        }
    }

    /// Settle everything and make sure the *column* degree index is live —
    /// the transpose mirror of [`HierMatrix::ensure_index`].  The first
    /// in-degree query activates it and rebuilds it with one transposed
    /// pass over the settled levels; every later settle maintains it
    /// incrementally through the swapped-coordinate observer.
    fn ensure_col_index(&mut self) {
        self.settle_levels();
        if !self.col_index.is_active() {
            self.col_index.activate();
            for level in &self.levels {
                self.col_index.observe_dcsr_transposed(level.dcsr());
            }
        }
    }

    /// Settle and return the level DCSRs for cursor queries.
    fn settled_level_dcsrs(&mut self) -> Vec<&Dcsr<T>> {
        self.settle_levels();
        self.levels.iter().map(|l| l.dcsr()).collect()
    }

    /// Settle (through the index observers) and append column `col` of
    /// every level, lowest first, to `planes` — for [`fold_col_planes`].
    /// Each level answers through [`Matrix::col_source`]: off its column
    /// twin once one has paid for itself, by sweeping its row slots until
    /// then.  Settling first matters: `col_source` runs a plain
    /// *unobserved* settle internally, which would bypass the degree
    /// indexes — after [`HierMatrix::settle_levels`] that internal wait is
    /// a no-op.  A change drops only the twin of the level it touches, so
    /// the large upper levels keep theirs between cascades while level 0,
    /// which every settle changes, sweeps.
    pub(crate) fn col_planes(&mut self, col: Index, planes: &mut Vec<ColPlane<T>>) {
        self.settle_levels();
        for level in &mut self.levels {
            let mut plane = ColPlane::default();
            match level.col_source(ColScan::Column) {
                ColSource::Twin(twin) => {
                    if let Some((rows, vals)) = twin.row(col) {
                        plane.0.extend_from_slice(rows);
                        plane.1.extend_from_slice(vals);
                    }
                }
                ColSource::Sweep(d) => col_hits_into(d, col, &mut plane),
            }
            planes.push(plane);
        }
    }

    /// Settle and append, per level and lowest first, the transposed
    /// structure holding the columns `lo..hi` — the level's column twin,
    /// or the range cut from a sweep (see [`HierMatrix::col_planes`]) — for
    /// a row-range walk that yields the columns in column-major order.
    pub(crate) fn col_range_parts(&mut self, lo: Index, hi: Index, parts: &mut Vec<Arc<Dcsr<T>>>) {
        self.settle_levels();
        for level in &mut self.levels {
            parts.push(match level.col_source(ColScan::Range) {
                ColSource::Twin(twin) => twin,
                ColSource::Sweep(d) => Arc::new(col_range_transposed(d, lo, hi)),
            });
        }
    }

    /// Exact number of stored entries of the represented matrix.
    ///
    /// Settled hierarchies are counted through the merged cursors without
    /// materialising; only when pending tuples exist does this fall back to
    /// a materialisation pass (use the [`MatrixReader`] interface to settle
    /// and avoid even that).
    pub fn nvals_exact(&self) -> usize {
        if self.levels.iter().all(|l| l.npending() == 0) {
            if self.index.is_active() {
                // Everything settled has passed through the index.
                let n = self.index.nnz();
                debug_assert_eq!(n, {
                    let dcsrs: Vec<&Dcsr<T>> = self.level_dcsrs().collect();
                    merged_nnz(&dcsrs)
                });
                n
            } else {
                let dcsrs: Vec<&Dcsr<T>> = self.level_dcsrs().collect();
                merged_nnz(&dcsrs)
            }
        } else {
            self.materialize_ref().nvals()
        }
    }

    /// Value of the represented matrix at `(row, col)`: the sum of the
    /// entry across all levels.
    pub fn get(&self, row: Index, col: Index) -> Option<T> {
        let mut acc: Option<T> = None;
        for level in &self.levels {
            if let Some(v) = level.get(row, col) {
                acc = Some(match acc {
                    Some(a) => a.add(v),
                    None => v,
                });
            }
        }
        acc
    }

    /// Push every entry up into the top level (complete all pending
    /// cascades), leaving levels `0..N-1` empty.  Useful before handing the
    /// matrix off for analysis or for checkpointing.
    ///
    /// Infallible today except under fault injection — the fallible
    /// signature is what lets a shard worker latch and report a flush
    /// failure instead of dropping it.
    pub fn flush(&mut self) -> GrbResult<()> {
        crate::failpoint!("hier-flush");
        let top = self.levels.len() - 1;
        for i in 0..top {
            let entries = self.level_entries_bound(i);
            if entries == 0 {
                continue;
            }
            self.cascade_level(i);
        }
        // A durable flush is also a checkpoint barrier: the flushed state
        // lands in level files and the WAL rotates empty, so a reopen
        // after a clean flush replays nothing.
        if self.durable.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Remove every stored entry from every level (dimensions and
    /// configuration are kept; statistics are reset).
    ///
    /// # Panics
    ///
    /// A durable matrix checkpoints the empty state immediately (the WAL
    /// has no delete records, so the old levels must be retired on the
    /// spot) and panics if that store write fails — an unpersisted clear
    /// would resurrect the deleted entries on the next open.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.index.clear();
        self.col_index.clear();
        self.reset_stats();
        if self.durable.is_some() {
            for i in 0..self.levels.len() {
                self.mark_dirty(i);
            }
            self.checkpoint()
                .expect("durable clear: checkpointing the empty state failed");
        }
    }

    /// Run the cascade check starting at level 0, exactly as in the paper:
    /// repeat while `nnz(A_i) > c_i` and `i < N`.
    ///
    /// The fill proxy for level 0 is its pending-tuple count, which counts
    /// duplicates; when the proxy trips the cut the level is first settled
    /// (cheap — it is cache resident by construction) and the *distinct*
    /// entry count decides whether a cascade really happens.  Duplicate-heavy
    /// streams therefore stay in fast memory, which is the behaviour the
    /// paper relies on for traffic matrices with heavy-hitter flows.
    fn maybe_cascade(&mut self) -> GrbResult<()> {
        let mut i = 0;
        let mut cascaded = false;
        while i + 1 < self.levels.len() {
            let cut = self
                .config
                .cut(i)
                .expect("every level below the top has a cut");
            if (self.level_entries_bound(i) as u64) <= cut {
                break;
            }
            if self.levels[i].npending() > 0 {
                self.settle_level(i);
                if (self.levels[i].nvals_settled() as u64) <= cut {
                    break;
                }
            }
            self.cascade_level(i);
            cascaded = true;
            i += 1;
        }
        // Checkpoint when a cascade chain completes: level 0 is empty at
        // this point, so the settled levels are the complete state and
        // the WAL can rotate empty (cascade-as-compaction).
        if cascaded && self.durable.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Unconditionally cascade level `i` into level `i + 1` and clear it.
    ///
    /// The merge is in place ([`Matrix::accum_matrix`]): the destination
    /// level's old structure becomes its scratch space for the next cascade
    /// and the source level keeps its buffer capacity, so steady-state
    /// cascading allocates nothing — previously every cascade rebuilt the
    /// entire destination level on the heap, the single biggest cost on the
    /// streaming hot path.
    fn cascade_level(&mut self, i: usize) {
        debug_assert!(i + 1 < self.levels.len());
        crate::failpoint_panic!("hier-cascade");
        // Settle level i first so the merge sees compressed data.  The
        // merge itself moves cells between levels without changing the
        // represented union, so the cascade costs the degree index nothing.
        self.settle_level(i);
        let moved = self.levels[i].nvals_settled() as u64;
        if moved == 0 {
            return;
        }
        let (src_levels, dst_levels) = self.levels.split_at_mut(i + 1);
        dst_levels[0]
            .accum_matrix(&src_levels[i])
            .expect("levels share dimensions by construction");
        self.levels[i].clear_retaining_capacity();
        self.stats.cascades[i] += 1;
        self.stats.entries_moved[i] += moved;
        self.mark_dirty(i);
        self.mark_dirty(i + 1);
    }

    // ----- durability ---------------------------------------------------

    /// Create a durable matrix backed by a fresh store at `cfg.dir`.
    ///
    /// The directory is created if absent; an already-initialised store is
    /// refused ([`GrbError::InvalidValue`]) — reopen it with
    /// [`HierMatrix::open_with`] instead, so a typo'd path can never
    /// silently shadow existing data.
    pub fn new_durable(
        nrows: Index,
        ncols: Index,
        config: HierConfig,
        cfg: DurableConfig,
    ) -> GrbResult<Self> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| persist::io_err("create durable dir", e))?;
        if manifest::exists(&cfg.dir) {
            return Err(GrbError::InvalidValue(format!(
                "durable store at {} is already initialised; open it instead",
                cfg.dir.display()
            )));
        }
        let mut m = Self::new(nrows, ncols, config)?;
        let wal_gen = 1u64;
        let wal_path = cfg.dir.join(manifest::wal_file_name(wal_gen));
        let wal = wal::WalWriter::create(&wal_path, T::TYPE_TAG)?;
        let n_levels = m.levels.len();
        let entries = vec![manifest::LevelEntry { gen: 0, nnz: 0 }; n_levels];
        manifest::write(
            &cfg.dir,
            &manifest::Manifest {
                type_tag: T::TYPE_TAG,
                nrows,
                ncols,
                next_gen: 2,
                wal_gen,
                cuts: m.config.cuts().to_vec(),
                levels: entries.clone(),
            },
        )?;
        m.durable = Some(DurableState {
            cfg,
            wal,
            wal_gen,
            next_gen: 2,
            levels: entries,
            dirty: vec![false; n_levels],
            report: None,
            retired_appends: 0,
            retired_syncs: 0,
        });
        Ok(m)
    }

    /// Reopen a durable store with the default (strict, fsync-every-batch)
    /// configuration.  See [`HierMatrix::open_with`].
    pub fn open(dir: impl Into<std::path::PathBuf>) -> GrbResult<Self> {
        Self::open_with(DurableConfig::new(dir))
    }

    /// Reopen a durable store: load the checkpointed level files
    /// (O(levels) structural work — each settled level is one sequential
    /// read, never a per-entry re-ingest), truncate any torn WAL tail,
    /// replay the surviving WAL records, and resume logging.
    ///
    /// The dimensions and cut schedule come from the manifest; the scalar
    /// type must match the one the store was created with
    /// ([`GrbError::Corruption`] otherwise).  Inspect what recovery did
    /// via [`HierMatrix::recovery_report`].
    pub fn open_with(cfg: DurableConfig) -> GrbResult<Self> {
        let recovered = recover::open_dir::<T>(&cfg)?;
        let recover::Recovered {
            manifest: man,
            levels,
            records,
            wal_writer,
            mut report,
        } = recovered;
        let config = HierConfig::from_cuts(man.cuts.clone())?;
        let n_levels = levels.len();
        let mut m = Self {
            nrows: man.nrows,
            ncols: man.ncols,
            config,
            levels,
            stats: HierStats::new(n_levels),
            index: DegreeIndex::new(),
            col_index: DegreeIndex::new(),
            durable: None,
        };
        // Replay the WAL on top of the checkpoint while `durable` is still
        // `None`: replay must not re-log records or trigger checkpoints,
        // and any cascades it causes stay in memory (⊕ is associative and
        // commutative, so the cascade schedule during replay need not match
        // the pre-crash one — the represented matrix is identical either
        // way).
        let replayed = report.wal_records_replayed > 0;
        for r in &records {
            let vals: Vec<T> = r.valbits.iter().map(|&b| T::decode_bits(b)).collect();
            m.update_batch(&r.rows, &r.cols, &vals)
                .map_err(|e| persist::corruption(format!("wal record failed to replay: {e}")))?;
        }
        report.wal_records_replayed = records.len() as u64;
        // Replay is reconstruction, not new ingest.
        m.reset_stats();
        // Replayed state diverges from the level files until the next
        // checkpoint; a corrupt-but-salvaged level must also be rewritten.
        let mut dirty = vec![replayed; n_levels];
        for &i in &report.corrupt_levels {
            dirty[i] = true;
        }
        m.durable = Some(DurableState {
            cfg,
            wal: wal_writer,
            wal_gen: man.wal_gen,
            next_gen: man.next_gen,
            levels: man.levels,
            dirty,
            report: Some(report),
            retired_appends: 0,
            retired_syncs: 0,
        });
        Ok(m)
    }

    /// Open the store at `cfg.dir` if initialised (validating that its
    /// dimensions and cut schedule match the requested ones), otherwise
    /// create it.
    pub fn open_or_create(
        nrows: Index,
        ncols: Index,
        config: HierConfig,
        cfg: DurableConfig,
    ) -> GrbResult<Self> {
        if manifest::exists(&cfg.dir) {
            let m = Self::open_with(cfg)?;
            if m.nrows != nrows || m.ncols != ncols {
                return Err(GrbError::InvalidValue(format!(
                    "durable store is {}x{}, requested {}x{}",
                    m.nrows, m.ncols, nrows, ncols
                )));
            }
            if m.config.cuts() != config.cuts() {
                return Err(GrbError::InvalidValue(
                    "durable store was created with a different cut schedule".into(),
                ));
            }
            Ok(m)
        } else {
            Self::new_durable(nrows, ncols, config, cfg)
        }
    }

    /// Whether this matrix persists to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What the recovery that produced this matrix observed (`None` for a
    /// non-durable or freshly created matrix).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().and_then(|d| d.report.as_ref())
    }

    /// WAL telemetry `(frames appended, fsyncs issued)` over this store's
    /// lifetime in this process, accumulated across checkpoint rotations;
    /// `None` for non-durable matrices.  Recorded in bench artifacts so a
    /// policy's *actual* sync behaviour is visible — e.g. `EveryN(64)`
    /// never reaching its threshold on a short stream, making it
    /// behaviourally identical to `Never` for that run.
    pub fn wal_telemetry(&self) -> Option<(u64, u64)> {
        self.durable.as_ref().map(|d| {
            (
                d.retired_appends + d.wal.appends(),
                d.retired_syncs + d.wal.syncs(),
            )
        })
    }

    /// Force the WAL tail to stable storage regardless of the configured
    /// [`FsyncPolicy`](crate::persist::FsyncPolicy) — a durability barrier
    /// for `EveryN`/`Never` stores.
    /// No-op on non-durable matrices.
    pub fn wal_sync(&mut self) -> GrbResult<()> {
        if let Some(d) = self.durable.as_mut() {
            d.wal.sync()?;
        }
        Ok(())
    }

    /// Checkpoint the settled levels to fresh files and rotate the WAL.
    ///
    /// Crash-consistency: every new file (dirty level files, the empty
    /// replacement WAL) is written and fsynced under a *fresh* generation
    /// number the old manifest does not reference, then the new manifest
    /// is committed via write-temp → fsync → rename → directory fsync.
    /// A crash anywhere before the rename leaves the old manifest naming
    /// the old, complete file set (the orphans are swept on reopen); the
    /// rename itself is atomic.  Only after the commit does the in-memory
    /// state swap and the old files retire, so an error at any point
    /// leaves `self` still consistently backed by the previous
    /// checkpoint + WAL.
    ///
    /// No-op on a non-durable matrix; called automatically when a cascade
    /// chain completes, on [`HierMatrix::flush`], and on
    /// [`HierMatrix::clear`].
    pub fn checkpoint(&mut self) -> GrbResult<()> {
        if self.durable.is_none() {
            return Ok(());
        }
        // Compress pending tails so the level files carry everything.
        self.settle_levels();
        let d = self.durable.as_ref().expect("checked durable above");
        let dir = d.cfg.dir.clone();
        let mut next_gen = d.next_gen;
        // Build the new entry table locally; `self.durable` is swapped only
        // after the manifest commit succeeds.
        let mut new_entries = Vec::with_capacity(self.levels.len());
        for (i, level) in self.levels.iter().enumerate() {
            debug_assert_eq!(level.npending(), 0, "settled above");
            let nnz = level.nvals_settled() as u64;
            if !d.dirty[i] {
                new_entries.push(d.levels[i]);
                continue;
            }
            if nnz == 0 {
                new_entries.push(manifest::LevelEntry { gen: 0, nnz: 0 });
                continue;
            }
            let gen = next_gen;
            next_gen += 1;
            let name = manifest::level_file_name(gen);
            persist::format::write_level(&dir, &name, &level.settled_arc())?;
            new_entries.push(manifest::LevelEntry { gen, nnz });
        }
        // Fresh empty WAL for the post-checkpoint tail.
        let new_wal_gen = next_gen;
        next_gen += 1;
        let wal_path = dir.join(manifest::wal_file_name(new_wal_gen));
        let new_wal = wal::WalWriter::create(&wal_path, T::TYPE_TAG)?;
        // The new files must be *named* durably before the manifest can
        // reference them.
        manifest::fsync_dir(&dir)?;
        // Commit point.
        let man = manifest::Manifest {
            type_tag: T::TYPE_TAG,
            nrows: self.nrows,
            ncols: self.ncols,
            next_gen,
            wal_gen: new_wal_gen,
            cuts: self.config.cuts().to_vec(),
            levels: new_entries.clone(),
        };
        manifest::write(&dir, &man)?;
        // Committed: swap in-memory state and retire the old generation's
        // files (best-effort — reopen sweeps leftovers).
        let d = self.durable.as_mut().expect("checked durable above");
        let old_wal_gen = d.wal_gen;
        let old_entries = std::mem::replace(&mut d.levels, new_entries);
        d.retired_appends += d.wal.appends();
        d.retired_syncs += d.wal.syncs();
        d.wal = new_wal;
        d.wal_gen = new_wal_gen;
        d.next_gen = next_gen;
        for flag in d.dirty.iter_mut() {
            *flag = false;
        }
        for (old, new) in old_entries.iter().zip(d.levels.iter()) {
            if old.gen != 0 && old.gen != new.gen {
                let _ = std::fs::remove_file(dir.join(manifest::level_file_name(old.gen)));
            }
        }
        let _ = std::fs::remove_file(dir.join(manifest::wal_file_name(old_wal_gen)));
        Ok(())
    }

    /// Mark level `i`'s committed file stale (no-op when not durable).
    fn mark_dirty(&mut self, i: usize) {
        if let Some(d) = self.durable.as_mut() {
            d.dirty[i] = true;
        }
    }

    /// Log a batch to the WAL *before* it touches the in-memory levels.
    ///
    /// Pre-validates everything `update_batch` would reject (length
    /// mismatch, out-of-bounds indices) so the WAL never records a batch
    /// the matrix then refuses — replay must be able to apply every
    /// surviving record.
    fn wal_log(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(GrbError::DimensionMismatch {
                detail: format!(
                    "update batch slices disagree: {} rows, {} cols, {} vals",
                    rows.len(),
                    cols.len(),
                    vals.len()
                ),
            });
        }
        if let (Some(&max_row), Some(&max_col)) = (rows.iter().max(), cols.iter().max()) {
            hyperstream_graphblas::validate_index(max_row, self.nrows)?;
            hyperstream_graphblas::validate_index(max_col, self.ncols)?;
        }
        let valbits: Vec<u64> = vals.iter().map(|v| v.encode_bits()).collect();
        let d = self
            .durable
            .as_mut()
            .expect("wal_log is only called when durable");
        d.wal.append(rows, cols, &valbits, d.cfg.fsync)
    }

    /// The maintained degree index (settled content only — settle first via
    /// the reader interface for answers covering pending tuples).
    pub fn degree_index(&self) -> &DegreeIndex<T> {
        &self.index
    }

    /// The maintained *column* (in-degree) index.  Inactive until the first
    /// column-side degree query; see [`HierMatrix::degree_index`] for the
    /// settling caveat.
    pub fn col_degree_index(&self) -> &DegreeIndex<T> {
        &self.col_index
    }

    /// Take a consistent point-in-time snapshot: settles the cache-resident
    /// pending tuples (through the index observer), then captures Arc'd
    /// handles to every level plus a degree-index view — O(levels), no
    /// entry is copied.  The snapshot answers every [`MatrixReader`] query
    /// independently while this matrix keeps ingesting (subsequent settles
    /// and cascades copy-on-write their own structures).
    pub fn snapshot(&mut self) -> MatrixSnapshot<T> {
        self.ensure_index();
        // Column stats ride along only when the column index is already
        // live — snapshotting must not defeat its lazy activation.  A
        // snapshot without the view still answers column queries off its
        // own lazily-built merged twin.
        let col_view = self.col_index.is_active().then(|| self.col_index.view());
        MatrixSnapshot::new(
            "hier-graphblas-snapshot",
            self.nrows,
            self.ncols,
            self.levels.iter().map(|l| l.settled_arc()).collect(),
            (&[], &[], &[]),
            Some(self.index.view()),
        )
        .with_col_index(col_view)
    }

    /// Snapshot through `&self`: the settled levels share as in
    /// [`HierMatrix::snapshot`] and any not-yet-settled pending tuples are
    /// *copied* as the snapshot's tail level.  When a tail exists the
    /// snapshot's degree answers fall back to cursor sweeps (the index has
    /// not seen those cells yet).
    pub fn snapshot_ref(&self) -> MatrixSnapshot<T> {
        let (mut tr, mut tc, mut tv) = (Vec::new(), Vec::new(), Vec::new());
        for level in &self.levels {
            let (r, c, v) = level.pending_parts();
            tr.extend_from_slice(r);
            tc.extend_from_slice(c);
            tv.extend_from_slice(v);
        }
        let index = if tr.is_empty() && self.index.is_active() {
            Some(self.index.view())
        } else {
            None
        };
        let col_view = (tr.is_empty() && self.col_index.is_active()).then(|| self.col_index.view());
        MatrixSnapshot::new(
            "hier-graphblas-snapshot",
            self.nrows,
            self.ncols,
            self.levels.iter().map(|l| l.settled_arc()).collect(),
            (&tr, &tc, &tv),
            index,
        )
        .with_col_index(col_view)
    }

    /// The retained cursor-sweep fallback of [`MatrixReader::read_nnz`]:
    /// counts distinct cells by walking the merged level cursors.  The
    /// equivalence property tests pit every indexed answer against its
    /// `sweep_*` twin.
    pub fn sweep_nnz(&mut self) -> usize {
        let dcsrs = self.settled_level_dcsrs();
        merged_nnz(&dcsrs)
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_row_degree`].
    pub fn sweep_row_degree(&mut self, row: Index) -> usize {
        let dcsrs = self.settled_level_dcsrs();
        merged_row_degree(&dcsrs, row)
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_row_reduce`].
    pub fn sweep_row_reduce(&mut self, row: Index) -> Option<T> {
        let dcsrs = self.settled_level_dcsrs();
        merged_row_reduce(&dcsrs, row, Plus)
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_top_k`].
    pub fn sweep_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        let dcsrs = self.settled_level_dcsrs();
        merged_top_k(&dcsrs, k)
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_degree_histogram`].
    pub fn sweep_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        self.settle_levels();
        hyperstream_graphblas::cursor::merged_degree_histogram(&self.dcsr_refs())
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_col`]: per-level
    /// binary searches over the row-major structures, no column twin.
    pub fn sweep_col(&mut self, col: Index, out: &mut Vec<(Index, T)>) {
        let dcsrs = self.settled_level_dcsrs();
        merged_col_into(&dcsrs, col, Plus, out);
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_col_degree`].
    pub fn sweep_col_degree(&mut self, col: Index) -> usize {
        let dcsrs = self.settled_level_dcsrs();
        merged_col_degree(&dcsrs, col)
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_col_reduce`].
    pub fn sweep_col_reduce(&mut self, col: Index) -> Option<T> {
        let dcsrs = self.settled_level_dcsrs();
        merged_col_reduce(&dcsrs, col, Plus)
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_in_top_k`]: one full
    /// merged sweep counting every column — the O(nnz) cost the column
    /// index exists to avoid.
    pub fn sweep_in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        let dcsrs = self.settled_level_dcsrs();
        merged_in_top_k(&dcsrs, k)
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_in_degree_histogram`].
    pub fn sweep_in_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        let dcsrs = self.settled_level_dcsrs();
        merged_in_degree_histogram(&dcsrs)
    }

    /// Cursor-sweep fallback of [`MatrixReader::read_col_range`].
    pub fn sweep_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
        let dcsrs = self.settled_level_dcsrs();
        merged_col_range(&dcsrs, lo, hi, Plus, f);
    }
}

/// Two `+`-reductions agree: exactly for the integer scalars, to relative
/// rounding for `f64` (arrival-order vs level-order folds).
pub(crate) fn reduce_agrees<T: ScalarType>(a: Option<T>, b: Option<T>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let (x, y) = (x.to_f64(), y.to_f64());
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => false,
    }
}

/// The paper's insert path: `insert` feeds level 0 and runs the cascade
/// check, `flush` completes all outstanding cascades.
impl<T: ScalarType> StreamingSink<T> for HierMatrix<T> {
    fn sink_name(&self) -> &str {
        "hier-graphblas"
    }

    fn insert(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        self.update(row, col, val)
    }

    fn insert_batch(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        self.update_batch(rows, cols, vals)
    }

    fn flush(&mut self) -> GrbResult<()> {
        HierMatrix::flush(self)
    }

    fn nvals(&self) -> usize {
        self.nvals_exact()
    }

    fn total_weight(&self) -> f64 {
        self.total_weight_f64()
    }
}

/// The paper's query path: point/row/entry extraction merges the L level
/// cursors on the fly (after settling the cache-resident pending buffers);
/// the degree-centric answers — nnz, per-row degree/reduce, top-k, degree
/// histogram — come from the incremental [`DegreeIndex`] in O(1)/O(k).  In
/// debug builds every indexed answer is re-derived through the retained
/// cursor-sweep fallback.
impl<T: ScalarType> MatrixReader<T> for HierMatrix<T> {
    fn reader_name(&self) -> &str {
        "hier-graphblas"
    }

    fn read_dims(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn read_nnz(&mut self) -> usize {
        self.ensure_index();
        let n = self.index.nnz();
        debug_assert_eq!(n, merged_nnz(&self.dcsr_refs()));
        n
    }

    fn read_get(&mut self, row: Index, col: Index) -> Option<T> {
        // Per-level gets fold pending tuples in directly; no settle needed.
        HierMatrix::get(self, row, col)
    }

    fn read_row(&mut self, row: Index, out: &mut Vec<(Index, T)>) {
        let dcsrs = self.settled_level_dcsrs();
        merged_row_into(&dcsrs, row, Plus, out);
    }

    fn read_row_degree(&mut self, row: Index) -> usize {
        self.ensure_index();
        let d = self.index.row_degree(row);
        debug_assert_eq!(d, merged_row_degree(&self.dcsr_refs(), row));
        d
    }

    fn read_row_reduce(&mut self, row: Index) -> Option<T> {
        self.ensure_index();
        let w = self.index.row_weight(row);
        debug_assert!(
            reduce_agrees(w, merged_row_reduce(&self.dcsr_refs(), row, Plus)),
            "index weight diverged from cursor fold for row {row}"
        );
        w
    }

    fn read_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        self.ensure_index();
        let top = self.index.top_k(k);
        debug_assert_eq!(top, merged_top_k(&self.dcsr_refs(), k));
        top
    }

    fn read_entries(&mut self, f: &mut dyn FnMut(Index, Index, T)) {
        let dcsrs = self.settled_level_dcsrs();
        for_each_merged(&dcsrs, Plus, f);
    }

    fn read_row_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
        let dcsrs = self.settled_level_dcsrs();
        merged_row_range(&dcsrs, lo, hi, Plus, f);
    }

    fn read_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        self.ensure_index();
        let hist = self.index.degree_histogram();
        debug_assert_eq!(hist, self.sweep_degree_histogram());
        hist
    }

    fn read_col(&mut self, col: Index, out: &mut Vec<(Index, T)>) {
        // Per level, a twin lookup or a row-slot sweep (whichever
        // `Matrix::col_source` picks), then a level-order fold of the
        // per-level column planes.
        let mut planes = Vec::with_capacity(self.levels.len());
        self.col_planes(col, &mut planes);
        fold_col_planes(planes, Plus, out);
        debug_assert_eq!(*out, {
            let mut sweep = Vec::new();
            merged_col_into(&self.dcsr_refs(), col, Plus, &mut sweep);
            sweep
        });
    }

    fn read_col_degree(&mut self, col: Index) -> usize {
        self.ensure_col_index();
        let d = self.col_index.row_degree(col);
        debug_assert_eq!(d, merged_col_degree(&self.dcsr_refs(), col));
        d
    }

    fn read_col_reduce(&mut self, col: Index) -> Option<T> {
        self.ensure_col_index();
        let w = self.col_index.row_weight(col);
        debug_assert!(
            reduce_agrees(w, merged_col_reduce(&self.dcsr_refs(), col, Plus)),
            "column index weight diverged from cursor fold for col {col}"
        );
        w
    }

    fn read_in_top_k(&mut self, k: usize) -> Vec<(Index, usize)> {
        self.ensure_col_index();
        let top = self.col_index.top_k(k);
        debug_assert_eq!(top, merged_in_top_k(&self.dcsr_refs(), k));
        top
    }

    fn read_in_degree_histogram(&mut self) -> std::collections::BTreeMap<u64, u64> {
        self.ensure_col_index();
        let hist = self.col_index.degree_histogram();
        debug_assert_eq!(hist, merged_in_degree_histogram(&self.dcsr_refs()));
        hist
    }

    fn read_col_range(&mut self, lo: Index, hi: Index, f: &mut dyn FnMut(Index, Index, T)) {
        // The parts are row-major in (col, row), so a plain row-range walk
        // over them *is* the column-major contract order.
        let mut parts = Vec::with_capacity(self.levels.len());
        self.col_range_parts(lo, hi, &mut parts);
        let refs: Vec<&Dcsr<T>> = parts.iter().map(|p| p.as_ref()).collect();
        merged_row_range(&refs, lo, hi, Plus, &mut |c, r, v| f(r, c, v));
    }

    fn read_rows(&mut self, rows: &[Index]) -> Vec<Vec<(Index, T)>> {
        // One settle for the whole batch (the default pays the settle
        // check per call through `read_row`).
        let dcsrs = self.settled_level_dcsrs();
        rows.iter()
            .map(|&row| {
                let mut out = Vec::new();
                merged_row_into(&dcsrs, row, Plus, &mut out);
                out
            })
            .collect()
    }

    fn read_get_many(&mut self, keys: &[(Index, Index)]) -> Vec<Option<T>> {
        // One settle, then two binary searches per key per level — the
        // default's per-key `read_get` rescans every pending tuple instead.
        let dcsrs = self.settled_level_dcsrs();
        keys.iter()
            .map(|&(row, col)| merged_point(&dcsrs, row, col, Plus))
            .collect()
    }
}

impl<T: ScalarType> CursorReader<T> for HierMatrix<T> {
    fn with_level_dcsrs(&mut self, f: &mut dyn FnMut(&[&Dcsr<T>])) {
        // One settle folds the pending tuples into level 0; afterwards the
        // level DCSRs are the complete represented content, summed under
        // `+` — exactly the level-slice contract the cursor kernels need.
        self.settle_levels();
        f(&self.dcsr_refs());
    }

    fn out_degrees(&mut self) -> Option<Vec<(Index, u64)>> {
        // Cells living in several levels are counted once: the index is
        // rebuilt through the cell oracle on activation and maintained by
        // the settle observer, which deduplicates across levels.
        self.ensure_index();
        Some(self.index.row_degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> HierConfig {
        HierConfig::from_cuts(vec![8, 64, 512]).unwrap()
    }

    #[test]
    fn construction() {
        let m = HierMatrix::<u64>::new(1 << 32, 1 << 32, small_config()).unwrap();
        assert_eq!(m.levels(), 4);
        assert_eq!(m.nrows(), 1 << 32);
        assert_eq!(m.total_entries_bound(), 0);
        assert_eq!(m.stats().updates, 0);
    }

    #[test]
    fn single_updates_accumulate() {
        let mut m = HierMatrix::<u64>::new(100, 100, small_config()).unwrap();
        m.update(3, 4, 2).unwrap();
        m.update(3, 4, 5).unwrap();
        m.update(9, 9, 1).unwrap();
        assert_eq!(m.get(3, 4), Some(7));
        assert_eq!(m.get(9, 9), Some(1));
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.stats().updates, 3);
        assert_eq!(m.total_weight(), 8);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = HierMatrix::<u64>::new(10, 10, small_config()).unwrap();
        assert!(m.update(10, 0, 1).is_err());
        assert!(m.update_batch(&[1, 20], &[1, 1], &[1, 1]).is_err());
        assert!(m.update_batch(&[1], &[1, 2], &[1]).is_err());
    }

    #[test]
    fn cascades_happen_and_preserve_content() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        // 1000 distinct entries with small cuts forces multiple cascades.
        for i in 0..1000u64 {
            m.update(i % 777, (i * 13) % 991, 1).unwrap();
        }
        assert!(m.stats().cascades_from_level(0) > 0, "no level-0 cascades");
        assert!(m.stats().total_cascades() > 0);
        // Content must be identical to a flat accumulation.
        let mut flat = Matrix::<u64>::new(1 << 20, 1 << 20);
        for i in 0..1000u64 {
            flat.accum_element(i % 777, (i * 13) % 991, 1).unwrap();
        }
        flat.wait();
        let materialized = m.materialize();
        assert_eq!(materialized.nvals(), flat.nvals());
        assert_eq!(materialized.extract_tuples(), flat.extract_tuples());
    }

    #[test]
    fn cascade_equivalence_under_duplicate_heavy_stream() {
        // Heavy duplication: many updates to few cells, exercising value
        // accumulation across cascade boundaries.
        let mut m = HierMatrix::<u64>::new(64, 64, small_config()).unwrap();
        let mut flat = Matrix::<u64>::new(64, 64);
        for i in 0..5000u64 {
            let (r, c) = (i % 5, (i / 5) % 5);
            m.update(r, c, 1).unwrap();
            flat.accum_element(r, c, 1).unwrap();
        }
        flat.wait();
        let snap = m.materialize();
        assert_eq!(snap.extract_tuples(), flat.extract_tuples());
        assert_eq!(m.total_weight(), 5000);
    }

    #[test]
    fn batch_updates_equivalent_to_singles() {
        let cfg = small_config();
        let rows: Vec<u64> = (0..300).map(|i| i % 41).collect();
        let cols: Vec<u64> = (0..300).map(|i| (i * 7) % 53).collect();
        let vals: Vec<u64> = (0..300).map(|i| i % 3 + 1).collect();

        let mut a = HierMatrix::<u64>::new(100, 100, cfg.clone()).unwrap();
        a.update_batch(&rows, &cols, &vals).unwrap();

        let mut b = HierMatrix::<u64>::new(100, 100, cfg).unwrap();
        for i in 0..rows.len() {
            b.update(rows[i], cols[i], vals[i]).unwrap();
        }
        assert_eq!(
            a.materialize().extract_tuples(),
            b.materialize().extract_tuples()
        );
        assert_eq!(a.stats().updates, b.stats().updates);
    }

    #[test]
    fn update_matrix_form() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        let upd = Matrix::from_tuples(
            1 << 16,
            1 << 16,
            &[1, 2, 3],
            &[1, 2, 3],
            &[5u64, 6, 7],
            Plus,
        )
        .unwrap();
        m.update_matrix(&upd).unwrap();
        m.update_matrix(&upd).unwrap();
        assert_eq!(m.get(1, 1), Some(10));
        assert_eq!(m.stats().updates, 6);

        let wrong = Matrix::<u64>::new(4, 4);
        assert!(m.update_matrix(&wrong).is_err());
    }

    #[test]
    fn flush_moves_everything_to_top() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..200u64 {
            m.update(i, i, 1).unwrap();
        }
        m.flush().unwrap();
        let per_level = m.entries_per_level();
        for (i, &n) in per_level.iter().enumerate() {
            if i + 1 < per_level.len() {
                assert_eq!(n, 0, "level {i} not empty after flush");
            } else {
                assert_eq!(n, 200);
            }
        }
        assert_eq!(m.total_weight(), 200);
    }

    #[test]
    fn materialize_does_not_disturb_streaming() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..100u64 {
            m.update(i, 0, 1).unwrap();
        }
        let snap1 = m.materialize();
        for i in 100..200u64 {
            m.update(i, 0, 1).unwrap();
        }
        let snap2 = m.materialize();
        assert_eq!(snap1.nvals(), 100);
        assert_eq!(snap2.nvals(), 200);
        assert_eq!(m.stats().materializations, 2);
    }

    #[test]
    fn clear_resets_contents_and_stats() {
        let mut m = HierMatrix::<u64>::new(100, 100, small_config()).unwrap();
        for i in 0..50u64 {
            m.update(i, i, 1).unwrap();
        }
        m.clear();
        assert_eq!(m.total_entries_bound(), 0);
        assert_eq!(m.stats().updates, 0);
        assert_eq!(m.nvals_exact(), 0);
    }

    #[test]
    fn effectively_flat_config_never_cascades() {
        let mut m =
            HierMatrix::<u64>::new(1 << 20, 1 << 20, HierConfig::effectively_flat()).unwrap();
        for i in 0..1000u64 {
            m.update(i, i, 1).unwrap();
        }
        assert_eq!(m.stats().total_cascades(), 0);
        assert_eq!(m.nvals_exact(), 1000);
    }

    #[test]
    fn fast_update_fraction_high_for_duplicate_heavy_stream() {
        // When the stream repeatedly hits the same few cells, level 0
        // absorbs most weight and few entries cascade.
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..10_000u64 {
            m.update(i % 4, i % 4, 1).unwrap();
        }
        assert!(m.stats().fast_update_fraction() > 0.9);
    }

    #[test]
    fn memory_grows_with_entries() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        let before = m.memory_bytes();
        for i in 0..2000u64 {
            m.update(i, i, 1).unwrap();
        }
        assert!(m.memory_bytes() > before);
        assert_eq!(m.memory_per_level().len(), 4);
    }

    #[test]
    fn streaming_sink_path_equals_native_path() {
        let mut native = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        let mut sink: Box<dyn StreamingSink<u64>> =
            Box::new(HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap());
        for i in 0..500u64 {
            native.update(i % 97, (i * 11) % 89, 1).unwrap();
            sink.insert(i % 97, (i * 11) % 89, 1).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.sink_name(), "hier-graphblas");
        assert_eq!(sink.nvals(), native.nvals_exact());
        assert_eq!(sink.total_weight(), 500.0);
        assert_eq!(native.total_weight(), 500);
    }

    #[test]
    fn sink_flush_completes_cascades() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        StreamingSink::insert_batch(
            &mut m,
            &(0..100u64).collect::<Vec<_>>(),
            &(0..100u64).collect::<Vec<_>>(),
            &[1u64; 100],
        )
        .unwrap();
        StreamingSink::flush(&mut m).unwrap();
        let per_level = m.entries_per_level();
        for (i, &n) in per_level.iter().enumerate().take(per_level.len() - 1) {
            assert_eq!(n, 0, "level {i} not flushed");
        }
    }

    #[test]
    fn reader_matches_materialized_answers() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..2000u64 {
            m.update(i % 97, (i * 13) % 211, (i % 5) + 1).unwrap();
        }
        // Deliberately unflushed: entries sit in several levels plus the
        // level-0 pending buffer.
        let snap = m.materialize_ref();
        assert_eq!(m.read_nnz(), snap.nvals());
        let (er, ec, ev) = snap.extract_tuples();
        let mut gr = Vec::new();
        let mut gc = Vec::new();
        let mut gv = Vec::new();
        m.read_entries(&mut |r, c, v| {
            gr.push(r);
            gc.push(c);
            gv.push(v);
        });
        assert_eq!((gr, gc, gv), (er.clone(), ec, ev));
        // Row queries for a present and an absent row.
        let row = er[0];
        let mut got_row = Vec::new();
        m.read_row(row, &mut got_row);
        let (cols, vals) = snap.dcsr().row(row).unwrap();
        let expect_row: Vec<(u64, u64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
        assert_eq!(got_row, expect_row);
        assert_eq!(m.read_row_degree(row), expect_row.len());
        assert_eq!(
            m.read_row_reduce(row),
            Some(expect_row.iter().map(|&(_, v)| v).sum())
        );
        m.read_row(1 << 19, &mut got_row);
        assert!(got_row.is_empty());
        assert_eq!(m.read_row_degree(1 << 19), 0);
        assert_eq!(m.read_row_reduce(1 << 19), None);
        assert_eq!(m.read_get(row, expect_row[0].0), Some(expect_row[0].1));
    }

    #[test]
    fn reader_top_k_matches_reference() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..500u64 {
            m.update(i % 23, (i * 7) % 200, 1).unwrap();
        }
        let snap = m.materialize_ref();
        let d = snap.dcsr();
        let mut expect: Vec<(u64, usize)> = (0..d.nrows_nonempty())
            .map(|k| (d.row_ids()[k], d.row_slot(k).0.len()))
            .collect();
        expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for k in [0usize, 1, 5, 1000] {
            let mut e = expect.clone();
            e.truncate(k);
            assert_eq!(m.read_top_k(k), e, "k = {k}");
        }
    }

    #[test]
    fn nvals_exact_without_pending_uses_cursors() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..300u64 {
            m.update(i, i, 1).unwrap();
        }
        m.settle_levels();
        assert!(m.levels.iter().all(|l| l.npending() == 0));
        assert_eq!(m.nvals_exact(), 300);
        // With pending tuples the fallback still answers exactly.
        m.update(5, 5, 1).unwrap();
        assert_eq!(m.nvals_exact(), 300);
        m.update(1 << 15, 1, 1).unwrap();
        assert_eq!(m.nvals_exact(), 301);
    }

    #[test]
    fn index_answers_equal_sweep_fallbacks() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..3000u64 {
            m.update(i % 131, (i * 17) % 257, i % 7 + 1).unwrap();
        }
        // Mid-stream: entries sit across levels plus the pending buffer.
        assert_eq!(m.read_nnz(), m.sweep_nnz());
        for row in [0u64, 1, 77, 130, 131, 9999] {
            assert_eq!(m.read_row_degree(row), m.sweep_row_degree(row), "{row}");
            assert_eq!(m.read_row_reduce(row), m.sweep_row_reduce(row), "{row}");
        }
        for k in [0usize, 1, 8, 1000] {
            assert_eq!(m.read_top_k(k), m.sweep_top_k(k), "k = {k}");
        }
        assert_eq!(m.read_degree_histogram(), m.sweep_degree_histogram());
        // Flush (cascades everything to the top) must not disturb the index.
        m.flush().unwrap();
        assert_eq!(m.read_nnz(), m.sweep_nnz());
        assert_eq!(m.read_top_k(5), m.sweep_top_k(5));
        // update_matrix path feeds the index too.
        let upd = Matrix::from_tuples(
            1 << 20,
            1 << 20,
            &[1, 500_000, 1],
            &[999, 0, 1000],
            &[2u64, 3, 4],
            Plus,
        )
        .unwrap();
        m.update_matrix(&upd).unwrap();
        assert_eq!(m.read_nnz(), m.sweep_nnz());
        assert_eq!(m.read_row_degree(500_000), 1);
        // clear resets the index with the content.
        m.clear();
        assert_eq!(m.read_nnz(), 0);
        assert!(m.read_top_k(3).is_empty());
    }

    #[test]
    fn column_index_answers_equal_sweep_fallbacks() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..3000u64 {
            m.update(i % 131, (i * 17) % 257, i % 7 + 1).unwrap();
        }
        // Mid-stream: entries sit across levels plus the pending buffer.
        for col in [0u64, 1, 77, 200, 256, 257, 9999] {
            assert_eq!(m.read_col_degree(col), m.sweep_col_degree(col), "{col}");
            assert!(
                reduce_agrees(m.read_col_reduce(col), m.sweep_col_reduce(col)),
                "col {col}"
            );
            let mut got = Vec::new();
            m.read_col(col, &mut got);
            let mut sweep = Vec::new();
            m.sweep_col(col, &mut sweep);
            assert_eq!(got, sweep, "{col}");
        }
        for k in [0usize, 1, 8, 1000] {
            assert_eq!(m.read_in_top_k(k), m.sweep_in_top_k(k), "k = {k}");
        }
        assert_eq!(m.read_in_degree_histogram(), m.sweep_in_degree_histogram());
        // Flush (cascades everything to the top) must not disturb the
        // column index, and more ingest keeps it maintained incrementally.
        m.flush().unwrap();
        for i in 0..500u64 {
            m.update(i % 7 + 200_000, (i * 5) % 61, 1).unwrap();
        }
        assert_eq!(m.read_in_top_k(5), m.sweep_in_top_k(5));
        assert_eq!(m.read_in_degree_histogram(), m.sweep_in_degree_histogram());
        // update_matrix path feeds the column index too.
        let upd = Matrix::from_tuples(
            1 << 20,
            1 << 20,
            &[1, 500_000, 1],
            &[999, 999_999, 1000],
            &[2u64, 3, 4],
            Plus,
        )
        .unwrap();
        m.update_matrix(&upd).unwrap();
        assert_eq!(m.read_col_degree(999_999), 1);
        assert_eq!(m.read_in_top_k(3), m.sweep_in_top_k(3));
        // clear resets the column index with the content.
        m.clear();
        assert!(m.read_in_top_k(3).is_empty());
        assert_eq!(m.read_col_degree(0), 0);
    }

    #[test]
    fn column_reads_mirror_a_transposed_flat_matrix() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        let mut transposed = Matrix::<u64>::new(1 << 16, 1 << 16);
        for i in 0..1200u64 {
            let (r, c, v) = ((i * 13) % 400, (i * 7) % 90, i % 5 + 1);
            m.update(r, c, v).unwrap();
            transposed.accum_element(c, r, v).unwrap();
        }
        transposed.wait();
        for col in [0u64, 1, 44, 89, 90, 12345] {
            let mut got = Vec::new();
            m.read_col(col, &mut got);
            let expect: Vec<(u64, u64)> = transposed
                .dcsr()
                .row(col)
                .map(|(rs, vs)| rs.iter().copied().zip(vs.iter().copied()).collect())
                .unwrap_or_default();
            assert_eq!(got, expect, "col {col}");
            assert_eq!(m.read_col_degree(col), expect.len());
        }
        // Column-range scan is column-major and matches the transpose's
        // row-range scan with coordinates swapped back.
        for (lo, hi) in [(0u64, 30u64), (30, 31), (85, 1 << 16)] {
            let mut got = Vec::new();
            m.read_col_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
            let mut expect = Vec::new();
            transposed.read_row_range(lo, hi, &mut |c, r, v| expect.push((r, c, v)));
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
    }

    /// Reads after which [`Matrix::col_source`] serves a settled,
    /// unchanged level from its twin: read `twin_read(level)` is the first.
    fn twin_read(level: &Matrix<u64>) -> usize {
        use hyperstream_graphblas::matrix::COL_TWIN_BUILD_COST;
        (COL_TWIN_BUILD_COST * level.nvals_settled()).div_ceil(level.nrows_nonempty()) + 1
    }

    type Col = Vec<(Index, u64)>;

    /// Column `col` through the reader and through the sweep fallback.
    fn col_of(m: &mut HierMatrix<u64>, col: Index) -> (Col, Col) {
        let (mut got, mut sweep) = (Vec::new(), Vec::new());
        m.read_col(col, &mut got);
        m.sweep_col(col, &mut sweep);
        (got, sweep)
    }

    #[test]
    fn column_reads_sweep_a_level_that_changes_before_every_read() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..400u64 {
            m.update_batch(&[i % 37, i % 53 + 100], &[i % 11, (i * 7) % 13], &[1, 2])
                .unwrap();
            let (got, sweep) = col_of(&mut m, i % 13);
            assert_eq!(got, sweep, "read {i}");
            // Level 0 changes before every read, so it never pays for a
            // twin.
            assert!(!m.levels[0].has_col_shadow(), "read {i}");
        }
        assert!(m.stats().total_cascades() > 0);
    }

    #[test]
    fn column_reads_build_twins_once_an_unchanged_hierarchy_has_paid() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..700u64 {
            m.update(i % 97, (i * 13) % 29, i % 5 + 1).unwrap();
        }
        m.settle_levels();
        let bound = m
            .levels
            .iter()
            .filter(|l| l.nvals_settled() > 0)
            .map(twin_read)
            .max()
            .unwrap();
        assert!(bound > 1);
        for read in 1..=bound + 3 {
            let col = read as u64 % 29;
            // Identical answers before, at and after the switch.
            let (got, sweep) = col_of(&mut m, col);
            assert_eq!(got, sweep, "read {read}");
            let (lo, hi) = (col, col + 3);
            let (mut got, mut sweep) = (Vec::new(), Vec::new());
            m.read_col_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
            m.sweep_col_range(lo, hi, &mut |r, c, v| sweep.push((r, c, v)));
            assert_eq!(got, sweep, "range read {read}");
        }
        for level in m.levels.iter().filter(|l| l.nvals_settled() > 0) {
            assert!(level.has_col_shadow());
        }
        // Empty levels sweep for free and never build.
        assert!(m
            .levels
            .iter()
            .all(|l| l.nvals_settled() > 0 || !l.has_col_shadow()));
    }

    #[test]
    fn cascades_and_clear_restart_the_column_rent() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        let top = m.levels() - 1;
        for i in 0..600u64 {
            m.update(i % 89, (i * 7) % 31, 1).unwrap();
        }
        m.flush().unwrap();
        for i in 0..40u64 {
            m.update(i + 1000, i % 31, 1).unwrap();
        }
        m.settle_levels();
        // Sweep the top level to just short of its twin.
        for read in 1..twin_read(&m.levels[top]) {
            let _ = col_of(&mut m, read as u64 % 31);
        }
        assert!(!m.levels[top].has_col_shadow());
        // The flush cascades into the top level: it changed, so the sweeps
        // it was paid start over at zero.
        m.flush().unwrap();
        let bound = twin_read(&m.levels[top]);
        for read in 1..=bound {
            assert!(!m.levels[top].has_col_shadow(), "twin before read {read}");
            let (got, sweep) = col_of(&mut m, read as u64 % 31);
            assert_eq!(got, sweep);
        }
        assert!(m.levels[top].has_col_shadow());
        m.clear();
        assert!(m.levels.iter().all(|l| !l.has_col_shadow()));
        let (got, _) = col_of(&mut m, 3);
        assert!(got.is_empty());
    }

    #[test]
    fn batched_reads_match_singles() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..900u64 {
            m.update(i % 50, (i * 3) % 70, 1).unwrap();
        }
        let rows = [0u64, 7, 49, 50, 60_000];
        let batch = m.read_rows(&rows);
        assert_eq!(batch.len(), rows.len());
        for (i, &row) in rows.iter().enumerate() {
            let mut single = Vec::new();
            m.read_row(row, &mut single);
            assert_eq!(batch[i], single, "row {row}");
        }
        let keys = [(0u64, 0u64), (7, 21), (49, 3), (50, 50), (60_000, 1)];
        let got = m.read_get_many(&keys);
        let expect: Vec<Option<u64>> = keys.iter().map(|&(r, c)| m.read_get(r, c)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn snapshot_carries_column_index_only_when_active() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        for i in 0..400u64 {
            m.update(i % 31, (i * 11) % 47, 1).unwrap();
        }
        // No column query yet: snapshot has row index only, but still
        // answers column queries via its own merged twin.
        let mut plain = m.snapshot();
        assert!(plain.has_index());
        assert!(!plain.has_col_index());
        let expect_top = m.sweep_in_top_k(4);
        assert_eq!(plain.read_in_top_k(4), expect_top);
        // Activate the column index, snapshot again: the view rides along
        // and survives further ingest on the source.
        let live_top = m.read_in_top_k(4);
        assert_eq!(live_top, expect_top);
        let mut indexed = m.snapshot();
        assert!(indexed.has_col_index());
        for i in 0..400u64 {
            m.update(i + 1000, 0, 1).unwrap();
        }
        assert_eq!(indexed.read_in_top_k(4), expect_top);
        assert!(m.read_col_degree(0) > indexed.read_col_degree(0));
    }

    #[test]
    fn read_row_range_matches_filtered_entries() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..800u64 {
            m.update((i * 13) % 500, i % 40, 1).unwrap();
        }
        let mut all = Vec::new();
        m.read_entries(&mut |r, c, v| all.push((r, c, v)));
        for (lo, hi) in [(0u64, 100u64), (100, 101), (250, 499), (600, 1 << 20)] {
            let mut got = Vec::new();
            m.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
            let expect: Vec<_> = all
                .iter()
                .copied()
                .filter(|&(r, _, _)| r >= lo && r < hi)
                .collect();
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
    }

    #[test]
    fn snapshot_overlaps_with_ingest() {
        let mut m = HierMatrix::<u64>::new(1 << 20, 1 << 20, small_config()).unwrap();
        for i in 0..500u64 {
            m.update(i % 97, (i * 3) % 211, 1).unwrap();
        }
        let frozen = m.materialize_ref();
        let mut snap = m.snapshot();
        assert!(snap.has_index());
        // Keep streaming: the snapshot must not move.
        for i in 0..500u64 {
            m.update((i % 89) + 100_000, i % 50, 1).unwrap();
        }
        assert_eq!(snap.read_nnz(), frozen.nvals());
        let probe = frozen.dcsr().row_ids()[0];
        assert_eq!(
            snap.read_row_degree(probe),
            frozen.dcsr().row(probe).unwrap().0.len()
        );
        let mut entries = Vec::new();
        snap.read_entries(&mut |r, c, v| entries.push((r, c, v)));
        let (er, ec, ev) = frozen.extract_tuples();
        let expect: Vec<_> = er
            .into_iter()
            .zip(ec)
            .zip(ev)
            .map(|((r, c), v)| (r, c, v))
            .collect();
        assert_eq!(entries, expect);
        // The live matrix has moved on.
        assert!(m.read_nnz() > snap.read_nnz());
    }

    #[test]
    fn snapshot_ref_carries_pending_tail() {
        let mut m = HierMatrix::<u64>::new(1 << 16, 1 << 16, small_config()).unwrap();
        m.update(3, 3, 5).unwrap();
        m.update(3, 4, 6).unwrap();
        // Pending only — the &self snapshot copies the tail.
        let mut snap = m.snapshot_ref();
        assert!(!snap.has_index());
        assert_eq!(snap.read_nnz(), 2);
        assert_eq!(snap.read_get(3, 3), Some(5));
        assert_eq!(snap.read_row_reduce(3), Some(11));
        // Settled source with a live (query-activated) index: the &self
        // snapshot carries the index view.
        assert_eq!(m.read_nnz(), 2);
        let mut settled_snap = m.snapshot_ref();
        assert!(settled_snap.has_index());
        assert_eq!(settled_snap.read_nnz(), 2);
        assert_eq!(settled_snap.read_top_k(1), vec![(3, 2)]);
    }

    #[test]
    fn f64_values_supported() {
        let mut m = HierMatrix::<f64>::new(100, 100, small_config()).unwrap();
        for _ in 0..100 {
            m.update(1, 1, 0.5).unwrap();
        }
        assert_eq!(m.get(1, 1), Some(50.0));
        assert_eq!(m.total_weight(), 50);
    }
}
