//! The public [`Matrix`] type: a hypersparse matrix with SuiteSparse-style
//! pending tuples.
//!
//! A `Matrix<T>` is a settled [`Dcsr`] plus an append-only [`Coo`] of
//! *pending tuples*.  Point updates ([`Matrix::set_element`],
//! [`Matrix::accum_element`]) go to the pending buffer in `O(1)`; whole-matrix
//! operations and queries first call [`Matrix::wait`], which sorts the
//! pending tuples and merges them into the settled structure — the same
//! "defer and batch" idea the hierarchical matrix generalises to multiple
//! levels.

use crate::cursor::TopKScratch;
use crate::error::{GrbError, GrbResult};
use crate::formats::coo::Coo;
use crate::formats::dcsr::{Dcsr, MergeScratch};
use crate::formats::{Entry, MemoryFootprint};
use crate::index::{validate_dims, validate_index, Index};
use crate::ops::binary::{Plus, Second};
use crate::ops::BinaryOp;
use crate::types::ScalarType;
use std::sync::Arc;

/// A hypersparse matrix over scalar type `T`.
///
/// The settled structure lives behind an [`Arc`] so read paths can take
/// O(1) *snapshots* of it ([`Matrix::settled_arc`]): a snapshot holder and
/// the matrix share the structure until the next mutation, which
/// copy-on-writes ([`Arc::make_mut`]) — free in the common unshared case
/// (a pointer uniqueness check), one structural clone when a snapshot is
/// outstanding.  This is what lets hierarchical levels hand out cheap
/// level snapshots that keep answering while ingest continues.
///
/// See the [crate-level documentation](crate) for an overview and examples.
#[derive(Debug)]
pub struct Matrix<T> {
    nrows: Index,
    ncols: Index,
    settled: Arc<Dcsr<T>>,
    pending: Coo<T>,
    /// Number of pending tuples at which `wait()` is triggered automatically.
    pending_limit: usize,
    /// Reusable sort/merge buffers: every settle and every in-place
    /// accumulate goes through these instead of allocating fresh vectors.
    /// Not part of the matrix *value* (excluded from `PartialEq`).
    scratch: MergeScratch<T>,
    /// Reusable top-k heap buffer: repeated degree-ranking queries (the
    /// mixed-workload hot loop) reuse one allocation instead of building a
    /// fresh heap per call.  A cache, like `scratch`.
    topk_scratch: TopKScratch,
    /// Lazily-built column-major twin: the settled structure transposed
    /// (an `ncols x nrows` [`Dcsr`] whose "rows" are this matrix's
    /// columns).  Dropped whenever the settled structure changes, so
    /// pure-ingest workloads never pay for it; see [`Matrix::col_source`]
    /// for when a column read builds it.  Derived content, not part of the
    /// matrix *value* (excluded from `PartialEq`, shared by `Clone`).
    col_shadow: Option<Arc<Dcsr<T>>>,
    /// Row slots column reads have swept on the settled structure since it
    /// last changed: the rent [`Matrix::col_source`] weighs against the
    /// cost of building the twin.
    col_swept: usize,
}

/// What one twin build costs per settled entry, in row-slot visits of a
/// column sweep (one binary search over a row's columns).  The build
/// extracts and sorts every entry; a sweep only probes each row once.
/// Measured on IPv4-traffic structures (the `IpTrafficGenerator` defaults)
/// of 63k, 358k and 900k entries on a 2-core x86-64 VM: the build took
/// 156–184 ns per entry and a sweep 10.7–17.1 ns per row slot, ratios
/// 10.7–15.3.
pub const COL_TWIN_BUILD_COST: usize = 12;

/// Which column read asks [`Matrix::col_source`] for a source: the read's
/// sweep cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColScan {
    /// One column: the sweep probes every row slot once.
    Column,
    /// A column range: the sweep probes every row slot and may collect and
    /// sort every entry, so it is charged the level's entry count.
    Range,
}

/// Where a column read takes its answer from: the column twin, or a sweep
/// of the settled row-major structure.
#[derive(Debug)]
pub enum ColSource<'a, T> {
    /// The column twin: a column is one row lookup on it.
    Twin(Arc<Dcsr<T>>),
    /// The settled structure, to be swept (the sweep has been charged).
    Sweep(&'a Dcsr<T>),
}

/// Clones copy the represented content but start with *empty* scratch
/// buffers: the scratch is a cache, and the clone-and-settle query paths
/// (`nvals`, `to_settled`) would otherwise deep-copy up to a settled
/// structure's worth of staging space just to drop it.
impl<T: Clone> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            // Shares the settled structure; a later mutation of either
            // copy-on-writes its own.
            settled: Arc::clone(&self.settled),
            pending: self.pending.clone(),
            pending_limit: self.pending_limit,
            scratch: MergeScratch::default(),
            topk_scratch: TopKScratch::default(),
            // Immutable once built, so clones share it like the settled
            // structure; the next mutation of either copy drops its own.
            col_shadow: self.col_shadow.clone(),
            col_swept: self.col_swept,
        }
    }
}

/// Equality is over the represented content (dimensions, settled structure,
/// pending tuples) — the scratch buffers are a cache and excluded.
impl<T: ScalarType> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.pending_limit == other.pending_limit
            && self.settled == other.settled
            && self.pending == other.pending
    }
}

/// Default number of pending tuples before an automatic `wait()`.
///
/// SuiteSparse grows its pending list adaptively; a fixed, generous default
/// keeps behaviour predictable for the streaming benchmarks (the hierarchy
/// supplies the adaptivity instead).
pub const DEFAULT_PENDING_LIMIT: usize = 1 << 20;

impl<T: ScalarType> Matrix<T> {
    /// Create an empty `nrows x ncols` matrix.
    ///
    /// # Panics
    /// Panics on invalid dimensions; use [`Matrix::try_new`] to handle the
    /// error instead.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self::try_new(nrows, ncols).expect("invalid matrix dimensions")
    }

    /// Fallible constructor.
    pub fn try_new(nrows: Index, ncols: Index) -> GrbResult<Self> {
        validate_dims(nrows, ncols)?;
        Ok(Self {
            nrows,
            ncols,
            settled: Arc::new(Dcsr::try_new(nrows, ncols)?),
            pending: Coo::try_new(nrows, ncols)?,
            pending_limit: DEFAULT_PENDING_LIMIT,
            scratch: MergeScratch::new(),
            topk_scratch: TopKScratch::default(),
            col_shadow: None,
            col_swept: 0,
        })
    }

    /// Build a matrix from tuple slices, combining duplicates with `dup`
    /// (the `GrB_Matrix_build` equivalent).
    pub fn from_tuples<Op: BinaryOp<T>>(
        nrows: Index,
        ncols: Index,
        rows: &[Index],
        cols: &[Index],
        vals: &[T],
        dup: Op,
    ) -> GrbResult<Self> {
        let settled = Dcsr::from_tuples(nrows, ncols, rows, cols, vals, dup)?;
        Ok(Self {
            nrows,
            ncols,
            settled: Arc::new(settled),
            pending: Coo::try_new(nrows, ncols)?,
            pending_limit: DEFAULT_PENDING_LIMIT,
            scratch: MergeScratch::new(),
            topk_scratch: TopKScratch::default(),
            col_shadow: None,
            col_swept: 0,
        })
    }

    /// Wrap an existing settled [`Dcsr`] as a matrix.
    pub fn from_dcsr(d: Dcsr<T>) -> Self {
        Self {
            nrows: d.nrows(),
            ncols: d.ncols(),
            pending: Coo::new(d.nrows(), d.ncols()),
            pending_limit: DEFAULT_PENDING_LIMIT,
            settled: Arc::new(d),
            scratch: MergeScratch::new(),
            topk_scratch: TopKScratch::default(),
            col_shadow: None,
            col_swept: 0,
        }
    }

    /// Set the number of pending tuples that triggers an automatic
    /// [`Matrix::wait`].  Returns `self` for builder-style chaining.
    pub fn with_pending_limit(mut self, limit: usize) -> Self {
        self.pending_limit = limit.max(1);
        self
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored entries.
    ///
    /// Requires no mutation: pending tuples are counted conservatively by
    /// settling a clone only when pending tuples exist.  Use
    /// [`Matrix::nvals_settled`] + [`Matrix::npending`] to inspect the split
    /// without any work.
    pub fn nvals(&self) -> usize {
        if self.pending.is_empty() {
            self.settled.nvals()
        } else {
            // Cheap path impossible: duplicates between pending and settled
            // may collapse. Clone-and-settle for correctness.
            let mut tmp = self.clone();
            tmp.wait();
            tmp.settled.nvals()
        }
    }

    /// Number of entries in the settled (compressed) structure only.
    pub fn nvals_settled(&self) -> usize {
        self.settled.nvals()
    }

    /// Number of pending (not yet merged) tuples.
    pub fn npending(&self) -> usize {
        self.pending.len()
    }

    /// True when the matrix stores no entries at all.
    pub fn is_empty(&self) -> bool {
        self.settled.is_empty() && self.pending.is_empty()
    }

    /// Number of non-empty rows in the settled structure.
    pub fn nrows_nonempty(&self) -> usize {
        self.settled.nrows_nonempty()
    }

    /// Overwrite the element at `(row, col)` ("last write wins").
    pub fn set_element(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        validate_index(row, self.nrows)?;
        validate_index(col, self.ncols)?;
        self.pending.push(row, col, val);
        if self.pending.len() >= self.pending_limit {
            self.wait_with(Second);
        }
        Ok(())
    }

    /// Accumulate `val` into `(row, col)` under `+` — the streaming-update
    /// operation of the paper (`A(i,j) += v`).
    pub fn accum_element(&mut self, row: Index, col: Index, val: T) -> GrbResult<()> {
        validate_index(row, self.nrows)?;
        validate_index(col, self.ncols)?;
        self.pending.push(row, col, val);
        if self.pending.len() >= self.pending_limit {
            self.wait();
        }
        Ok(())
    }

    /// Accumulate a batch of tuples under `+` — the bulk insert path.
    ///
    /// The whole batch is validated in one pass and appended with three bulk
    /// extends; the automatic-settle check runs once per batch instead of
    /// once per tuple.  The batch applies atomically: on any invalid index
    /// nothing is inserted.
    pub fn accum_tuples(&mut self, rows: &[Index], cols: &[Index], vals: &[T]) -> GrbResult<()> {
        crate::sink::check_tuple_lengths(rows, cols, vals)?;
        self.pending.extend_from_slices(rows, cols, vals)?;
        if self.pending.len() >= self.pending_limit {
            self.wait();
        }
        Ok(())
    }

    /// Force all pending tuples into the settled structure using `+` on
    /// duplicates (the common accumulate semantics).
    pub fn wait(&mut self) {
        self.wait_with(Plus);
    }

    /// Force all pending tuples into the settled structure using an explicit
    /// duplicate-combination operator.
    ///
    /// The settle reuses the matrix's internal sort/merge scratch buffers
    /// across calls, so steady-state streaming (append — settle — append …)
    /// performs no allocation once the buffers have grown to the working-set
    /// size.
    pub fn wait_with<Op: BinaryOp<T>>(&mut self, dup: Op) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_dedup_with(dup, &mut self.scratch);
        Arc::make_mut(&mut self.settled)
            .merge_sorted_coo_into(&self.pending, dup, &mut self.scratch)
            .expect("pending tuples are within bounds");
        self.pending.clear();
        self.drop_col_twin();
    }

    /// [`Matrix::wait`] with a hook into the settle's dedup-unpack: after
    /// the pending tuples are sorted and in-batch-deduplicated under `+`
    /// but *before* they merge into the settled structure, `observe` sees
    /// the batch as sorted row-major parallel slices.  This is the event
    /// an incremental [`DegreeIndex`](crate::degree_index::DegreeIndex)
    /// maintains itself on: the batch is exactly the set of cells whose
    /// stored values change in this settle.
    #[allow(clippy::type_complexity)]
    pub fn wait_observed(&mut self, observe: &mut dyn FnMut(&[Index], &[Index], &[T])) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_dedup_with(Plus, &mut self.scratch);
        {
            let (r, c, v) = self.pending.parts();
            observe(r, c, v);
        }
        Arc::make_mut(&mut self.settled)
            .merge_sorted_coo_into(&self.pending, Plus, &mut self.scratch)
            .expect("pending tuples are within bounds");
        self.pending.clear();
        self.drop_col_twin();
    }

    /// Accumulate a whole matrix in place: `self = self ⊕ other` under `+`.
    ///
    /// This is the cascade primitive of the hierarchical matrix in its
    /// allocation-free form: both operands are settled, then merged through
    /// the internal scratch buffers ([`Dcsr::merge_into`]) — `self`'s old
    /// structure becomes the next merge's staging space instead of being
    /// freed and reallocated.
    pub fn accum_matrix(&mut self, other: &Matrix<T>) -> GrbResult<()> {
        self.accum_matrix_op(other, Plus)
    }

    /// [`Matrix::accum_matrix`] under an explicit combination operator.
    pub fn accum_matrix_op<Op: BinaryOp<T>>(&mut self, other: &Matrix<T>, op: Op) -> GrbResult<()> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(GrbError::DimensionMismatch {
                detail: format!(
                    "{}x{} vs {}x{}",
                    self.nrows, self.ncols, other.nrows, other.ncols
                ),
            });
        }
        // Pending duplicates settle under `+` (exactly as the functional
        // `ewise_add` settles its operands); `op` applies only across the
        // two operands.
        self.wait();
        self.drop_col_twin();
        if other.npending() == 0 {
            Arc::make_mut(&mut self.settled).merge_into(other.dcsr(), op, &mut self.scratch)
        } else {
            let settled_other = other.to_settled();
            Arc::make_mut(&mut self.settled).merge_into(settled_other.dcsr(), op, &mut self.scratch)
        }
    }

    /// Value at `(row, col)` taking pending tuples into account
    /// (pending values accumulate under `+`).
    pub fn get(&self, row: Index, col: Index) -> Option<T> {
        let mut acc = self.settled.get(row, col);
        for (r, c, v) in self.pending.iter() {
            if r == row && c == col {
                acc = Some(match acc {
                    Some(a) => a.add(v),
                    None => v,
                });
            }
        }
        acc
    }

    /// Remove every stored entry, keeping dimensions.  Frees the settled
    /// structure's buffers; see [`Matrix::clear_retaining_capacity`] for the
    /// streaming variant.
    pub fn clear(&mut self) {
        self.settled = Arc::new(Dcsr::new(self.nrows, self.ncols));
        self.pending.clear();
        self.drop_col_twin();
    }

    /// Remove every stored entry but keep every buffer's capacity, so the
    /// matrix can be refilled without touching the allocator.  Used by the
    /// hierarchical cascade to clear a level after moving it up.
    pub fn clear_retaining_capacity(&mut self) {
        // When a snapshot shares the structure, detach instead of
        // copy-on-writing a structure we are about to empty.
        match Arc::get_mut(&mut self.settled) {
            Some(d) => d.clear_retaining(),
            None => self.settled = Arc::new(Dcsr::new(self.nrows, self.ncols)),
        }
        self.pending.clear();
        self.drop_col_twin();
    }

    /// Access the settled hypersparse structure (pending tuples excluded).
    ///
    /// Kernels call [`Matrix::wait`] first, so in practice this is the whole
    /// matrix.
    pub fn dcsr(&self) -> &Dcsr<T> {
        &self.settled
    }

    /// An O(1) shared handle to the settled structure — the snapshot
    /// primitive.  The holder keeps reading this exact structure while the
    /// matrix keeps mutating (the next settle/cascade copy-on-writes the
    /// matrix's own copy).  Pending tuples are excluded; settle first
    /// ([`Matrix::wait`] / [`Matrix::wait_observed`]) for the full content.
    pub fn settled_arc(&self) -> Arc<Dcsr<T>> {
        Arc::clone(&self.settled)
    }

    /// The reusable top-k scratch paired with this matrix's read path.
    pub(crate) fn topk_scratch(&mut self) -> &mut TopKScratch {
        &mut self.topk_scratch
    }

    /// The column-major twin of the settled structure, built now if absent:
    /// an `ncols x nrows` [`Dcsr`] storing the transpose, so a column
    /// extract is a *row* lookup on the twin, O(k) instead of an O(rows)
    /// sweep.
    ///
    /// Building settles pending tuples and transposes every entry (one
    /// O(nnz log nnz) sort); the twin is then cached until the next change
    /// of the settled structure drops it.  Holders share it through the
    /// [`Arc`] exactly like [`Matrix::settled_arc`] snapshots.  This builds
    /// unconditionally, which suits a matrix that is read much more often
    /// than it changes (the flat reader); a structure that changes between
    /// reads should ask [`Matrix::col_source`] instead.
    ///
    /// Callers that route settles through an observer hook (the
    /// hierarchical levels feeding a [`DegreeIndex`]) must settle *before*
    /// calling this — the internal `wait()` here is a plain, unobserved
    /// settle.
    ///
    /// [`DegreeIndex`]: crate::degree_index::DegreeIndex
    pub fn col_shadow(&mut self) -> Arc<Dcsr<T>> {
        self.wait();
        if self.col_shadow.is_none() {
            let (rows, cols, vals) = self.settled.extract_tuples();
            let t = Dcsr::from_tuples(self.ncols, self.nrows, &cols, &rows, &vals, Plus)
                .expect("transposed tuples stay within the swapped dims");
            self.col_shadow = Some(Arc::new(t));
        }
        Arc::clone(self.col_shadow.as_ref().expect("just built"))
    }

    /// Decide how a column read of the settled structure runs: off the
    /// column twin, or by sweeping the row-major structure.
    ///
    /// A sweep costs a read O(rows); the twin costs one build of
    /// [`COL_TWIN_BUILD_COST`] row-slot visits per entry, after which a
    /// column is O(k) — until the next change drops it.  Building on the
    /// first read wastes the build when the structure changes before the
    /// next one; never building pays the sweep forever.  This is ski
    /// rental: reads sweep, each charging its cost, until the sweeps since
    /// the last change reach the build cost; then the twin is built and
    /// serves every read until the next change.  The total is at most twice
    /// what the better of the two fixed policies would have paid.  For an
    /// unchanged structure with `r` non-empty rows and `n` entries, the
    /// twin exists from read `⌈COL_TWIN_BUILD_COST · n / r⌉ + 1` on
    /// ([`ColScan::Column`] reads).
    ///
    /// Settles pending tuples first with a plain, unobserved settle; see
    /// [`Matrix::col_shadow`] for the observer caveat.
    pub fn col_source(&mut self, scan: ColScan) -> ColSource<'_, T> {
        self.wait();
        if self.col_shadow.is_none() {
            let build = COL_TWIN_BUILD_COST.saturating_mul(self.settled.nvals());
            // An empty structure sweeps for free and never needs a twin.
            if self.col_swept < build || build == 0 {
                self.col_swept += match scan {
                    ColScan::Column => self.settled.nrows_nonempty(),
                    ColScan::Range => self.settled.nvals(),
                };
                return ColSource::Sweep(&self.settled);
            }
        }
        ColSource::Twin(self.col_shadow())
    }

    /// Drop the column twin and the sweep rent counted towards it: the
    /// settled structure changed.
    fn drop_col_twin(&mut self) {
        self.col_shadow = None;
        self.col_swept = 0;
    }

    /// Whether the column twin is currently materialised — lets tests and
    /// the overhead report verify lazy activation (pure ingest never
    /// builds it).
    pub fn has_col_shadow(&self) -> bool {
        self.col_shadow.is_some()
    }

    /// Settle pending tuples and return the complete hypersparse structure.
    pub fn settled_dcsr(&mut self) -> &Dcsr<T> {
        self.wait();
        &self.settled
    }

    /// The pending (not yet settled) tuples as parallel slices — read-side
    /// callers fold these in after merging the settled structures, instead
    /// of clone-and-settling the whole matrix.
    pub fn pending_parts(&self) -> (&[Index], &[Index], &[T]) {
        self.pending.parts()
    }

    /// A settled copy of this matrix (does not mutate `self`).
    pub fn to_settled(&self) -> Matrix<T> {
        let mut m = self.clone();
        m.wait();
        m
    }

    /// Iterate over settled entries in row-major order.  Call
    /// [`Matrix::wait`] first if pending tuples must be included.
    pub fn iter_settled(&self) -> impl Iterator<Item = Entry<T>> + '_ {
        self.settled.iter()
    }

    /// Extract all tuples (row-major, pending folded in) without mutating `self`.
    pub fn extract_tuples(&self) -> (Vec<Index>, Vec<Index>, Vec<T>) {
        if self.pending.is_empty() {
            self.settled.extract_tuples()
        } else {
            self.to_settled().settled.extract_tuples()
        }
    }

    /// Total bytes of memory used (settled + pending + scratch structures).
    ///
    /// The scratch buffers are included because the merge ping-pong keeps
    /// them at roughly the settled structure's size once the matrix has
    /// cascaded/settled — omitting them would under-report the resident
    /// footprint by up to 2x.
    pub fn memory(&self) -> MemoryFootprint {
        let s = self.settled.memory();
        let p = self.pending.memory();
        let sc = self.scratch.footprint();
        let mut f = MemoryFootprint {
            index_bytes: s.index_bytes + p.index_bytes + sc.index_bytes,
            value_bytes: s.value_bytes + p.value_bytes + sc.value_bytes,
        };
        if let Some(shadow) = &self.col_shadow {
            let sh = shadow.memory();
            f.index_bytes += sh.index_bytes;
            f.value_bytes += sh.value_bytes;
        }
        f
    }

    /// Validate internal invariants (used by property tests).
    pub fn check_invariants(&self) -> GrbResult<()> {
        self.settled.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_is_empty() {
        let m = Matrix::<f64>::new(1 << 32, 1 << 32);
        assert!(m.is_empty());
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.nrows(), 1 << 32);
    }

    #[test]
    fn invalid_dims() {
        assert!(Matrix::<f64>::try_new(0, 1).is_err());
    }

    #[test]
    fn accum_element_accumulates() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_element(5, 7, 2).unwrap();
        m.accum_element(5, 7, 3).unwrap();
        assert_eq!(m.get(5, 7), Some(5));
        assert_eq!(m.npending(), 2);
        m.wait();
        assert_eq!(m.npending(), 0);
        assert_eq!(m.get(5, 7), Some(5));
        assert_eq!(m.nvals(), 1);
    }

    #[test]
    fn set_element_last_write_wins() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.set_element(5, 7, 2).unwrap();
        m.set_element(5, 7, 9).unwrap();
        m.wait_with(Second);
        assert_eq!(m.get(5, 7), Some(9));
        assert_eq!(m.nvals(), 1);
    }

    #[test]
    fn mixed_settled_and_pending_get() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_element(1, 1, 10).unwrap();
        m.wait();
        m.accum_element(1, 1, 5).unwrap();
        // settled 10 + pending 5
        assert_eq!(m.get(1, 1), Some(15));
        assert_eq!(m.nvals(), 1);
        assert_eq!(m.nvals_settled(), 1);
        assert_eq!(m.npending(), 1);
    }

    #[test]
    fn pending_limit_triggers_auto_wait() {
        let mut m = Matrix::<u64>::new(1000, 1000).with_pending_limit(8);
        for i in 0..20 {
            m.accum_element(i % 10, i % 10, 1).unwrap();
        }
        assert!(m.npending() < 8);
        assert!(m.nvals_settled() > 0);
        // Total content is still correct.
        let total: u64 = m.extract_tuples().2.iter().sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = Matrix::<u64>::new(10, 10);
        assert!(m.accum_element(10, 0, 1).is_err());
        assert!(m.set_element(0, 10, 1).is_err());
        assert!(m.accum_tuples(&[1, 11], &[1, 1], &[1, 1]).is_err());
    }

    #[test]
    fn accum_tuples_batch() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_tuples(&[1, 2, 1], &[1, 2, 1], &[5, 6, 7]).unwrap();
        assert_eq!(m.get(1, 1), Some(12));
        assert_eq!(m.get(2, 2), Some(6));
        assert!(m.accum_tuples(&[1], &[1, 2], &[1]).is_err());
    }

    #[test]
    fn from_tuples_build() {
        let m = Matrix::from_tuples(
            1 << 40,
            1 << 40,
            &[3, 3, 1 << 39],
            &[4, 4, 0],
            &[1.0f64, 2.0, 3.0],
            Plus,
        )
        .unwrap();
        assert_eq!(m.nvals(), 2);
        assert_eq!(m.get(3, 4), Some(3.0));
        assert_eq!(m.get(1 << 39, 0), Some(3.0));
    }

    #[test]
    fn clear_resets() {
        let mut m = Matrix::<u64>::new(10, 10);
        m.accum_element(1, 1, 1).unwrap();
        m.wait();
        m.accum_element(2, 2, 2).unwrap();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.nrows(), 10);
    }

    #[test]
    fn extract_tuples_includes_pending_without_mutation() {
        let mut m = Matrix::<u64>::new(10, 10);
        m.accum_element(1, 1, 1).unwrap();
        m.wait();
        m.accum_element(2, 2, 2).unwrap();
        let (r, c, v) = m.extract_tuples();
        assert_eq!(r, vec![1, 2]);
        assert_eq!(c, vec![1, 2]);
        assert_eq!(v, vec![1, 2]);
        // still pending afterwards (no mutation through &self)
        assert_eq!(m.npending(), 1);
    }

    #[test]
    fn to_settled_does_not_mutate_original() {
        let mut m = Matrix::<u64>::new(10, 10);
        m.accum_element(3, 3, 7).unwrap();
        let s = m.to_settled();
        assert_eq!(s.npending(), 0);
        assert_eq!(s.nvals_settled(), 1);
        assert_eq!(m.npending(), 1);
        assert_eq!(m.nvals_settled(), 0);
    }

    #[test]
    fn memory_reports_nonzero() {
        let mut m = Matrix::<u64>::new(10, 10);
        m.accum_element(1, 2, 3).unwrap();
        assert!(m.memory().total() > 0);
    }

    #[test]
    fn accum_matrix_in_place_equals_ewise_add() {
        let mut a = Matrix::<u64>::new(1 << 20, 1 << 20);
        a.accum_tuples(&[1, 2, 3], &[1, 2, 3], &[10, 20, 30])
            .unwrap();
        let mut b = Matrix::<u64>::new(1 << 20, 1 << 20);
        b.accum_tuples(&[2, 3, 4], &[2, 3, 4], &[5, 6, 7]).unwrap();
        let expect = crate::ops::ewise_add::ewise_add(&a, &b, Plus);
        a.accum_matrix(&b).unwrap();
        assert_eq!(a.extract_tuples(), expect.extract_tuples());
        // b untouched (still has its pending tuples).
        assert_eq!(b.npending(), 3);
        // Repeated accumulation reuses scratch and stays correct.
        let expect2 = crate::ops::ewise_add::ewise_add(&a, &b, Plus);
        a.accum_matrix(&b).unwrap();
        assert_eq!(a.extract_tuples(), expect2.extract_tuples());

        let wrong = Matrix::<u64>::new(4, 4);
        assert!(a.accum_matrix(&wrong).is_err());
    }

    #[test]
    fn clear_retaining_capacity_resets_content() {
        let mut m = Matrix::<u64>::new(100, 100);
        m.accum_tuples(&[1, 2], &[1, 2], &[1, 2]).unwrap();
        m.wait();
        m.accum_element(3, 3, 3).unwrap();
        let bytes = m.memory().total();
        m.clear_retaining_capacity();
        assert!(m.is_empty());
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.memory().total(), bytes);
        // Refill after clearing works.
        m.accum_element(5, 5, 5).unwrap();
        m.wait();
        assert_eq!(m.get(5, 5), Some(5));
    }

    #[test]
    fn accum_tuples_batch_is_atomic_on_error() {
        let mut m = Matrix::<u64>::new(10, 10);
        assert!(m.accum_tuples(&[1, 99], &[1, 1], &[1, 1]).is_err());
        assert_eq!(m.npending(), 0);
        assert_eq!(m.nvals(), 0);
    }

    #[test]
    fn accum_tuples_triggers_single_settle_per_batch() {
        let mut m = Matrix::<u64>::new(1000, 1000).with_pending_limit(64);
        let rows: Vec<u64> = (0..256).map(|i| i % 100).collect();
        let cols = rows.clone();
        let vals = vec![1u64; 256];
        m.accum_tuples(&rows, &cols, &vals).unwrap();
        // The settle check runs after the bulk extend: everything settled.
        assert_eq!(m.npending(), 0);
        let total: u64 = m.extract_tuples().2.iter().sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn col_shadow_is_the_transpose_and_lazy() {
        let mut m = Matrix::<u64>::new(1 << 32, 1 << 20);
        m.accum_tuples(&[5, 5, 9, 5], &[1, 2, 2, 2], &[10, 20, 30, 5])
            .unwrap();
        assert!(!m.has_col_shadow());
        let shadow = m.col_shadow();
        assert!(m.has_col_shadow());
        assert_eq!((shadow.nrows(), shadow.ncols()), (1 << 20, 1 << 32));
        // Shadow "rows" are the matrix's columns, duplicates combined.
        assert_eq!(shadow.row(2), Some((&[5u64, 9][..], &[25u64, 30][..])));
        assert_eq!(shadow.row(1), Some((&[5u64][..], &[10u64][..])));
        assert_eq!(shadow.row(7), None);
        // Cached: a second call hands out the same structure.
        assert!(Arc::ptr_eq(&shadow, &m.col_shadow()));
        // Clones share the cache; mutating the original invalidates only
        // the original's.
        let clone = m.clone();
        assert!(clone.has_col_shadow());
        m.accum_element(9, 1, 1).unwrap();
        m.wait();
        assert!(!m.has_col_shadow());
        assert!(clone.has_col_shadow());
        assert_eq!(
            m.col_shadow().row(1),
            Some((&[5u64, 9][..], &[10u64, 1][..]))
        );
        // Clearing drops it too.
        m.clear();
        assert!(!m.has_col_shadow());
        assert_eq!(m.col_shadow().nvals(), 0);
    }

    #[test]
    fn col_shadow_invalidated_by_matrix_accum() {
        let mut a = Matrix::<u64>::new(100, 100);
        a.accum_element(1, 3, 7).unwrap();
        let _ = a.col_shadow();
        let mut b = Matrix::<u64>::new(100, 100);
        b.accum_element(2, 3, 5).unwrap();
        a.accum_matrix(&b).unwrap();
        assert!(!a.has_col_shadow());
        assert_eq!(
            a.col_shadow().row(3),
            Some((&[1u64, 2][..], &[7u64, 5][..]))
        );
    }

    /// Column `col` through [`Matrix::col_source`], as the hierarchy reads
    /// it, plus whether the twin served it.
    fn policy_col(m: &mut Matrix<u64>, col: Index) -> (Vec<(Index, u64)>, bool) {
        let mut plane = crate::cursor::ColPlane::default();
        let twin = match m.col_source(ColScan::Column) {
            ColSource::Twin(t) => {
                if let Some((rows, vals)) = t.row(col) {
                    plane.0.extend_from_slice(rows);
                    plane.1.extend_from_slice(vals);
                }
                true
            }
            ColSource::Sweep(d) => {
                crate::cursor::col_hits_into(d, col, &mut plane);
                false
            }
        };
        (plane.0.into_iter().zip(plane.1).collect(), twin)
    }

    fn sweep_col(m: &Matrix<u64>, col: Index) -> Vec<(Index, u64)> {
        let mut out = Vec::new();
        crate::cursor::merged_col_into(&[m.dcsr()], col, Plus, &mut out);
        out
    }

    /// 40 rows of 8 entries over 16 columns: 320 entries, 40 row slots.
    fn policy_matrix() -> Matrix<u64> {
        let mut m = Matrix::<u64>::new(1 << 20, 1 << 20);
        for r in 0..40u64 {
            for j in 0..8u64 {
                m.accum_element(r * 1000, (r + j) % 16, r + j + 1).unwrap();
            }
        }
        m.wait();
        m
    }

    #[test]
    fn col_source_never_builds_for_a_structure_that_changes_between_reads() {
        let mut m = policy_matrix();
        for i in 0..200u64 {
            let (got, twin) = policy_col(&mut m, i % 16);
            assert!(!twin);
            assert_eq!(got, sweep_col(&m, i % 16));
            m.accum_element(i * 7 + 1, i % 16, 1).unwrap();
            m.wait();
            assert!(!m.has_col_shadow(), "read {i} built a twin");
        }
    }

    #[test]
    fn col_source_builds_the_twin_once_sweeps_have_paid_for_it() {
        let mut m = policy_matrix();
        let (n, r) = (m.nvals_settled(), m.nrows_nonempty());
        // Read `bound` is the first served by the twin.
        let bound = (COL_TWIN_BUILD_COST * n).div_ceil(r) + 1;
        let mut first_twin = None;
        for read in 1..=bound + 5 {
            let col = read as u64 % 16;
            let (got, twin) = policy_col(&mut m, col);
            // Identical answers on both sides of the switch.
            assert_eq!(got, sweep_col(&m, col), "read {read}");
            if twin && first_twin.is_none() {
                first_twin = Some(read);
            }
            assert_eq!(
                twin,
                first_twin.is_some(),
                "read {read} went back to sweeping"
            );
        }
        assert_eq!(first_twin, Some(bound));
        // Later reads share the one twin.
        let held = m.col_shadow();
        match m.col_source(ColScan::Column) {
            ColSource::Twin(t) => assert!(Arc::ptr_eq(&t, &held)),
            ColSource::Sweep(_) => panic!("twin built but not used"),
        }
    }

    #[test]
    fn col_source_charges_range_reads_the_entry_count() {
        let mut m = policy_matrix();
        for _ in 0..COL_TWIN_BUILD_COST {
            assert!(matches!(m.col_source(ColScan::Range), ColSource::Sweep(_)));
        }
        assert!(matches!(m.col_source(ColScan::Range), ColSource::Twin(_)));
        // An empty structure sweeps for free and never builds.
        let mut empty = Matrix::<u64>::new(10, 10);
        for _ in 0..3 {
            assert!(matches!(
                empty.col_source(ColScan::Column),
                ColSource::Sweep(_)
            ));
        }
        assert!(!empty.has_col_shadow());
    }

    #[test]
    fn clear_and_merges_reset_the_swept_work() {
        let mut m = policy_matrix();
        let _ = policy_col(&mut m, 3);
        assert!(m.col_swept > 0);
        let mut other = Matrix::<u64>::new(1 << 20, 1 << 20);
        other.accum_element(5, 5, 5).unwrap();
        // The cascade primitive changes the structure: the rent restarts.
        m.accum_matrix(&other).unwrap();
        assert_eq!(m.col_swept, 0);
        let _ = policy_col(&mut m, 3);
        m.clear_retaining_capacity();
        assert_eq!(m.col_swept, 0);
        m.accum_element(1, 1, 1).unwrap();
        let _ = policy_col(&mut m, 1);
        assert!(m.col_swept > 0);
        m.clear();
        assert_eq!(m.col_swept, 0);
        // A settle that changes nothing keeps both the rent and the twin.
        let mut m = policy_matrix();
        let _ = m.col_shadow();
        m.wait();
        assert!(m.has_col_shadow());
    }

    #[test]
    fn invariants_hold_after_waits() {
        let mut m = Matrix::<i64>::new(1 << 20, 1 << 20);
        for i in 0..1000i64 {
            let r = (i * 7919 % 1000) as u64;
            let c = (i * 104729 % 1000) as u64;
            m.accum_element(r, c, i).unwrap();
            if i % 100 == 0 {
                m.wait();
                m.check_invariants().unwrap();
            }
        }
        m.wait();
        m.check_invariants().unwrap();
    }
}
