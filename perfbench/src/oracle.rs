//! The oracle: the exact content a workload's input must produce, computed
//! from the generated input by this module's own sort-and-count code (and,
//! for PageRank, by a rerun on a flat single-level `Matrix`).  Checks run
//! outside every timed call; a mismatch fails the run.

use crate::input::{Input, DIM};
use hyperstream_graphblas::algo::pagerank;
use hyperstream_graphblas::ops::binary::Plus;
use hyperstream_graphblas::{Matrix, SparseVector};
use std::collections::{HashMap, HashSet};

/// PageRank parameters shared by the timed calls and the oracle rerun.
const DAMPING: f64 = 0.85;
const PAGERANK_ITERS: usize = 20;
/// Largest difference allowed between a rank and the flat rerun's.
const PAGERANK_TOL: f64 = 1e-9;

/// Rows and columns whose full content the checks compare.
const SAMPLES: usize = 32;

fn key(r: u64, c: u64) -> u64 {
    debug_assert!(r < DIM && c < DIM);
    (r << 32) | c
}

fn unkey(k: u64) -> (u64, u64) {
    (k >> 32, k & (DIM - 1))
}

#[derive(Debug)]
pub struct Oracle {
    /// Distinct cells `(row << 32 | col, summed weight)`, ascending, which
    /// is the row-major order `read_entries` streams in.
    cells: Vec<(u64, u64)>,
    pub updates: u64,
    pub weight: u64,
    out_deg: HashMap<u64, u64>,
    in_deg: HashMap<u64, u64>,
    /// All out-/in-degrees, descending.
    out_sorted: Vec<u64>,
    in_sorted: Vec<u64>,
    /// Cells of updates spread over the stream, and their rows.
    pub sample_cells: Vec<(u64, u64)>,
    pub sample_rows: Vec<u64>,
    pub sample_cols: Vec<u64>,
    /// Content `(row, weight)` of each sampled column, ascending by row.
    col_cells: HashMap<u64, Vec<(u64, u64)>>,
    pagerank: Vec<(u64, f64)>,
}

impl Oracle {
    pub fn new(input: &Input) -> Self {
        let n = input.len();
        let mut kv: Vec<(u64, u64)> = (0..n)
            .map(|i| (key(input.rows[i], input.cols[i]), input.val(i)))
            .collect();
        kv.sort_unstable_by_key(|p| p.0);
        let mut cells: Vec<(u64, u64)> = Vec::new();
        for (k, w) in kv {
            match cells.last_mut() {
                Some(last) if last.0 == k => last.1 += w,
                _ => cells.push((k, w)),
            }
        }
        let mut out_deg: HashMap<u64, u64> = HashMap::new();
        let mut in_deg: HashMap<u64, u64> = HashMap::new();
        for &(k, _) in &cells {
            let (r, c) = unkey(k);
            *out_deg.entry(r).or_default() += 1;
            *in_deg.entry(c).or_default() += 1;
        }
        let sorted_desc = |m: &HashMap<u64, u64>| {
            let mut v: Vec<u64> = m.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        };
        let spaced = |i: usize, off: usize| (i * n / SAMPLES + off) % n.max(1);
        let sample_cells: Vec<(u64, u64)> = (0..SAMPLES.min(n))
            .map(|i| (input.rows[spaced(i, 0)], input.cols[spaced(i, 0)]))
            .collect();
        let sample_rows = sample_cells.iter().map(|c| c.0).collect();
        let sample_cols: Vec<u64> = (0..SAMPLES.min(n))
            .map(|i| input.cols[spaced(i, 1)])
            .collect();
        let wanted: HashSet<u64> = sample_cols.iter().copied().collect();
        let mut col_cells: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for &(k, w) in &cells {
            let (r, c) = unkey(k);
            if wanted.contains(&c) {
                col_cells.entry(c).or_default().push((r, w));
            }
        }
        let weight = cells.iter().map(|c| c.1).sum();
        let mut o = Self {
            updates: n as u64,
            weight,
            out_sorted: sorted_desc(&out_deg),
            in_sorted: sorted_desc(&in_deg),
            out_deg,
            in_deg,
            sample_cells,
            sample_rows,
            sample_cols,
            col_cells,
            cells,
            pagerank: Vec::new(),
        };
        o.pagerank = o.flat_pagerank();
        o
    }

    /// PageRank rerun on a flat single-level matrix built from the cells.
    fn flat_pagerank(&self) -> Vec<(u64, f64)> {
        let (mut r, mut c, mut v) = (Vec::new(), Vec::new(), Vec::new());
        for &(k, w) in &self.cells {
            let (row, col) = unkey(k);
            r.push(row);
            c.push(col);
            v.push(w);
        }
        let mut flat =
            Matrix::from_tuples(DIM, DIM, &r, &c, &v, Plus).expect("oracle cells are in range");
        run_pagerank(&mut flat).iter().collect()
    }

    /// `k` rows spread evenly over the matrix's distinct rows, ascending:
    /// a uniform sample of rows, so mostly short ones.
    pub fn spread_rows(&self, k: usize) -> Vec<u64> {
        let mut rows: Vec<u64> = self.cells.iter().map(|&(key, _)| unkey(key).0).collect();
        rows.dedup();
        let n = rows.len();
        (0..k.min(n)).map(|i| rows[i * n / k]).collect()
    }

    pub fn nnz(&self) -> usize {
        self.cells.len()
    }

    pub fn distinct_share(&self) -> f64 {
        self.cells.len() as f64 / self.updates.max(1) as f64
    }

    pub fn max_out_degree(&self) -> u64 {
        self.out_sorted.first().copied().unwrap_or(0)
    }

    pub fn max_in_degree(&self) -> u64 {
        self.in_sorted.first().copied().unwrap_or(0)
    }

    pub fn check_nnz(&self, got: usize) -> Result<(), String> {
        if got == self.nnz() {
            Ok(())
        } else {
            Err(format!("nnz {got}, want {}", self.nnz()))
        }
    }

    pub fn check_weight(&self, got: u64) -> Result<(), String> {
        if got == self.weight {
            Ok(())
        } else {
            Err(format!("total weight {got}, want {}", self.weight))
        }
    }

    /// Streaming comparison against a full row-major read.
    pub fn content(&self) -> ContentCheck<'_> {
        ContentCheck {
            o: self,
            next: 0,
            weight: 0,
            err: None,
        }
    }

    fn row_cells(&self, r: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let lo = self.cells.partition_point(|p| p.0 < key(r, 0));
        self.cells[lo..]
            .iter()
            .take_while(move |p| unkey(p.0).0 == r)
            .map(|&(k, w)| (unkey(k).1, w))
    }

    pub fn check_row(&self, r: u64, got: &[(u64, u64)]) -> Result<(), String> {
        let want: Vec<(u64, u64)> = self.row_cells(r).collect();
        same(&want, got, || format!("row {r}"))
    }

    pub fn check_col(&self, c: u64, got: &[(u64, u64)]) -> Result<(), String> {
        let want = self
            .col_cells
            .get(&c)
            .ok_or_else(|| format!("column {c} is not a sampled column"))?;
        same(want, got, || format!("column {c}"))
    }

    pub fn check_get(&self, r: u64, c: u64, got: Option<u64>) -> Result<(), String> {
        let want = self
            .cells
            .binary_search_by_key(&key(r, c), |p| p.0)
            .ok()
            .map(|i| self.cells[i].1);
        if want == got {
            Ok(())
        } else {
            Err(format!("get({r}, {c}) = {got:?}, want {want:?}"))
        }
    }

    /// Check a top-k answer: `k` entries (or every vertex), each carrying
    /// its true degree, in descending order, with the true top degrees.
    /// Ties may be broken either way.
    pub fn check_top(&self, k: usize, got: &[(u64, usize)], incoming: bool) -> Result<(), String> {
        let (deg, sorted, what) = if incoming {
            (&self.in_deg, &self.in_sorted, "in-degree top-k")
        } else {
            (&self.out_deg, &self.out_sorted, "top-k")
        };
        let want_len = k.min(sorted.len());
        if got.len() != want_len {
            return Err(format!("{what}: {} entries, want {want_len}", got.len()));
        }
        for (i, &(v, d)) in got.iter().enumerate() {
            let truth = deg.get(&v).copied().unwrap_or(0);
            if truth != d as u64 || sorted[i] != truth {
                return Err(format!(
                    "{what}: rank {i} is vertex {v} with degree {d}; its true degree is {truth}, rank {i} should have {}",
                    sorted[i]
                ));
            }
        }
        Ok(())
    }

    pub fn check_pagerank(&self, got: &SparseVector<f64>) -> Result<(), String> {
        if got.nvals() != self.pagerank.len() {
            return Err(format!(
                "pagerank ranks {} vertices, the flat rerun {}",
                got.nvals(),
                self.pagerank.len()
            ));
        }
        for (&(v, want), (gv, g)) in self.pagerank.iter().zip(got.iter()) {
            if v != gv || (want - g).abs() > PAGERANK_TOL {
                return Err(format!(
                    "pagerank of {gv} is {g}, flat rerun gives {want} for {v}"
                ));
            }
        }
        Ok(())
    }
}

/// PageRank as every workload and the oracle run it.  A zero convergence
/// tolerance fixes the work at `PAGERANK_ITERS` iterations.
pub fn run_pagerank<R: hyperstream_graphblas::CursorReader<u64> + ?Sized>(
    m: &mut R,
) -> SparseVector<f64> {
    pagerank(m, DAMPING, PAGERANK_ITERS, 0.0)
}

fn same(
    want: &[(u64, u64)],
    got: &[(u64, u64)],
    what: impl FnOnce() -> String,
) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let at = want
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    Err(format!(
        "{}: {} entries, want {}; first difference at {at}: {:?} vs {:?}",
        what(),
        got.len(),
        want.len(),
        got.get(at),
        want.get(at)
    ))
}

/// Compares a full row-major read entry by entry, then nnz and weight.
pub struct ContentCheck<'a> {
    o: &'a Oracle,
    next: usize,
    weight: u64,
    err: Option<String>,
}

impl ContentCheck<'_> {
    pub fn push(&mut self, r: u64, c: u64, w: u64) {
        self.weight += w;
        if self.err.is_none() {
            let want = self.o.cells.get(self.next).map(|&(k, v)| (unkey(k), v));
            if want != Some(((r, c), w)) {
                self.err = Some(format!(
                    "entry {} is ({r}, {c}) = {w}, want {want:?}",
                    self.next
                ));
            }
        }
        self.next += 1;
    }

    /// The weight summed over the read so far.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    pub fn finish(&self) -> Result<(), String> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        if self.next != self.o.nnz() {
            return Err(format!(
                "read {} entries, nnz is {}",
                self.next,
                self.o.nnz()
            ));
        }
        if self.weight != self.o.weight {
            return Err(format!(
                "read weight {}, want {}",
                self.weight, self.o.weight
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperstream_graphblas::MatrixReader;
    use hyperstream_hier::{HierConfig, HierMatrix};

    fn small() -> Input {
        let n = 5000u64;
        let rows = (0..n).map(|i| (i * 7919) % 97).collect();
        let cols = (0..n).map(|i| (i * 104_729) % 113).collect();
        let vals = (0..n).map(|i| 1 + i % 5).collect();
        Input::from_parts(rows, cols, vals)
    }

    fn ingest(input: &Input) -> HierMatrix<u64> {
        let cfg = HierConfig::from_cuts(vec![64, 512]).unwrap();
        let mut m = HierMatrix::<u64>::new(DIM, DIM, cfg).unwrap();
        for (lo, hi) in Input::batches(0, input.len(), 100) {
            let (r, c, v) = input.slice(lo, hi);
            m.update_batch(r, c, v).unwrap();
        }
        m
    }

    fn all_checks(o: &Oracle, m: &mut HierMatrix<u64>) -> Result<(), String> {
        let mut check = o.content();
        m.read_entries(&mut |r, c, v| check.push(r, c, v));
        check.finish()?;
        let mut out = Vec::new();
        for &r in &o.sample_rows {
            m.read_row(r, &mut out);
            o.check_row(r, &out)?;
        }
        for &c in &o.sample_cols {
            m.read_col(c, &mut out);
            o.check_col(c, &out)?;
        }
        o.check_top(10, &m.read_top_k(10), false)?;
        o.check_top(10, &m.read_in_top_k(10), true)?;
        o.check_pagerank(&run_pagerank(m))
    }

    #[test]
    fn the_engine_passes_its_oracle() {
        let input = small();
        let o = Oracle::new(&input);
        assert_eq!(o.weight, (0..5000u64).map(|i| 1 + i % 5).sum::<u64>());
        let mut m = ingest(&input);
        all_checks(&o, &mut m).unwrap();
        let (r, c) = (input.rows[3], input.cols[3]);
        o.check_get(r, c, m.get(r, c)).unwrap();
    }

    #[test]
    fn a_perturbed_answer_is_rejected() {
        let input = small();
        let o = Oracle::new(&input);
        // One extra unit of weight on an existing cell.
        let mut m = ingest(&input);
        let (r, c) = (input.rows[0], input.cols[0]);
        m.update(r, c, 1).unwrap();
        assert!(all_checks(&o, &mut m).is_err());
        assert!(o.check_get(r, c, m.get(r, c)).is_err());
        // A new cell: nnz, a degree and PageRank all change.
        let mut m = ingest(&input);
        m.update(5, 1_000_000, 1).unwrap();
        assert!(all_checks(&o, &mut m).is_err());
        // Answers perturbed directly.
        let mut row = Vec::new();
        let mut good = ingest(&input);
        good.read_row(o.sample_rows[1], &mut row);
        row[0].1 += 1;
        assert!(o.check_row(o.sample_rows[1], &row).is_err());
        let mut top = good.read_top_k(5);
        top[0].1 += 1;
        assert!(o.check_top(5, &top, false).is_err());
        let mut pr = run_pagerank(&mut good);
        let (v, x) = pr.iter().next().unwrap();
        pr.set(v, x + 1e-6).unwrap();
        assert!(o.check_pagerank(&pr).is_err());
    }
}
