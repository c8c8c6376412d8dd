//! Input generation.  Every workload's load is generated up front from the
//! run's seed, before any timing starts, and replayed identically by each
//! episode of the run.

use hyperstream_workload::{
    IpTrafficConfig, IpTrafficGenerator, PowerLawConfig, PowerLawGenerator,
};

/// Matrix dimension of every workload: the IPv4 address space.
pub const DIM: u64 = 1 << 32;

/// Largest batch a unit-weight stream hands out.
const MAX_UNIT_BATCH: usize = 1 << 16;

/// A generated update stream as the parallel slices `update_batch` takes.
#[derive(Debug)]
pub struct Input {
    pub rows: Vec<u64>,
    pub cols: Vec<u64>,
    /// Per-update weights; `None` for a unit-weight stream, whose batches
    /// share one slice of ones.
    vals: Option<Vec<u64>>,
    ones: Vec<u64>,
}

impl Input {
    /// The paper's power-law stream (`PowerLawConfig::paper`) under `seed`.
    pub fn paper(seed: u64, n: usize) -> Self {
        let cfg = PowerLawConfig {
            seed,
            ..PowerLawConfig::paper()
        };
        let (mut rows, mut cols) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for e in PowerLawGenerator::new(cfg).take(n) {
            debug_assert_eq!(e.weight, 1);
            rows.push(e.src);
            cols.push(e.dst);
        }
        Self {
            rows,
            cols,
            vals: None,
            ones: vec![1; MAX_UNIT_BATCH],
        }
    }

    /// IPv4 traffic with the generator's defaults (Zipf hosts, 64
    /// supernodes, 1–8 packets per flow) under `seed`.
    pub fn ip(seed: u64, n: usize) -> Self {
        let cfg = IpTrafficConfig {
            seed,
            ..IpTrafficConfig::default()
        };
        debug_assert_eq!(cfg.version.dim(), DIM);
        let (mut rows, mut cols, mut vals) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for e in IpTrafficGenerator::new(cfg).take(n) {
            rows.push(e.src);
            cols.push(e.dst);
            vals.push(e.weight);
        }
        Self {
            rows,
            cols,
            vals: Some(vals),
            ones: Vec::new(),
        }
    }

    /// An explicit stream (tests).
    #[cfg(test)]
    pub fn from_parts(rows: Vec<u64>, cols: Vec<u64>, vals: Vec<u64>) -> Self {
        Self {
            rows,
            cols,
            vals: Some(vals),
            ones: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn val(&self, i: usize) -> u64 {
        self.vals.as_ref().map_or(1, |v| v[i])
    }

    /// Updates `lo..hi` as `(rows, cols, vals)`.
    pub fn slice(&self, lo: usize, hi: usize) -> (&[u64], &[u64], &[u64]) {
        let vals = match &self.vals {
            Some(v) => &v[lo..hi],
            None => &self.ones[..hi - lo],
        };
        (&self.rows[lo..hi], &self.cols[lo..hi], vals)
    }

    /// Consecutive `batch`-sized ranges covering `lo..hi`.
    pub fn batches(lo: usize, hi: usize, batch: usize) -> impl Iterator<Item = (usize, usize)> {
        (lo..hi)
            .step_by(batch.max(1))
            .map(move |s| (s, (s + batch).min(hi)))
    }
}
