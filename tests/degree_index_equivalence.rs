#![recursion_limit = "256"] // the proptest macro expansion is token-heavy

//! Property-based tests of the incremental degree index: for random update
//! streams, cut schedules, shard counts, window rotations and mid-stream
//! flushes, every index-served answer — per-row degree, row reduce, top-k,
//! nnz, degree histogram — must be byte-identical to the retained
//! cursor-sweep fallback *and* to the answer computed from the
//! materialised flat matrix.  Snapshots taken mid-stream must keep
//! answering the captured state no matter how far the source streams on.

use hyperstream::prelude::*;
use proptest::prelude::*;

const DIM: u64 = 1 << 32;

// A stream of ids drawn below `pool`; `scatter` folds them into a pool of
// the chosen width (a small one gives duplicates and cross-level row
// collisions) and spreads them over the hypersparse index space.
fn pooled_stream(max_len: usize, pool: u64) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..pool, 0u64..pool, 1u64..5), 1..max_len)
}

/// How many leading ranks the degree index's top-k cache holds at least.
const CACHED_RANKS: usize = 128;

/// Wide enough that a stream holds more distinct rows and columns than
/// the top-k cache covers, mostly at equal low degrees.
const WIDE_POOL: u64 = 400;

fn scatter(ids: &[(u64, u64, u64)], pool: u64) -> Vec<(u64, u64, u64)> {
    ids.iter()
        .map(|&(r, c, w)| {
            let (r, c) = (r % pool, c % pool);
            ((r * 20_000_019) % DIM, (c * 40_000_003) % DIM, w)
        })
        .collect()
}

// An arbitrary valid cut schedule (strictly increasing, non-zero).
fn cut_schedule() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..64, 1usize..4).prop_map(|deltas| {
        let mut acc = 0u64;
        deltas
            .into_iter()
            .map(|d| {
                acc += d;
                acc
            })
            .collect()
    })
}

fn build_flat(updates: &[(u64, u64, u64)]) -> Matrix<u64> {
    let mut m = Matrix::<u64>::new(DIM, DIM);
    for &(r, c, v) in updates {
        m.accum_element(r, c, v).unwrap();
    }
    m.wait();
    m
}

// Reference top-k (degree descending, row ascending) from a flat matrix.
fn reference_top_k(flat: &Matrix<u64>, k: usize) -> Vec<(u64, usize)> {
    let d = flat.dcsr();
    let mut degs: Vec<(u64, usize)> = (0..d.nrows_nonempty())
        .map(|slot| (d.row_ids()[slot], d.row_slot(slot).0.len()))
        .collect();
    degs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    degs.truncate(k);
    degs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn hier_index_matches_sweep_and_flat(
        raw in pooled_stream(600, WIDE_POOL),
        wide in 0u64..2,
        batch in 1usize..40,
        cuts in cut_schedule(),
        flush_at in 0usize..600,
        k in 0usize..12,
    ) {
        // The narrow pool gives high degrees and cross-level collisions;
        // the wide one more rows and columns than the top-k caches cover,
        // with long runs of equal degrees, so settles take the threshold
        // path of the cache maintenance.
        let updates = scatter(&raw, if wide == 1 { WIDE_POOL } else { 48 });
        let flush_at = flush_at % updates.len();
        let flat = build_flat(&updates);
        let cfg = HierConfig::from_cuts(cuts).unwrap();
        let mut hier = HierMatrix::<u64>::new(DIM, DIM, cfg).unwrap();
        let mut snap = None;
        for (b, chunk) in updates.chunks(batch).enumerate() {
            let rows: Vec<u64> = chunk.iter().map(|u| u.0).collect();
            let cols: Vec<u64> = chunk.iter().map(|u| u.1).collect();
            let vals: Vec<u64> = chunk.iter().map(|u| u.2).collect();
            hier.update_batch(&rows, &cols, &vals).unwrap();
            let end = b * batch + chunk.len();
            if snap.is_none() && flush_at < end {
                // Mid-stream: query, snapshot, flush — none may disturb
                // the stream, and the snapshot must freeze here.
                let _ = hier.read_top_k(3);
                let mut s = hier.snapshot();
                let frozen = (s.read_top_k(k), s.read_in_top_k(k));
                snap = Some((s, end, frozen));
                hier.flush().unwrap();
            }
            // After every batch the caches the settles maintained answer
            // exactly as the sweeps do.
            // The whole cached range is asked for too: a maintenance slip
            // shows first at the cache's last ranks, where ties decide.
            for k in [k, CACHED_RANKS] {
                prop_assert_eq!(hier.read_top_k(k), hier.sweep_top_k(k));
                prop_assert_eq!(hier.read_in_top_k(k), hier.sweep_in_top_k(k));
            }
            prop_assert_eq!(hier.read_degree_histogram(), hier.sweep_degree_histogram());
            prop_assert_eq!(hier.read_in_degree_histogram(), hier.sweep_in_degree_histogram());
            // ...while the snapshot's copies stay frozen.
            if let Some((s, _, frozen)) = snap.as_mut() {
                prop_assert_eq!(&(s.read_top_k(k), s.read_in_top_k(k)), &*frozen);
            }
        }
        // Index-served answers == cursor-sweep fallback == flat reference.
        prop_assert_eq!(hier.read_nnz(), hier.sweep_nnz());
        prop_assert_eq!(hier.read_nnz(), flat.nvals());
        prop_assert_eq!(hier.read_top_k(k), hier.sweep_top_k(k));
        prop_assert_eq!(hier.read_top_k(k), reference_top_k(&flat, k));
        prop_assert_eq!(hier.read_degree_histogram(), hier.sweep_degree_histogram());
        prop_assert_eq!(
            hier.read_degree_histogram(),
            {
                let mut flat_ro = flat.clone();
                flat_ro.read_degree_histogram()
            }
        );
        for probe in [updates[0].0, (49 * 20_000_019) % DIM] {
            prop_assert_eq!(hier.read_row_degree(probe), hier.sweep_row_degree(probe));
            prop_assert_eq!(hier.read_row_reduce(probe), hier.sweep_row_reduce(probe));
            let expect_deg = flat.dcsr().row(probe).map_or(0, |(c, _)| c.len());
            prop_assert_eq!(hier.read_row_degree(probe), expect_deg);
        }
        // Row-range scans equal the filtered flat entries.
        let (lo, hi) = (updates[0].0.min(updates[updates.len() - 1].0),
                        updates[0].0.max(updates[updates.len() - 1].0) + 1);
        let mut got = Vec::new();
        hier.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        let expect: Vec<(u64, u64, u64)> = flat
            .iter_settled()
            .filter(|&(r, _, _)| r >= lo && r < hi)
            .collect();
        prop_assert_eq!(got, expect);
        // The mid-stream snapshot still answers the captured prefix.
        if let Some((mut snap, end, _)) = snap {
            let prefix = build_flat(&updates[..end]);
            prop_assert_eq!(snap.read_nnz(), prefix.nvals());
            prop_assert_eq!(snap.read_top_k(5), reference_top_k(&prefix, 5));
            let probe = updates[0].0;
            prop_assert_eq!(
                snap.read_row_degree(probe),
                prefix.dcsr().row(probe).map_or(0, |(c, _)| c.len())
            );
        }
    }

    #[test]
    fn sharded_pushdown_index_matches_flat(
        raw in pooled_stream(300, WIDE_POOL),
        wide in 0u64..2,
        cuts in cut_schedule(),
        shards in 1usize..=8,
        chunk in 1usize..64,
        flush_at in 0usize..300,
        k in 0usize..12,
        partitioner_sel in 0u64..2,
    ) {
        let updates = scatter(&raw, if wide == 1 { WIDE_POOL } else { 48 });
        let flat = build_flat(&updates);
        let cfg = HierConfig::from_cuts(cuts).unwrap();
        let partitioner = if partitioner_sel == 1 {
            ShardPartitioner::RowRange
        } else {
            ShardPartitioner::RowHash
        };
        let mut engine = ShardedHierMatrix::<u64>::new(
            DIM,
            DIM,
            cfg,
            ShardedConfig {
                partitioner,
                chunk_tuples: chunk,
                channel_depth: 2,
                round_tuples: 128,
                ..ShardedConfig::with_shards(shards)
            },
        )
        .unwrap();
        let mut snap = None;
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            engine.update(r, c, v).unwrap();
            if i == flush_at {
                snap = Some((engine.snapshot().unwrap(), i));
                engine.flush().unwrap();
            }
        }
        // Pushed-down answers (each worker serves from its shard's index)
        // equal the flat reference; nothing materialises.
        prop_assert_eq!(engine.read_nnz(), flat.nvals());
        prop_assert_eq!(engine.read_top_k(k), reference_top_k(&flat, k));
        prop_assert_eq!(
            engine.read_degree_histogram(),
            {
                let mut flat_ro = flat.clone();
                flat_ro.read_degree_histogram()
            }
        );
        let probe = updates[0].0;
        prop_assert_eq!(
            engine.read_row_degree(probe),
            flat.dcsr().row(probe).map_or(0, |(c, _)| c.len())
        );
        prop_assert_eq!(engine.aggregate_stats().unwrap().materializations, 0);
        // Range scans dispatch to the overlapping workers only (RowRange)
        // or everyone (RowHash) — answers identical either way.
        let (lo, hi) = (0u64, DIM / 2);
        let mut got = Vec::new();
        engine.read_row_range(lo, hi, &mut |r, c, v| got.push((r, c, v)));
        let expect: Vec<(u64, u64, u64)> = flat
            .iter_settled()
            .filter(|&(r, _, _)| r < hi)
            .collect();
        prop_assert_eq!(got, expect);
        prop_assert!(engine.last_query_fanout() <= shards);
        // The engine-wide snapshot froze the captured prefix.
        if let Some((mut snap, at)) = snap {
            let prefix = build_flat(&updates[..=at]);
            prop_assert_eq!(snap.read_nnz(), prefix.nvals());
            prop_assert_eq!(snap.read_top_k(4), reference_top_k(&prefix, 4));
        }
    }

    #[test]
    fn windowed_rotation_index_matches_sweep_and_retained_union(
        raw in pooled_stream(300, WIDE_POOL),
        wide in 0u64..2,
        cuts in cut_schedule(),
        window in 10u64..120,
        max_windows in 1usize..4,
        k in 0usize..10,
    ) {
        let updates = scatter(&raw, if wide == 1 { WIDE_POOL } else { 48 });
        let cfg = HierConfig::from_cuts(cuts).unwrap();
        let mut w =
            WindowedHierMatrix::<u64>::new(DIM, DIM, cfg, window, max_windows).unwrap();
        for (i, &(r, c, v)) in updates.iter().enumerate() {
            w.update(r, c, v).unwrap();
            if i == updates.len() / 2 {
                // A query mid-stream exercises rebuild-then-invalidate.
                let _ = w.read_nnz();
            }
        }
        // Index answers == cursor sweep over the retained windows ==
        // materialised retained union (evictions included).
        let retained = w.materialize_retained().unwrap();
        prop_assert_eq!(w.read_nnz(), w.sweep_nnz());
        prop_assert_eq!(w.read_nnz(), retained.nvals());
        prop_assert_eq!(w.read_top_k(k), w.sweep_top_k(k));
        prop_assert_eq!(w.read_top_k(k), reference_top_k(&retained, k));
        prop_assert_eq!(w.read_degree_histogram(), w.sweep_degree_histogram());
        let probe = updates[updates.len() - 1].0;
        prop_assert_eq!(w.read_row_degree(probe), w.sweep_row_degree(probe));
        prop_assert_eq!(w.read_row_reduce(probe), w.sweep_row_reduce(probe));
        prop_assert_eq!(
            w.read_row_degree(probe),
            retained.dcsr().row(probe).map_or(0, |(c, _)| c.len())
        );
    }
}

/// The degree histogram served through the generic algorithm layer equals
/// the flat computation for every hierarchical system (the index sits
/// behind `read_degree_histogram`, which `algo::degree_distribution` uses).
#[test]
fn degree_distribution_over_index_matches_flat() {
    use hyperstream::graphblas::algo::degree::degree_distribution;

    let mut flat = Matrix::<u64>::new(DIM, DIM);
    let mut hier =
        HierMatrix::<u64>::new(DIM, DIM, HierConfig::from_cuts(vec![8, 64]).unwrap()).unwrap();
    let mut sharded = ShardedHierMatrix::<u64>::with_shards(DIM, DIM, 3).unwrap();
    for i in 0..4000u64 {
        let (r, c, v) = ((i % 53) * 1_000_003, (i * 11) % 83, i % 3 + 1);
        flat.accum_element(r, c, v).unwrap();
        hier.update(r, c, v).unwrap();
        sharded.update(r, c, v).unwrap();
    }
    let expect = degree_distribution(&mut flat);
    assert_eq!(degree_distribution(&mut hier).counts, expect.counts);
    assert_eq!(degree_distribution(&mut sharded).counts, expect.counts);
}
