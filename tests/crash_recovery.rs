#![recursion_limit = "512"] // the proptest macro expansion is token-heavy

//! Crash-consistency suite for the durable hierarchy (`crates/hier/src/persist`).
//!
//! The oracle contract under test: after *any* interruption — a clean
//! drop, a simulated process kill (`std::mem::forget`, which skips the
//! `Drop` WAL sync), a WAL torn at an arbitrary byte, or an injected
//! failure at any persistence failpoint — reopening the directory must
//!
//! * succeed (recovery never needs a repair tool),
//! * reproduce the flat-oracle contents of some *acknowledged prefix* of
//!   the update stream (no silent loss of fsynced data, no invented
//!   entries), and
//! * report what it did ([`RecoveryReport`]) instead of guessing
//!   silently.
//!
//! The failpoint-armed cases live behind `--features failpoints` (the
//! registry is process-global, so they serialise through [`exclusive`]);
//! everything else runs in the default test sweep.

use hyperstream::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const DIM: u64 = 1 << 32;

/// Unique-per-test scratch directory, removed on drop (kept on panic so a
/// failing case leaves its evidence behind).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let p =
            std::env::temp_dir().join(format!("hs-crash-{}-{}-{}", std::process::id(), name, n));
        let _ = std::fs::remove_dir_all(&p);
        Self(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn small_cuts() -> HierConfig {
    HierConfig::from_cuts(vec![8, 64]).unwrap()
}

/// Flat oracle: the represented matrix of an update prefix as a sum map.
fn oracle(updates: &[(u64, u64, u64)]) -> BTreeMap<(u64, u64), u64> {
    let mut m = BTreeMap::new();
    for &(r, c, v) in updates {
        *m.entry((r, c)).or_insert(0) += v;
    }
    m
}

fn contents(m: &HierMatrix<u64>) -> BTreeMap<(u64, u64), u64> {
    let (r, c, v) = m.materialize_ref().extract_tuples();
    let mut out = BTreeMap::new();
    for i in 0..r.len() {
        *out.entry((r[i], c[i])).or_insert(0) += v[i];
    }
    out
}

/// A stream of updates drawn from a small id pool (duplicates included,
/// so `⊕` accumulation is actually exercised) scattered over the
/// hypersparse index space.
fn update_stream(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    prop::collection::vec((0u64..120, 0u64..120, 1u64..5), 32..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| ((r * 20_000_019) % DIM, (c * 40_000_003) % DIM, w))
            .collect()
    })
}

fn the_wal_file(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    assert_eq!(wals.len(), 1, "exactly one live WAL expected");
    wals.pop().unwrap()
}

// ---------------------------------------------------------------------
// Clean-path round trips.
// ---------------------------------------------------------------------

#[test]
fn clean_reopen_after_flush_replays_nothing() {
    let dir = TempDir::new("clean-flush");
    let updates: Vec<(u64, u64, u64)> = (0..300u64)
        .map(|i| ((i * 7) % 97, (i * 13) % 89, 1 + i % 3))
        .collect();
    let mut m =
        HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
            .unwrap();
    for &(r, c, v) in &updates {
        m.update(r, c, v).unwrap();
    }
    m.flush().unwrap();
    let want = contents(&m);
    drop(m);

    let r = HierMatrix::<u64>::open(dir.path()).unwrap();
    assert_eq!(contents(&r), want);
    assert_eq!(want, oracle(&updates));
    let rep = r.recovery_report().unwrap();
    assert_eq!(rep.wal_records_replayed, 0, "flush checkpointed everything");
    assert!(!rep.torn_tail_truncated);
    assert!(rep.corrupt_levels.is_empty());
}

/// Regression test for the `Drop` impl: an orderly drop fsyncs the WAL
/// tail, so a reopen after a clean shutdown — even without a flush — must
/// replay the tail *without* reporting a torn frame.
#[test]
fn clean_drop_without_flush_leaves_no_torn_tail() {
    let dir = TempDir::new("clean-drop");
    let updates: Vec<(u64, u64, u64)> = (0..50u64).map(|i| (i % 11, i % 7, 1)).collect();
    let mut m = HierMatrix::<u64>::new_durable(
        DIM,
        DIM,
        small_cuts(),
        // `Never` means only `Drop` stands between the tail and loss.
        DurableConfig::new(dir.path()).fsync(FsyncPolicy::Never),
    )
    .unwrap();
    for &(r, c, v) in &updates {
        m.update(r, c, v).unwrap();
    }
    let want = contents(&m);
    drop(m);

    let r = HierMatrix::<u64>::open(dir.path()).unwrap();
    assert_eq!(contents(&r), want);
    let rep = r.recovery_report().unwrap();
    assert!(!rep.torn_tail_truncated, "clean drop must not tear the WAL");
    assert!(rep.wal_records_replayed > 0, "tail was never checkpointed");
}

#[test]
fn simulated_kill_recovers_every_fsynced_batch() {
    let dir = TempDir::new("kill");
    let updates: Vec<(u64, u64, u64)> = (0..200u64)
        .map(|i| ((i * 3) % 31, (i * 5) % 29, 1 + i % 2))
        .collect();
    let mut m =
        HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
            .unwrap();
    for &(r, c, v) in &updates {
        m.update(r, c, v).unwrap();
    }
    let want = contents(&m);
    // Simulated crash: skip Drop's WAL sync.  Every update was
    // individually fsynced (`EveryBatch`), so nothing may be lost.
    std::mem::forget(m);

    let mut r = HierMatrix::<u64>::open(dir.path()).unwrap();
    assert_eq!(contents(&r), want);
    // The store stays writable: keep ingesting, flush, reopen again.
    r.update(7, 7, 100).unwrap();
    r.flush().unwrap();
    let want2 = contents(&r);
    drop(r);
    let r2 = HierMatrix::<u64>::open(dir.path()).unwrap();
    assert_eq!(contents(&r2), want2);
}

#[test]
fn reopen_is_o_levels_not_o_nnz_reingest() {
    // Structural check on the recovery path: after a flush, reopen must
    // replay zero WAL records whatever the entry count — the levels come
    // back as whole files, not as re-ingested tuples.
    for n in [100u64, 2000] {
        let dir = TempDir::new("olevels");
        let mut m =
            HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
                .unwrap();
        for i in 0..n {
            m.update((i * 11) % 503, (i * 17) % 499, 1).unwrap();
        }
        m.flush().unwrap();
        let want = contents(&m);
        drop(m);
        let r = HierMatrix::<u64>::open(dir.path()).unwrap();
        assert_eq!(r.recovery_report().unwrap().wal_records_replayed, 0);
        assert_eq!(contents(&r), want);
    }
}

#[test]
fn new_durable_refuses_an_initialised_directory() {
    let dir = TempDir::new("refuse");
    let m = HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
        .unwrap();
    drop(m);
    let again =
        HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()));
    assert!(matches!(again, Err(GrbError::InvalidValue(_))));
    // open_or_create takes the reopen path instead.
    let reopened =
        HierMatrix::<u64>::open_or_create(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()));
    assert!(reopened.is_ok());
    // ... but refuses mismatched geometry.
    let wrong = HierMatrix::<u64>::open_or_create(
        DIM,
        DIM,
        HierConfig::from_cuts(vec![16, 256]).unwrap(),
        DurableConfig::new(dir.path()),
    );
    assert!(matches!(wrong, Err(GrbError::InvalidValue(_))));
}

#[test]
fn scalar_type_mismatch_is_typed_corruption() {
    let dir = TempDir::new("tag");
    let m = HierMatrix::<f64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
        .unwrap();
    drop(m);
    match HierMatrix::<u64>::open(dir.path()) {
        Err(GrbError::Corruption { detail }) => {
            assert!(detail.contains("type tag"), "unhelpful detail: {detail}")
        }
        other => panic!("expected Corruption, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Corrupt level files: strict refusal vs. salvage.
// ---------------------------------------------------------------------

#[test]
fn corrupt_level_strict_open_fails_salvage_reports() {
    let dir = TempDir::new("corrupt-lvl");
    let mut m =
        HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
            .unwrap();
    for i in 0..500u64 {
        m.update((i * 7) % 211, (i * 3) % 223, 1).unwrap();
    }
    m.flush().unwrap();
    drop(m);

    // Flip one byte in the middle of a level file's data pages.
    let lvl = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("lvl-"))
        })
        .expect("flush must have produced a level file");
    let mut bytes = std::fs::read(&lvl).unwrap();
    let mid = 4096 + (bytes.len() - 4096) / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&lvl, &bytes).unwrap();

    // Strict (default) open: typed corruption, no panic.
    match HierMatrix::<u64>::open(dir.path()) {
        Err(GrbError::Corruption { .. }) => {}
        other => panic!("expected Corruption, got {other:?}"),
    }

    // Salvage open: succeeds, the bad level loads empty and is reported.
    let r = HierMatrix::<u64>::open_with(DurableConfig::new(dir.path()).salvage(true)).unwrap();
    let rep = r.recovery_report().unwrap().clone();
    assert!(
        !rep.corrupt_levels.is_empty(),
        "salvage must report the loss"
    );
    drop(r);
    // The salvage open rewrites nothing until a checkpoint; reopening
    // strictly still fails, proving salvage did not quietly "repair" the
    // store by dropping data.
    assert!(HierMatrix::<u64>::open(dir.path()).is_err());
}

// ---------------------------------------------------------------------
// Torn-WAL property: a cut at ANY byte recovers an exact update prefix.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wal_cut_at_any_byte_recovers_an_update_prefix(
        updates in update_stream(200),
        cut_ppm in 0u64..1_000_000,
    ) {
        let dir = TempDir::new("wal-cut");
        let mut m = HierMatrix::<u64>::new_durable(
            DIM, DIM, small_cuts(), DurableConfig::new(dir.path()),
        ).unwrap();
        for &(r, c, v) in &updates {
            m.update(r, c, v).unwrap();
        }
        std::mem::forget(m);

        // Cut the live WAL at an arbitrary point past its header (the
        // header is fsynced before the manifest ever references the file,
        // so a referenced WAL always has one).
        let wal = the_wal_file(dir.path());
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = 16 + (len.saturating_sub(16)) * cut_ppm / 1_000_000;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // Reopen must succeed and equal the oracle of SOME update prefix:
        // the checkpointed levels plus however many whole frames survived
        // the cut.  Anything else — a partial frame applied, an entry
        // invented, a fsynced checkpoint lost — is a bug.
        let r = HierMatrix::<u64>::open(dir.path()).unwrap();
        let got = contents(&r);
        let matched = (0..=updates.len())
            .map(|k| oracle(&updates[..k]))
            .any(|want| want == got);
        prop_assert!(matched, "recovered state is not any update prefix");
    }
}

// ---------------------------------------------------------------------
// Sharded engine: durable shards round-trip through a full engine drop.
// ---------------------------------------------------------------------

#[test]
fn sharded_durable_engine_reopens_every_shard() {
    let dir = TempDir::new("sharded");
    let updates: Vec<(u64, u64, u64)> = (0..800u64)
        .map(|i| ((i * 2_654_435_761) % DIM, (i * 40_503) % DIM, 1 + i % 4))
        .collect();
    let mk = || {
        ShardedHierMatrix::<u64>::new_durable(
            DIM,
            DIM,
            small_cuts(),
            ShardedConfig::with_shards(3),
            DurableConfig::new(dir.path()),
        )
    };
    let mut e = mk().unwrap();
    assert!(e.is_durable());
    assert!(
        e.shard_recovery_reports().iter().all(Option::is_none),
        "fresh stores have no recovery to report"
    );
    for &(r, c, v) in &updates {
        e.update(r, c, v).unwrap();
    }
    e.flush().unwrap();
    let (wr, wc, wv) = e.materialize().unwrap().extract_tuples();
    drop(e);

    let mut e2 = mk().unwrap();
    let reports = e2.shard_recovery_reports();
    assert_eq!(reports.len(), 3);
    assert!(
        reports.iter().all(Option::is_some),
        "every shard was reopened, not recreated"
    );
    let (gr, gc, gv) = e2.materialize().unwrap().extract_tuples();
    assert_eq!((wr, wc, wv), (gr, gc, gv));
}

/// The producer-side weight counter survives a reopen: a reopened engine
/// reports the weight its shards recovered, not zero.
#[test]
fn sharded_durable_reopen_keeps_the_weight_counter() {
    let dir = TempDir::new("sharded-weight");
    let mk = || {
        ShardedHierMatrix::<u64>::new_durable(
            DIM,
            DIM,
            small_cuts(),
            ShardedConfig::with_shards(2),
            DurableConfig::new(dir.path()),
        )
    };
    let entries_sum = |e: &mut ShardedHierMatrix<u64>| {
        let mut sum = 0.0;
        e.try_read_entries(&mut |_, _, v| sum += v as f64).unwrap();
        sum
    };
    let mut e = mk().unwrap();
    let rows: Vec<u64> = (0..600u64).map(|i| (i * 2_654_435_761) % DIM).collect();
    let cols: Vec<u64> = (0..600u64).map(|i| i % 37).collect();
    let vals: Vec<u64> = (0..600u64).map(|i| 1 + i % 5).collect();
    // Half checkpointed by a flush, half left in the WAL for replay.
    e.update_batch(&rows[..300], &cols[..300], &vals[..300])
        .unwrap();
    e.flush().unwrap();
    e.update_batch(&rows[300..], &cols[300..], &vals[300..])
        .unwrap();
    let before = e.total_weight_f64();
    assert_eq!(before, vals.iter().sum::<u64>() as f64);
    assert_eq!(entries_sum(&mut e), before);
    drop(e);

    let mut e2 = mk().unwrap();
    assert!(e2.shard_recovery_reports().iter().all(Option::is_some));
    assert_eq!(e2.total_weight_f64(), before);
    assert_eq!(entries_sum(&mut e2), before);
    // Ingest after the reopen adds on top of the recovered weight.
    e2.update(1, 1, 10).unwrap();
    assert_eq!(e2.total_weight_f64(), before + 10.0);
}

// ---------------------------------------------------------------------
// Failpoint-armed crash injection (process-global registry: serialised).
// ---------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod failpoint_crashes {
    use super::*;
    use hyperstream::hier::failpoint::{self, FailAction};

    /// Global test-order lock: held for the duration of any test that
    /// arms failpoints; disarms everything on release, even on panic.
    static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    struct Exclusive(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl Drop for Exclusive {
        fn drop(&mut self) {
            failpoint::disarm_all();
        }
    }

    fn exclusive() -> Exclusive {
        let guard = REGISTRY_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        failpoint::disarm_all();
        Exclusive(guard)
    }

    /// Every fallible persistence site, in WAL-append → checkpoint order.
    const SITES: [&str; 6] = [
        "persist-wal-append",
        "persist-partial-write",
        "persist-pre-fsync",
        "persist-post-fsync",
        "persist-mid-rename",
        "persist-manifest-swap",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(36))]

        // The tentpole property: crash (injected error + simulated
        // kill) at EVERY persistence site, on a random schedule, and the
        // reopened store must equal the acknowledged prefix — plus at
        // most the single in-flight update whose durability the crash
        // interrupted mid-acknowledgement.
        #[test]
        fn crash_at_any_persistence_site_recovers_acked_prefix(
            site in 0usize..6,
            nth in 1u64..20,
            updates in update_stream(160),
        ) {
            let _x = exclusive();
            let dir = TempDir::new("site-crash");
            let mut m = HierMatrix::<u64>::new_durable(
                DIM, DIM, small_cuts(), DurableConfig::new(dir.path()),
            ).unwrap();
            failpoint::arm(SITES[site], nth, FailAction::Error);
            let mut acked = 0usize;
            let mut failed = false;
            for &(r, c, v) in &updates {
                match m.update(r, c, v) {
                    Ok(()) => acked += 1,
                    Err(_) => { failed = true; break; }
                }
            }
            failpoint::disarm_all();
            std::mem::forget(m);

            // Reopen must ALWAYS succeed, whatever torn state the
            // injected failure left behind.
            let mut r = HierMatrix::<u64>::open(dir.path()).unwrap();
            let got = contents(&r);
            // Zero silent loss: every acknowledged update is present.
            // The failed update may or may not have become durable before
            // its error surfaced (e.g. an fsync that happened but whose
            // site then reported failure) — both outcomes are honest.
            let lo = oracle(&updates[..acked]);
            let hi = oracle(&updates[..(acked + usize::from(failed)).min(updates.len())]);
            prop_assert!(
                got == lo || got == hi,
                "site {} nth {}: recovered neither the acked prefix ({}) nor acked+1",
                SITES[site], nth, acked,
            );

            // The reopened store must be fully serviceable.
            r.update(3, 3, 7).unwrap();
            r.flush().unwrap();
            let want2 = contents(&r);
            drop(r);
            let r2 = HierMatrix::<u64>::open(dir.path()).unwrap();
            prop_assert_eq!(contents(&r2), want2);
        }
    }

    /// A WAL-append failure must reject the update *atomically*: the
    /// in-memory matrix stays on the pre-update state (log-before-apply),
    /// and the store keeps working once the fault clears.
    #[test]
    fn wal_append_failure_rejects_update_atomically() {
        let _x = exclusive();
        let dir = TempDir::new("append-fail");
        let mut m =
            HierMatrix::<u64>::new_durable(DIM, DIM, small_cuts(), DurableConfig::new(dir.path()))
                .unwrap();
        m.update(1, 1, 10).unwrap();
        let before = contents(&m);
        failpoint::arm("persist-wal-append", 1, FailAction::Error);
        assert!(matches!(m.update(2, 2, 20), Err(GrbError::Injected(_))));
        assert_eq!(contents(&m), before, "rejected update must not apply");
        failpoint::disarm_all();
        m.update(3, 3, 30).unwrap();
        m.flush().unwrap();
        let want = contents(&m);
        drop(m);
        let r = HierMatrix::<u64>::open(dir.path()).unwrap();
        assert_eq!(contents(&r), want);
        assert!(!want.contains_key(&(2, 2)));
    }

    /// Durable sharded engine: a worker killed mid-cascade respawns from
    /// its on-disk store — `ShardRecovery::disk` reports the reopen, the
    /// checkpointed prefix survives, and the engine returns to healthy.
    #[test]
    fn durable_engine_respawns_lost_shard_from_disk() {
        let _x = exclusive();
        quiet_failpoint_panics();
        let dir = TempDir::new("respawn");
        let mut e = ShardedHierMatrix::<u64>::new_durable(
            DIM,
            DIM,
            small_cuts(),
            ShardedConfig::with_shards(2),
            DurableConfig::new(dir.path()),
        )
        .unwrap();
        for i in 0..400u64 {
            e.update((i * 2_654_435_761) % DIM, i % 50, 1).unwrap();
        }
        e.flush().unwrap();
        let before = {
            let (r, c, v) = e.materialize().unwrap().extract_tuples();
            let mut m = BTreeMap::new();
            for i in 0..r.len() {
                *m.entry((r[i], c[i])).or_insert(0u64) += v[i];
            }
            m
        };

        // Kill whichever worker cascades next, then drive until the
        // engine notices the loss.
        failpoint::arm("hier-cascade", 1, FailAction::Panic);
        let mut saw_loss = false;
        for i in 0..2000u64 {
            let r = e.update((i * 2_654_435_761) % DIM, i % 50, 1);
            if r.is_err() || e.flush().is_err() {
                saw_loss = true;
                break;
            }
        }
        assert!(saw_loss, "the armed cascade panic never killed a worker");
        failpoint::disarm_all();

        let lost = match e.health() {
            EngineHealth::Degraded { lost } => lost,
            h => panic!("expected a degraded engine, got {h:?}"),
        };
        for i in lost {
            let rec = e.respawn_shard(i).unwrap();
            assert_eq!(rec.shard, i);
            assert_eq!(
                rec.replayed_tuples, 0,
                "durable respawn must not double-apply"
            );
            let disk = rec.disk.expect("durable respawn reports the disk reopen");
            assert!(disk.levels_loaded > 0 || disk.wal_records_replayed > 0);
        }
        assert_eq!(e.health(), EngineHealth::Healthy);
        e.flush().unwrap();
        let after = {
            let (r, c, v) = e.materialize().unwrap().extract_tuples();
            let mut m = BTreeMap::new();
            for i in 0..r.len() {
                *m.entry((r[i], c[i])).or_insert(0u64) += v[i];
            }
            m
        };
        // The checkpointed prefix is a pointwise lower bound: `⊕` only
        // accumulates, so recovery may add post-checkpoint updates but can
        // never shrink below what `flush` made durable.
        for (k, v) in &before {
            assert!(
                after.get(k).is_some_and(|got| got >= v),
                "entry {k:?} shrank below the checkpointed value"
            );
        }
    }

    /// Injected worker panics are the *point* of this suite; silence
    /// their default backtrace spew while leaving other panics loud.
    fn quiet_failpoint_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.contains("failpoint") {
                    previous(info);
                }
            }));
        });
    }
}
