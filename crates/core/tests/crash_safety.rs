//! Crash-safety suite for the snapshot store and the client backoff
//! schedule.
//!
//! The recovery contract under test (`docs/ARCHITECTURE.md` §7): a crash
//! at *any* byte boundary of a snapshot write leaves a store that, once
//! reopened, serves **exactly the prefix of fully published snapshots** —
//! interrupted temp files are swept, torn or corrupted `*.snap` files are
//! quarantined (renamed `*.snap.quarantined.N`, kept for inspection, never
//! served), and the affected instance costs one re-preparation, never a
//! wrong answer. The crash-point test below does not sample: it plants
//! the debris of a crash after *every* prefix length of a snapshot file,
//! under both the temp name and the published name.
//!
//! The backoff property test pins the client retry schedule
//! ([`backoff_delay`]): deterministic per seed, monotone nondecreasing in
//! the attempt number, never above the cap, never below `min(base, cap)`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use lsc_automata::families::blowup_nfa;
use lsc_core::engine::{EngineConfig, PreparedInstance, ShardedEngine, SnapshotStore};
use lsc_core::serve::client::backoff_delay;
use lsc_core::serve::json::{self, Json};
use lsc_core::serve::{ServeConfig, Server};
use proptest::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsc-crash-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small instance with its super-linear artifacts materialized, so the
/// snapshot payload exercises every section of the codec.
fn instance(chains: usize, length: usize) -> Arc<PreparedInstance> {
    let inst = Arc::new(PreparedInstance::new(blowup_nfa(chains), length));
    inst.count_exact().unwrap();
    inst
}

/// The quarantine name the sweep renames a given snapshot to. Numbers
/// start at the first free `N`; every check here deletes the artifact
/// before the next corruption, so the sweep always lands on `.1`.
fn quarantine_path(snap: &std::path::Path) -> PathBuf {
    PathBuf::from(format!("{}.quarantined.1", snap.display()))
}

/// The headline pin: crash debris at **every byte boundary** of a
/// snapshot write recovers to exactly the published prefix.
///
/// Instance A is fully published. For every `k` in `0..=len(B)` the test
/// plants the two kinds of debris a crash at byte `k` can leave:
///
/// * `B`'s first `k` bytes under the **temp** name (the writer died
///   before the rename) — the sweep deletes it, the warm pass serves
///   exactly `{A}`;
/// * `B`'s first `k` bytes under the **published** name (torn after an
///   unclean publish) — quarantined for every `k < len(B)`, and loaded
///   only at `k == len(B)`, the one boundary where the file is whole.
#[test]
fn a_crash_at_every_byte_boundary_recovers_to_the_published_prefix() {
    let dir = temp_dir("points");
    let a = instance(2, 5);
    let b = instance(3, 6);
    let store = SnapshotStore::open(&dir).unwrap();
    store.save(&a).unwrap();
    // Obtain B's exact on-disk bytes by publishing it once and unpublishing.
    store.save(&b).unwrap();
    let b_path = store.path_for(b.fingerprint());
    let b_bytes = std::fs::read(&b_path).unwrap();
    std::fs::remove_file(&b_path).unwrap();
    let b_tmp = dir.join(format!("{:016x}.tmp", b.fingerprint()));
    drop(store);

    for k in 0..=b_bytes.len() {
        // Crash mid-temp-file: the rename never happened, so no prefix of
        // B — not even the complete bytes — was ever published.
        std::fs::write(&b_tmp, &b_bytes[..k]).unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        let sweep = store.sweep_report();
        assert_eq!(
            (sweep.tmp_removed, sweep.quarantined),
            (1, 0),
            "byte {k}: tmp debris mishandled"
        );
        assert!(!b_tmp.exists(), "byte {k}: tmp debris survived the sweep");
        let engine = ShardedEngine::with_defaults();
        let warm = store.warm(&engine);
        assert_eq!(
            (warm.loaded, warm.rejected),
            (1, 0),
            "byte {k}: tmp crash must recover to exactly {{A}}"
        );
        assert!(engine.prepare_nfa(a.nfa_arc(), 5).was_cached());

        // Crash leaving a torn file under the published name.
        std::fs::write(&b_path, &b_bytes[..k]).unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        let engine = ShardedEngine::with_defaults();
        let warm = store.warm(&engine);
        if k == b_bytes.len() {
            // The one boundary where the file is whole: B serves.
            assert_eq!(store.sweep_report().quarantined, 0);
            assert_eq!((warm.loaded, warm.rejected), (2, 0));
            assert!(engine.prepare_nfa(b.nfa_arc(), 6).was_cached());
            std::fs::remove_file(&b_path).unwrap();
        } else {
            assert_eq!(
                store.sweep_report().quarantined,
                1,
                "byte {k}: torn snapshot not quarantined"
            );
            assert_eq!(
                (warm.loaded, warm.rejected),
                (1, 0),
                "byte {k}: torn crash must recover to exactly {{A}}"
            );
            let q = quarantine_path(&b_path);
            assert!(q.exists(), "byte {k}: quarantined bytes discarded");
            std::fs::remove_file(&q).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every way the corruption matrix breaks a good snapshot file.
fn corruptions(good: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let flipped = |at: usize| {
        let mut bytes = good.to_vec();
        bytes[at] ^= 0xFF;
        bytes
    };
    vec![
        ("empty file", Vec::new()),
        ("foreign bytes", b"not a snapshot at all".to_vec()),
        ("truncated header", good[..12].to_vec()),
        ("truncated payload", good[..good.len() - 1].to_vec()),
        ("flipped magic", flipped(0)),
        ("flipped version", flipped(9)),
        ("flipped fingerprint", flipped(14)),
        ("flipped checksum", flipped(30)),
        ("flipped payload", flipped(good.len() / 2)),
        ("flipped last byte", flipped(good.len() - 1)),
        (
            "trailing junk",
            good.iter().chain(b"junk").copied().collect(),
        ),
    ]
}

/// The corruption matrix, through the full serving path: for every
/// corruption mode, a restarted server quarantines the file (visible in
/// its stats), recompiles the instance instead of serving corrupt data,
/// and keeps the quarantined bytes on disk.
#[test]
fn the_corruption_matrix_quarantines_and_recompiles_never_serves() {
    let dir = temp_dir("matrix");
    let config = || ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    // Publish one real snapshot through a serving process.
    {
        let server = Server::new(config()).unwrap();
        let conn = server.open_conn();
        let prepared =
            server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#);
        assert!(prepared.text.contains(r#""ok":true"#));
        assert!(server.stats().snapshots_saved >= 1);
        server.shutdown();
    }
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .expect("one snapshot saved")
        .path();
    let good = std::fs::read(&file).unwrap();

    for (mode, bytes) in corruptions(&good) {
        std::fs::write(&file, &bytes).unwrap();
        let server = Server::new(config()).unwrap();
        assert_eq!(
            server.stats().snapshots_quarantined,
            1,
            "{mode}: not quarantined"
        );
        assert_eq!(
            (server.warm_report().loaded, server.warm_report().rejected),
            (0, 0),
            "{mode}: the warm pass saw a file the sweep should have removed"
        );
        assert!(!file.exists(), "{mode}: corrupt file left in serving path");
        let q = quarantine_path(&file);
        assert!(q.exists(), "{mode}: quarantined bytes discarded");
        // The instance recompiles — a cache miss, never a corrupt answer.
        let conn = server.open_conn();
        let prepared =
            server.handle_line(conn, r#"{"op":"prepare","regex":"(0|1)*11","length":6}"#);
        let prepared = json::parse(&prepared.text).unwrap();
        assert_eq!(
            prepared.get("cached"),
            Some(&Json::Bool(false)),
            "{mode}: served without recompiling"
        );
        assert_eq!(prepared.get("length").and_then(Json::as_u64), Some(6));
        server.shutdown();
        std::fs::remove_file(&q).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The corruption matrix against a *running* server: the snapshot of an
/// evicted instance is broken on disk, and the next `prepare` reads it
/// through. The file must be quarantined (counted, kept on disk), the
/// instance recompiled with a correct answer, and a fresh, valid snapshot
/// published in its place.
#[test]
fn a_corrupt_snapshot_found_by_a_read_through_is_quarantined_and_republished() {
    let dir = temp_dir("read-through");
    // One shard with a 1-byte cap: every insert evicts all older entries.
    let server = Server::new(ServeConfig {
        engine: EngineConfig {
            cache_bytes: 1,
            ..EngineConfig::default()
        },
        shards: 1,
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let conn = server.open_conn();
    let count = |pattern: &str, length: usize| {
        let prepared = server.handle_line(
            conn,
            &format!(r#"{{"op":"prepare","regex":"{pattern}","length":{length}}}"#),
        );
        let prepared = json::parse(&prepared.text).unwrap();
        let session = prepared.get("session").and_then(Json::as_str).unwrap();
        let count = server.handle_line(
            conn,
            &format!(r#"{{"op":"count_exact","session":"{session}"}}"#),
        );
        let count = json::parse(&count.text).unwrap();
        server.handle_line(conn, &format!(r#"{{"op":"close","session":"{session}"}}"#));
        count
            .get("count")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    // Words of length 6 ending in 11: 2^4.
    assert_eq!(count("(0|1)*11", 6), "16");
    let store = SnapshotStore::open(&dir).unwrap();
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .expect("one snapshot saved")
        .path();
    let good = std::fs::read(&file).unwrap();

    for (mode, bytes) in corruptions(&good) {
        // Evict the instance, then break its file under the running server.
        count("(0|1)*0", 5);
        std::fs::write(&file, &bytes).unwrap();
        let before = server.stats();
        assert_eq!(count("(0|1)*11", 6), "16", "{mode}: wrong answer");
        let after = server.stats();
        assert_eq!(
            after.snapshots_quarantined,
            before.snapshots_quarantined + 1,
            "{mode}: not quarantined"
        );
        assert_eq!(
            after.snapshot_reads, before.snapshot_reads,
            "{mode}: corrupt file served"
        );
        let q = quarantine_path(&file);
        assert_eq!(std::fs::read(&q).unwrap(), bytes, "{mode}: bytes not kept");
        assert!(
            after.snapshots_saved > before.snapshots_saved,
            "{mode}: nothing republished"
        );
        assert!(
            store.load(&file).is_ok(),
            "{mode}: the republished snapshot is not valid"
        );
        std::fs::remove_file(&q).unwrap();
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The client backoff schedule is a pure function of its inputs:
    /// deterministic per seed, monotone nondecreasing across attempts,
    /// never above the cap, never below `min(base, cap)`, and pinned at
    /// the cap once the exponential passes it.
    #[test]
    fn backoff_schedule_is_monotone_capped_and_deterministic(
        seed in any::<u64>(),
        base_ms in 1u64..50,
        cap_ms in 1u64..2000,
    ) {
        let base = Duration::from_millis(base_ms);
        let cap = Duration::from_millis(cap_ms);
        let floor = base.min(cap);
        let schedule: Vec<Duration> =
            (0..16).map(|a| backoff_delay(base, cap, seed, a)).collect();
        let replay: Vec<Duration> =
            (0..16).map(|a| backoff_delay(base, cap, seed, a)).collect();
        prop_assert_eq!(&schedule, &replay, "schedule must be a pure function of the seed");
        for (attempt, pair) in schedule.windows(2).enumerate() {
            prop_assert!(
                pair[0] <= pair[1],
                "attempt {} sleeps longer than attempt {}: {:?} > {:?}",
                attempt, attempt + 1, pair[0], pair[1]
            );
        }
        for (attempt, delay) in schedule.iter().enumerate() {
            prop_assert!(*delay <= cap, "attempt {attempt} exceeds the cap: {delay:?}");
            prop_assert!(*delay >= floor, "attempt {attempt} undershoots the base: {delay:?}");
        }
        // 2^15 * 1ms > 2s >= every cap in range: the tail is pinned.
        prop_assert_eq!(schedule[15], cap, "the schedule must saturate at the cap");
    }

    /// The first-attempt delay always lands inside the jitter band
    /// `[base, 1.5 * base)`.
    #[test]
    fn backoff_first_delay_stays_in_the_jitter_band(seed in any::<u64>()) {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(10);
        let d = backoff_delay(base, cap, seed, 0);
        prop_assert!(d >= base && d < base + base / 2, "jitter out of band: {d:?}");
    }
}

/// Different seeds genuinely jitter: a reconnecting fleet with distinct
/// seeds does not thunder back in lockstep.
#[test]
fn backoff_jitter_desynchronizes_distinct_seeds() {
    let base = Duration::from_millis(100);
    let cap = Duration::from_secs(10);
    let distinct: std::collections::HashSet<Duration> = (0..64u64)
        .map(|seed| backoff_delay(base, cap, seed, 0))
        .collect();
    assert!(
        distinct.len() > 32,
        "64 seeds collapsed to {} first delays",
        distinct.len()
    );
}
