//! On-disk persistence of [`PreparedInstance`] artifacts.
//!
//! A serving process accumulates compiled instances in the engine's LRU
//! cache; a restart used to throw that work away and recompile every
//! instance on first touch. [`SnapshotStore`] closes the loop: the serving
//! layer saves each instance's expensive-to-recompute parts to a
//! fingerprint-keyed file, and a restarted engine warms its cache from the
//! directory instead of recompiling ([`SnapshotStore::warm`]).
//!
//! **What is persisted.** The automaton (in the `lsc_automata::io` text
//! format), the witness length, and whichever of the super-linear artifacts
//! have been materialized: the ambiguity classification (a product
//! construction), the Weber–Seidl degree, the completion-count table (the
//! big-integer dynamic program), the determinized word count, and — since
//! format version 2 — the cached FPRAS sketch behind its explicit
//! `(params, seed)` caching key, so a warm restart serves approximate
//! counts and Las-Vegas samples without re-running Algorithm 5. The CSR
//! unrolled DAG is *not* persisted: it is a deterministic rebuild from
//! `(N, n)` in `O(|V| + |E| + n·⌈m/64⌉)` after the forward sweep, done
//! eagerly at load time ([`PreparedInstance::from_snapshot_parts`]).
//! Neither are the sketch samples' reach sets: the decoder rebuilds all of
//! them in one pass over the decoded sample words in lexicographic order,
//! so a prefix shared by many samples is stepped once (each set equals
//! `reach_of(N, w)`). Every persisted value is a pure
//! function of the instance (plus, for the sketch, its explicit build
//! seed), so warm answers are bit-identical to cold ones.
//!
//! **File format** (`<fingerprint:016x>.snap`, all integers little-endian;
//! the normative spec lives in `docs/ARCHITECTURE.md` §5):
//!
//! ```text
//! magic      8 bytes   "LSCSNAP1"
//! version    u32       2 (files with version 1 — no sketch section — still load)
//! fingerprint u64      PreparedInstance::fingerprint()
//! payload_len u64
//! checksum   u64       FNV-1a(64) over the payload bytes
//! payload    ...       see `encode_payload`
//! ```
//!
//! Loading verifies the magic, the version, the checksum, the payload
//! framing, and that the decoded automaton/length reproduce the header
//! fingerprint — a flipped byte anywhere in the file is rejected with
//! [`SnapshotError::Corrupt`], never served. Writes go through a temp file
//! plus an atomic rename, so a crash mid-save cannot leave a torn snapshot
//! under the final name.
//!
//! **Crash safety.** A publish is durable, not just atomic: the temp file
//! is `fsync`ed before the rename and the directory is `fsync`ed after it,
//! so a machine crash cannot reorder the rename ahead of the data. Opening
//! a store sweeps the debris earlier crashes can leave: stale `*.tmp`
//! files (a writer died mid-save) are deleted, and `*.snap` files that
//! fail validation are *quarantined* — renamed to the first free
//! `*.snap.quarantined.N`, out of the serving path but on disk for
//! inspection (numbered, so repeated corruptions of one fingerprint keep
//! every artifact) — instead of crashing
//! the startup or being served. The sweep's findings are reported in
//! [`SweepReport`] (surfaced by the server's `health`/`stats` verbs). The
//! net recovery contract: after a crash at *any* write boundary, a
//! restarted store serves exactly the prefix of fully published snapshots,
//! and a corrupted file costs one re-preparation, never a wrong answer.
//!
//! For tests, every save consults an optional
//! [`FaultPlan`](crate::serve::faults::FaultPlan): planned disk errors
//! fail the save cleanly and planned torn writes crash it mid-temp-file —
//! exactly the debris the sweep is specified against.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use lsc_arith::{BigFloat, BigNat};
use lsc_automata::io as nfa_io;
use lsc_automata::ops::AmbiguityDegree;
use lsc_automata::{Nfa, StateSet, Symbol, Word};

use crate::engine::cache::InstanceKey;
use crate::engine::prepared::PreparedInstance;
use crate::engine::shard::ShardedEngine;
use crate::fpras::{reach_all, FprasParams, FprasState, SampleEntry, VertexData};
use crate::serve::faults::{Fault, FaultPlan, FaultSite};

const MAGIC: &[u8; 8] = b"LSCSNAP1";
const VERSION: u32 = 2;
/// The oldest format version `decode` still accepts: a v1 file is a v2 file
/// that can never carry a sketch section.
const MIN_VERSION: u32 = 1;
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// Why a snapshot failed to save or load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file exists but is not a valid snapshot (bad magic, unknown
    /// version, checksum mismatch, truncated or trailing payload, an
    /// automaton that does not parse, or a fingerprint that does not match
    /// the decoded instance).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(reason) => write!(f, "corrupt snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a over a byte slice — the snapshot checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What [`SnapshotStore::warm`] did: how many snapshots entered the engine
/// cache, and how many files were rejected as corrupt (rejected files are
/// left in place for inspection, never served).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmReport {
    /// Instances restored into the engine cache.
    pub loaded: usize,
    /// Snapshot files that failed validation.
    pub rejected: usize,
}

/// What the crash-recovery sweep at [`SnapshotStore::open`] found: debris
/// from interrupted writers (stale temp files, deleted) and snapshots that
/// failed validation (quarantined as `*.snap.quarantined.N`, never served).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Stale `*.tmp` files deleted (a writer crashed mid-save).
    pub tmp_removed: usize,
    /// Corrupt or truncated `*.snap` files renamed out of the serving
    /// path (`*.snap.quarantined.N` — numbered so repeated corruptions of
    /// one fingerprint never overwrite an earlier artifact).
    pub quarantined: usize,
}

/// What [`SnapshotStore::read_through`] found for one requested instance.
pub enum ReadThrough {
    /// A valid snapshot of exactly the requested instance.
    Loaded(Arc<PreparedInstance>),
    /// Nothing to serve: no file (the common case), an unreadable one, or
    /// a valid snapshot of a different instance whose 64-bit fingerprint
    /// collides with the request's.
    Missing,
    /// The file failed validation and was renamed to
    /// `*.snap.quarantined.N`, exactly as the open-time sweep does.
    Quarantined,
}

/// A directory of fingerprint-keyed [`PreparedInstance`] snapshots.
///
/// The store is safe to share across threads: saves are atomic
/// (temp-file-plus-rename) and idempotent (an unchanged artifact is not
/// rewritten), and loads never trust file contents — everything is
/// checksummed and re-validated against the decoded instance.
///
/// ```
/// use std::sync::Arc;
/// use lsc_automata::families::blowup_nfa;
/// use lsc_core::engine::{PreparedInstance, ShardedEngine, SnapshotStore};
///
/// let dir = std::env::temp_dir().join("lsc-snapshot-doctest");
/// let store = SnapshotStore::open(&dir).unwrap();
///
/// // First process: compile, query, persist.
/// let inst = Arc::new(PreparedInstance::new(blowup_nfa(3), 8));
/// let count = inst.count_exact().unwrap();
/// store.save(&inst).unwrap();
///
/// // Restarted process: warm the cache from disk — no recompilation.
/// let engine = ShardedEngine::with_defaults();
/// let report = store.warm(&engine);
/// assert!(report.loaded >= 1);
/// let handle = engine.prepare_nfa(inst.nfa_arc(), 8);
/// assert!(handle.was_cached());
/// assert_eq!(handle.instance().count_exact().unwrap(), count);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct SnapshotStore {
    dir: PathBuf,
    /// Checksum of the last payload saved per fingerprint, so repeated saves
    /// of an unchanged artifact skip the filesystem entirely.
    saved: Mutex<HashMap<u64, u64>>,
    /// What the crash-recovery sweep found at open time.
    sweep: SweepReport,
    /// Planned fault injection for saves (`None` in production — a single
    /// branch, no other cost).
    faults: Option<Arc<FaultPlan>>,
}

impl SnapshotStore {
    /// Opens (creating if necessary) a snapshot directory and runs the
    /// crash-recovery sweep: stale `*.tmp` files are deleted and corrupt
    /// `*.snap` files are quarantined ([`SnapshotStore::sweep_report`]).
    ///
    /// # Errors
    /// Propagates the directory-creation failure (the sweep itself is
    /// best-effort: an unreadable entry is skipped, not fatal).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<SnapshotStore> {
        SnapshotStore::open_with_faults(dir, None)
    }

    /// [`SnapshotStore::open`] with a fault plan: planned
    /// [`Fault::DiskError`]s fail saves cleanly and planned
    /// [`Fault::TornWrite`]s crash them mid-temp-file. Production callers
    /// pass `None` (what `open` does).
    ///
    /// # Errors
    /// As [`SnapshotStore::open`].
    pub fn open_with_faults(
        dir: impl Into<PathBuf>,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<SnapshotStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let sweep = sweep_debris(&dir);
        Ok(SnapshotStore {
            dir,
            saved: Mutex::new(HashMap::new()),
            sweep,
            faults,
        })
    }

    /// The directory the store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the open-time crash-recovery sweep found.
    pub fn sweep_report(&self) -> SweepReport {
        self.sweep
    }

    /// The file a given instance fingerprint persists to.
    pub fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.snap"))
    }

    /// Persists an instance's current snapshot parts. Returns `true` if a
    /// file was written, `false` if an identical snapshot was already on
    /// disk (saving is cheap to call after every query — unchanged artifacts
    /// are detected by checksum and skipped).
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn save(&self, inst: &PreparedInstance) -> Result<bool, SnapshotError> {
        let payload = encode_payload(inst);
        let checksum = fnv64(&payload);
        let fingerprint = inst.fingerprint();
        if self
            .saved
            .lock()
            .expect("snapshot index poisoned")
            .get(&fingerprint)
            == Some(&checksum)
        {
            return Ok(false);
        }
        let record = |this: &Self| {
            this.saved
                .lock()
                .expect("snapshot index poisoned")
                .insert(fingerprint, checksum);
        };
        let path = self.path_for(fingerprint);
        // An identical file from a previous process also counts as saved.
        // lsc-analyze: allow(unrouted-io) reason="pre-publish dedup read; the write path below decides SnapshotWrite faults, and a failed read just re-publishes"
        if let Ok(existing) = std::fs::read(&path) {
            if existing.len() == HEADER_LEN + payload.len()
                && existing[28..36] == checksum.to_le_bytes()
            {
                record(self);
                return Ok(false);
            }
        }
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&fingerprint.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes.extend_from_slice(&payload);
        let tmp = self.dir.join(format!("{fingerprint:016x}.tmp"));
        self.publish(&tmp, &path, &bytes)?;
        // Only a durable file marks the checksum as saved — a failed write
        // above must be retried by the next save, not remembered as done.
        record(self);
        Ok(true)
    }

    /// The durable publish: write `bytes` to `tmp`, `fsync` the file,
    /// rename over `path`, `fsync` the directory — with planned faults
    /// injected ahead of (disk error) or inside (torn write) the temp
    /// write. A torn write deliberately leaves the partial `tmp` behind:
    /// that is the debris the open-time sweep is specified against.
    fn publish(&self, tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        if let Some(plan) = &self.faults {
            if let Some(planned) = plan.decide(FaultSite::SnapshotWrite) {
                match planned.fault {
                    Fault::DiskError => {
                        return Err(SnapshotError::Io(std::io::Error::other(
                            "injected: snapshot disk write error",
                        )));
                    }
                    Fault::TornWrite => {
                        // Crash mid-temp-file: a strict prefix lands on
                        // disk under the `.tmp` name, the rename never
                        // happens.
                        let keep = (planned.aux as usize) % bytes.len().max(1);
                        let mut file = std::fs::File::create(tmp)?;
                        file.write_all(&bytes[..keep])?;
                        let _ = file.sync_all();
                        return Err(SnapshotError::Io(std::io::Error::other(
                            "injected: snapshot writer crashed mid-file",
                        )));
                    }
                    _ => {}
                }
            }
        }
        let mut file = std::fs::File::create(tmp)?;
        file.write_all(bytes)?;
        // Data must be durable before the rename can expose it, and the
        // rename must be durable before the save is reported done.
        file.sync_all()?;
        drop(file);
        std::fs::rename(tmp, path)?;
        fsync_dir(&self.dir)?;
        Ok(())
    }

    /// Loads and validates one snapshot file.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] if the file cannot be read,
    /// [`SnapshotError::Corrupt`] if any validation step fails.
    pub fn load(&self, path: &Path) -> Result<Arc<PreparedInstance>, SnapshotError> {
        // lsc-analyze: allow(unrouted-io) reason="read-side recovery path; pinned by the crash-safety corruption matrix rather than the write-side fault plan"
        Ok(decode(&std::fs::read(path)?)?.0)
    }

    /// Loads the snapshot for one fingerprint, if present.
    ///
    /// # Errors
    /// As [`SnapshotStore::load`]; a missing file is an [`SnapshotError::Io`].
    pub fn load_fingerprint(
        &self,
        fingerprint: u64,
    ) -> Result<Arc<PreparedInstance>, SnapshotError> {
        self.load(&self.path_for(fingerprint))
    }

    /// The engine-miss read-through: loads the snapshot of `(nfa, length)`
    /// if the store holds a valid one, so a re-prepared instance comes back
    /// with its classification, tables and FPRAS sketch instead of being
    /// rebuilt. A file is served only when its decoded instance has the
    /// request's full cache key (fingerprint, state and transition counts,
    /// length), so a fingerprint collision is never served. A file that
    /// fails validation is quarantined and forgotten by the save index, so
    /// the caller's cold rebuild republishes a fresh snapshot. A loaded
    /// file seeds the save index, so re-saving it writes nothing.
    ///
    /// A concurrent save of the same fingerprint can race a quarantine and
    /// lose its fresh file to the rename; that costs one more rebuild,
    /// never a wrong answer.
    pub fn read_through(&self, nfa: &Nfa, length: usize) -> ReadThrough {
        let fingerprint = PreparedInstance::instance_fingerprint(nfa, length);
        let path = self.path_for(fingerprint);
        // lsc-analyze: allow(unrouted-io) reason="read-side miss path; a failed read is a cold compile, and the corruption matrix pins the quarantine branch"
        let Ok(bytes) = std::fs::read(&path) else {
            return ReadThrough::Missing;
        };
        match decode(&bytes) {
            Ok((inst, checksum)) => {
                if InstanceKey::of(inst.nfa_arc(), inst.length()) != InstanceKey::of(nfa, length) {
                    return ReadThrough::Missing;
                }
                self.saved
                    .lock()
                    .expect("snapshot index poisoned")
                    .insert(fingerprint, checksum);
                ReadThrough::Loaded(inst)
            }
            Err(_) => {
                self.saved
                    .lock()
                    .expect("snapshot index poisoned")
                    .remove(&fingerprint);
                // lsc-analyze: allow(unrouted-io) reason="read-side quarantine, the same rename as the open-time sweep; pinned by the crash-safety corruption matrix"
                if std::fs::rename(&path, quarantine_path(&path)).is_ok() {
                    ReadThrough::Quarantined
                } else {
                    ReadThrough::Missing
                }
            }
        }
    }

    /// Reads the raw, fully validated bytes of one fingerprint's snapshot
    /// — the replication unit a cluster router ships to another node's
    /// store via [`SnapshotStore::import_bytes`]. The bytes are decoded
    /// end-to-end before they are handed out, so a corrupt file is
    /// rejected here rather than shipped.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] when the file is missing or unreadable,
    /// [`SnapshotError::Corrupt`] when it fails validation or its header
    /// names a different fingerprint than the caller asked for.
    pub fn export_fingerprint(&self, fingerprint: u64) -> Result<Vec<u8>, SnapshotError> {
        // lsc-analyze: allow(unrouted-io) reason="read-side export; the shipping caller decides SnapshotShip faults before invoking this, and a failed read surfaces as a failed ship"
        let bytes = std::fs::read(self.path_for(fingerprint))?;
        let (inst, _) = decode(&bytes)?;
        if inst.fingerprint() != fingerprint {
            return Err(SnapshotError::Corrupt(
                "exported file's header names a different fingerprint".to_string(),
            ));
        }
        Ok(bytes)
    }

    /// Validates shipped snapshot bytes and publishes them into this store
    /// under their own fingerprint — the same durable temp-file + rename +
    /// directory-fsync path as [`SnapshotStore::save`] (and the same
    /// [`crate::serve::faults::FaultSite::SnapshotWrite`] fault decisions),
    /// so a crash mid-import leaves sweepable debris, never a torn
    /// artifact. The store's save index is seeded so a later identical
    /// save is skipped. Returns the imported fingerprint.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] when the bytes fail validation (nothing
    /// is written), [`SnapshotError::Io`] on publish failure.
    pub fn import_bytes(&self, bytes: &[u8]) -> Result<u64, SnapshotError> {
        let (inst, checksum) = decode(bytes)?;
        let fingerprint = inst.fingerprint();
        let path = self.path_for(fingerprint);
        let tmp = self.dir.join(format!("{fingerprint:016x}.tmp"));
        self.publish(&tmp, &path, bytes)?;
        self.saved
            .lock()
            .expect("snapshot index poisoned")
            .insert(fingerprint, checksum);
        Ok(fingerprint)
    }

    /// Restores every valid snapshot in the directory into the engine's
    /// instance cache ([`ShardedEngine::insert_prepared`], which routes each
    /// instance to its home shard), so a restarted server answers repeat
    /// traffic as cache hits on exactly the shard its queries resolve to,
    /// instead of recompiling. Corrupt files are counted and skipped —
    /// never served, never deleted.
    pub fn warm(&self, engine: &ShardedEngine) -> WarmReport {
        let mut report = WarmReport::default();
        // lsc-analyze: allow(unrouted-io) reason="read-side warm pass; pinned by the crash-safety corruption matrix rather than the write-side fault plan"
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return report;
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "snap"))
            .collect();
        paths.sort();
        for path in paths {
            // lsc-analyze: allow(unrouted-io) reason="read-side warm pass; pinned by the crash-safety corruption matrix rather than the write-side fault plan"
            match std::fs::read(&path)
                .map_err(SnapshotError::from)
                .and_then(|bytes| decode(&bytes))
            {
                Ok((inst, checksum)) => {
                    // Seed the save index with the on-disk checksum (already
                    // verified by decode — no second read), so the serving
                    // layer's post-query saves skip unchanged artifacts.
                    self.saved
                        .lock()
                        .expect("snapshot index poisoned")
                        .insert(inst.fingerprint(), checksum);
                    engine.insert_prepared(inst);
                    report.loaded += 1;
                }
                Err(_) => report.rejected += 1,
            }
        }
        report
    }
}

/// `fsync` a directory so a just-completed rename inside it is durable.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    // lsc-analyze: allow(unrouted-io) reason="called only from publish, downstream of the SnapshotWrite fault decision"
    std::fs::File::open(dir)?.sync_all()
}

/// The open-time crash-recovery sweep: delete stale `*.tmp` files and
/// rename invalid `*.snap` files to `*.snap.quarantined.N`. Best-effort —
/// an entry that cannot be read or renamed is left alone (warm passes
/// still refuse to serve it).
fn sweep_debris(dir: &Path) -> SweepReport {
    let mut report = SweepReport::default();
    // lsc-analyze: allow(unrouted-io) reason="open-time debris sweep; driven through every byte-boundary crash point by the crash-safety suite"
    let Ok(entries) = std::fs::read_dir(dir) else {
        return report;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        match path.extension().and_then(|e| e.to_str()) {
            // lsc-analyze: allow(unrouted-io) reason="open-time debris sweep; driven through every byte-boundary crash point by the crash-safety suite"
            Some("tmp") if std::fs::remove_file(&path).is_ok() => {
                report.tmp_removed += 1;
            }
            Some("snap") => {
                // lsc-analyze: allow(unrouted-io) reason="open-time debris sweep; driven through every byte-boundary crash point by the crash-safety suite"
                let valid = std::fs::read(&path)
                    .map_err(SnapshotError::from)
                    .and_then(|bytes| decode(&bytes))
                    .is_ok();
                if !valid {
                    // Numbered suffix: a second corruption of the same
                    // fingerprint must land beside the first artifact, not
                    // overwrite it.
                    // lsc-analyze: allow(unrouted-io) reason="open-time debris sweep; driven through every byte-boundary crash point by the crash-safety suite"
                    if std::fs::rename(&path, quarantine_path(&path)).is_ok() {
                        report.quarantined += 1;
                    }
                }
            }
            _ => {}
        }
    }
    report
}

/// The first free `<name>.snap.quarantined.N` (N from 1) beside `path`.
/// Each corruption of the same fingerprint gets its own numbered artifact;
/// a fixed suffix would silently overwrite the previous one.
fn quarantine_path(path: &Path) -> PathBuf {
    let base = path.as_os_str().to_os_string();
    for n in 1u64.. {
        let mut candidate = base.clone();
        candidate.push(format!(".quarantined.{n}"));
        let candidate = PathBuf::from(candidate);
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("u64 quarantine numbers cannot be exhausted")
}

// ---- payload codec ----

/// Payload flag bits.
const FLAG_UNAMBIGUOUS_KNOWN: u8 = 1 << 0;
const FLAG_UNAMBIGUOUS_VALUE: u8 = 1 << 1;
const FLAG_DEGREE: u8 = 1 << 2;
const FLAG_COMPLETIONS: u8 = 1 << 3;
const FLAG_DET_COUNT: u8 = 1 << 4;
/// Version-2 section: the cached FPRAS sketch plus its `(params, seed)` key.
const FLAG_SKETCH: u8 = 1 << 5;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Serializes the instance's persisted parts (see the module docs for the
/// layout; all integers little-endian, byte strings `u64`-length-prefixed).
fn encode_payload(inst: &PreparedInstance) -> Vec<u8> {
    let (unambiguous, degree, completions, det_count) = inst.snapshot_parts();
    let sketch = inst.sketch_snapshot();
    let mut out = Vec::new();
    put_u64(&mut out, inst.length() as u64);
    put_bytes(&mut out, nfa_io::to_text(inst.nfa()).as_bytes());
    let mut flags = 0u8;
    if let Some(u) = unambiguous {
        flags |= FLAG_UNAMBIGUOUS_KNOWN;
        if u {
            flags |= FLAG_UNAMBIGUOUS_VALUE;
        }
    }
    if degree.is_some() {
        flags |= FLAG_DEGREE;
    }
    if completions.is_some() {
        flags |= FLAG_COMPLETIONS;
    }
    if det_count.is_some() {
        flags |= FLAG_DET_COUNT;
    }
    if sketch.is_some() {
        flags |= FLAG_SKETCH;
    }
    out.push(flags);
    if let Some(d) = degree {
        let (tag, poly) = match d {
            AmbiguityDegree::Unambiguous => (0u8, 0u64),
            AmbiguityDegree::Finite => (1, 0),
            AmbiguityDegree::Polynomial { degree } => (2, degree as u64),
            AmbiguityDegree::Exponential => (3, 0),
        };
        out.push(tag);
        put_u64(&mut out, poly);
    }
    if let Some(table) = completions {
        put_u64(&mut out, table.len() as u64);
        for entry in table.iter() {
            put_bytes(&mut out, &entry.to_le_bytes());
        }
    }
    if let Some(count) = det_count {
        put_bytes(&mut out, &count.to_le_bytes());
    }
    if let Some((seed, state)) = sketch {
        encode_sketch(&mut out, seed, state);
    }
    out
}

fn put_bigfloat(out: &mut Vec<u8>, v: BigFloat) {
    let (mantissa_bits, exponent) = v.to_raw_parts();
    put_u64(out, mantissa_bits);
    put_u64(out, exponent as u64);
}

/// The v2 sketch section: the `(params, seed)` caching key, the final
/// estimate, and the per-vertex table (exact flag, estimate `R(s)`, sample
/// words). Sample *reach sets* are deliberately not persisted: the decoder
/// rebuilds them in one prefix-shared pass, just as it rebuilds the DAG,
/// which keeps the section linear in the sample words rather than
/// quadratic in the automaton.
fn encode_sketch(out: &mut Vec<u8>, seed: u64, state: &FprasState) {
    let p = state.params();
    put_u64(out, seed);
    put_u64(out, p.k as u64);
    put_u64(out, p.attempts as u64);
    put_u64(out, p.rejection_constant.to_bits());
    out.push(
        u8::from(p.exact_handling)
            | (u8::from(p.recompute_membership) << 1)
            | (u8::from(p.weight_cache) << 2)
            | (u8::from(p.quadratic_estimator) << 3),
    );
    put_u64(out, p.threads as u64);
    put_bigfloat(out, state.estimate());
    let data = state.vertex_data();
    put_u64(out, data.len() as u64);
    for entry in data {
        match entry {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                out.push(u8::from(v.exact));
                put_bigfloat(out, v.r);
                put_u64(out, v.samples.len() as u64);
                for s in &v.samples {
                    put_u64(out, s.word.len() as u64);
                    for &sym in &s.word {
                        out.extend_from_slice(&sym.to_le_bytes());
                    }
                }
            }
        }
    }
}

/// A bounds-checked little-endian reader over the payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Corrupt("truncated payload".into()))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn len(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .ok()
            .filter(|&n| n <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Corrupt("implausible length".into()))
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len()?;
        self.take(n)
    }

    fn bigfloat(&mut self) -> Result<BigFloat, SnapshotError> {
        let mantissa_bits = self.u64()?;
        let exponent = self.u64()? as i64;
        BigFloat::from_raw_parts(mantissa_bits, exponent)
            .ok_or_else(|| SnapshotError::Corrupt("invalid extended float".into()))
    }
}

/// Decoded-but-not-yet-attached sketch section: everything except the
/// `Arc<Nfa>`/`Arc<UnrolledDag>` backbone, which the caller grafts on once
/// the instance (and its eagerly rebuilt DAG) exists.
type SketchParts = (u64, FprasParams, BigFloat, Vec<Option<VertexData>>);

/// Parses and validates the v2 sketch section, then rebuilds every
/// persisted sample's reach set from the automaton (the counterpart of
/// `encode_sketch` not persisting them) in one pass over the sample words:
/// a prefix shared by many samples is stepped once.
fn decode_sketch(
    r: &mut Reader<'_>,
    nfa: &Nfa,
    length: usize,
) -> Result<SketchParts, SnapshotError> {
    let corrupt = |reason: &str| SnapshotError::Corrupt(reason.to_string());
    let seed = r.u64()?;
    let k = usize::try_from(r.u64()?).map_err(|_| corrupt("implausible sketch k"))?;
    let attempts = usize::try_from(r.u64()?).map_err(|_| corrupt("implausible sketch attempts"))?;
    let rejection_constant = f64::from_bits(r.u64()?);
    if !rejection_constant.is_finite() || rejection_constant <= 0.0 {
        return Err(corrupt("invalid sketch rejection constant"));
    }
    let param_flags = r.u8()?;
    if param_flags & !0b1111 != 0 {
        return Err(corrupt("unknown sketch parameter flags"));
    }
    let threads = usize::try_from(r.u64()?).map_err(|_| corrupt("implausible sketch threads"))?;
    if threads == 0 {
        return Err(corrupt("sketch thread count must be positive"));
    }
    let params = FprasParams {
        k,
        attempts,
        rejection_constant,
        exact_handling: param_flags & 1 != 0,
        recompute_membership: param_flags & 2 != 0,
        threads,
        weight_cache: param_flags & 4 != 0,
        quadratic_estimator: param_flags & 8 != 0,
    };
    let final_r = r.bigfloat()?;
    let num_vertices = r.len()?;
    let alphabet_size = nfa.alphabet().len() as u32;
    let mut data = Vec::with_capacity(num_vertices);
    for _ in 0..num_vertices {
        match r.u8()? {
            0 => data.push(None),
            1 => {
                let exact = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(corrupt("invalid sketch exact flag")),
                };
                let estimate = r.bigfloat()?;
                let num_samples = r.len()?;
                let mut samples = Vec::with_capacity(num_samples);
                for _ in 0..num_samples {
                    let word_len = r.len()?;
                    if word_len > length {
                        return Err(corrupt("sketch sample longer than the witness length"));
                    }
                    let mut word = Word::with_capacity(word_len);
                    for chunk in r.take(word_len * 4)?.chunks_exact(4) {
                        let sym = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
                        if sym >= alphabet_size {
                            return Err(corrupt("sketch sample symbol outside the alphabet"));
                        }
                        word.push(sym);
                    }
                    // The reach set is rebuilt below, once every word is in.
                    let reach = StateSet::new(0);
                    samples.push(SampleEntry { word, reach });
                }
                data.push(Some(VertexData {
                    exact,
                    r: estimate,
                    samples,
                }));
            }
            _ => return Err(corrupt("invalid sketch vertex tag")),
        }
    }
    let words: Vec<&[Symbol]> = data
        .iter()
        .flatten()
        .flat_map(|v| &v.samples)
        .map(|s| s.word.as_slice())
        .collect();
    let reach = reach_all(nfa, &words);
    for (sample, reach) in data
        .iter_mut()
        .flatten()
        .flat_map(|v| &mut v.samples)
        .zip(reach)
    {
        sample.reach = reach;
    }
    Ok((seed, params, final_r, data))
}

/// Decodes and fully validates one snapshot file's bytes, returning the
/// instance and the verified payload checksum.
fn decode(bytes: &[u8]) -> Result<(Arc<PreparedInstance>, u64), SnapshotError> {
    let corrupt = |reason: &str| SnapshotError::Corrupt(reason.to_string());
    if bytes.len() < HEADER_LEN {
        return Err(corrupt("file shorter than header"));
    }
    if &bytes[0..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(corrupt("unknown snapshot version"));
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(corrupt("payload length mismatch"));
    }
    if fnv64(payload) != checksum {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    let length = usize::try_from(r.u64()?).map_err(|_| corrupt("implausible length"))?;
    let nfa_text =
        std::str::from_utf8(r.bytes_field()?).map_err(|_| corrupt("automaton not UTF-8"))?;
    let nfa = nfa_io::from_text(nfa_text)
        .map_err(|e| SnapshotError::Corrupt(format!("automaton does not parse: {e}")))?;
    let flags = r.u8()?;
    let unambiguous =
        (flags & FLAG_UNAMBIGUOUS_KNOWN != 0).then_some(flags & FLAG_UNAMBIGUOUS_VALUE != 0);
    let degree = if flags & FLAG_DEGREE != 0 {
        let tag = r.u8()?;
        let poly = r.u64()?;
        Some(match tag {
            0 => AmbiguityDegree::Unambiguous,
            1 => AmbiguityDegree::Finite,
            2 => AmbiguityDegree::Polynomial {
                degree: usize::try_from(poly).map_err(|_| corrupt("implausible degree"))?,
            },
            3 => AmbiguityDegree::Exponential,
            _ => return Err(corrupt("unknown ambiguity tag")),
        })
    } else {
        None
    };
    let completions = if flags & FLAG_COMPLETIONS != 0 {
        let n = r.len()?;
        let mut table = Vec::with_capacity(n);
        for _ in 0..n {
            table.push(BigNat::from_le_bytes(r.bytes_field()?));
        }
        Some(table)
    } else {
        None
    };
    let det_count = if flags & FLAG_DET_COUNT != 0 {
        Some(BigNat::from_le_bytes(r.bytes_field()?))
    } else {
        None
    };
    let sketch = if flags & FLAG_SKETCH != 0 {
        if version < 2 {
            return Err(corrupt("version-1 snapshot carries a sketch section"));
        }
        Some(decode_sketch(&mut r, &nfa, length)?)
    } else {
        None
    };
    if r.at != payload.len() {
        return Err(corrupt("trailing bytes after payload"));
    }
    // Cross-checks: the decoded instance must reproduce the header
    // fingerprint, and a persisted completion table must match the rebuilt
    // DAG's shape (the table indexes DAG vertices).
    let nfa = Arc::new(nfa);
    if PreparedInstance::instance_fingerprint(&nfa, length) != fingerprint {
        return Err(corrupt("fingerprint does not match decoded instance"));
    }
    if let Some(u) = unambiguous {
        if let Some(d) = degree {
            if (d == AmbiguityDegree::Unambiguous) != u {
                return Err(corrupt("classification flags disagree"));
            }
        }
    }
    let inst = PreparedInstance::from_snapshot_parts(
        nfa,
        length,
        unambiguous,
        degree,
        completions,
        det_count,
    );
    if let (_, _, Some(table), _) = inst.snapshot_parts() {
        if table.len() != inst.dag().num_nodes() {
            return Err(corrupt("completion table does not fit the DAG"));
        }
    }
    if let Some((seed, params, final_r, data)) = sketch {
        // The sketch table indexes DAG vertices, exactly like the
        // completion table; graft the shared automaton/DAG backbone onto
        // the decoded parts and pre-seed the instance's sketch cache under
        // its persisted `(params, seed)` key.
        if data.len() != inst.dag().num_nodes() {
            return Err(corrupt("sketch table does not fit the DAG"));
        }
        let state = FprasState::from_parts(
            inst.nfa_arc().clone(),
            inst.dag().clone(),
            params,
            data,
            final_r,
        );
        inst.seed_sketch(seed, Arc::new(state));
    }
    Ok((Arc::new(inst), checksum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::families::blowup_nfa;
    use lsc_automata::regex::Regex;
    use lsc_automata::Alphabet;

    fn temp_store(name: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!("lsc-snap-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SnapshotStore::open(dir).unwrap()
    }

    fn warmed_instance() -> Arc<PreparedInstance> {
        let inst = Arc::new(PreparedInstance::new(blowup_nfa(3), 8));
        inst.count_exact().unwrap(); // materialize classification + table
        inst
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let store = temp_store("roundtrip");
        let cold = warmed_instance();
        assert!(store.save(&cold).unwrap());
        let warm = store.load_fingerprint(cold.fingerprint()).unwrap();
        assert_eq!(warm.fingerprint(), cold.fingerprint());
        // Pre-seeded parts survive the trip...
        let (unambiguous, _, completions, _) = warm.snapshot_parts();
        assert_eq!(unambiguous, Some(true));
        assert!(completions.is_some());
        // ...and answers are bit-identical.
        assert_eq!(warm.count_exact().unwrap(), cold.count_exact().unwrap());
        let a: Vec<_> = cold.enumerate_constant_delay().unwrap().collect();
        let b: Vec<_> = warm.enumerate_constant_delay().unwrap().collect();
        assert_eq!(a, b);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn sketch_round_trips_and_serves_bit_identical_answers() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let store = temp_store("sketch-roundtrip");
        let cold = warmed_instance();
        // k = 4 forces sampled (not just exactly-handled) vertices, so the
        // round trip covers persisted sample words and recomputed reach sets.
        let mut params = FprasParams::quick();
        params.k = 4;
        let seed = 0xABCD;
        let cold_state = cold.fpras_sketch(params, seed).unwrap();
        assert!(
            cold_state.vertex_stats().1 > 0,
            "test instance must have sampled vertices"
        );
        assert!(store.save(&cold).unwrap());

        let warm = store.load_fingerprint(cold.fingerprint()).unwrap();
        // The sketch came back pre-seeded under its persisted key: a query
        // with the same (params, seed) is served the restored state...
        let (warm_seed, _) = warm.sketch_snapshot().expect("sketch persisted");
        assert_eq!(warm_seed, seed);
        let warm_state = warm.fpras_sketch(params, seed).unwrap();
        assert!(Arc::ptr_eq(&warm_state, warm.sketch_snapshot().unwrap().1));
        // ...with a bit-identical estimate and vertex table,
        assert_eq!(
            warm_state.estimate().to_raw_parts(),
            cold_state.estimate().to_raw_parts()
        );
        assert_eq!(warm_state.vertex_stats(), cold_state.vertex_stats());
        // and bit-identical Las-Vegas draws (same sketch data, same rng).
        let draws = |state: &FprasState| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut sampler = state.witness_sampler();
            (0..8).map(|_| sampler.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(&warm_state), draws(&cold_state));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn decoded_reach_sets_match_the_oracle_on_a_wide_automaton() {
        use lsc_automata::families::random_nfa;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // 80 states (two reach-set words) over three symbols, so sample
        // words branch three ways and every reach set spans a word boundary.
        let ab = Alphabet::from_chars(&['a', 'b', 'c']);
        let nfa = random_nfa(80, ab, 0.03, 0.2, &mut StdRng::seed_from_u64(5));
        let store = temp_store("wide-reach");
        let cold = Arc::new(PreparedInstance::new(nfa.clone(), 9));
        let mut params = FprasParams::quick();
        params.k = 8;
        let cold_state = cold.fpras_sketch(params, 77).unwrap();
        assert!(
            cold_state.vertex_stats().1 > 0,
            "test instance must have sampled vertices"
        );
        assert!(store.save(&cold).unwrap());

        let warm = store.load_fingerprint(cold.fingerprint()).unwrap();
        let warm_state = warm.fpras_sketch(params, 77).unwrap();
        let mut checked = 0;
        for (w, c) in warm_state
            .vertex_data()
            .iter()
            .zip(cold_state.vertex_data())
        {
            let (Some(w), Some(c)) = (w, c) else {
                assert!(w.is_none() && c.is_none());
                continue;
            };
            assert_eq!(w.samples.len(), c.samples.len());
            for (ws, cs) in w.samples.iter().zip(&c.samples) {
                assert_eq!(ws.word, cs.word);
                assert_eq!(ws.reach, crate::fpras::reach_of(&nfa, &ws.word));
                assert_eq!(ws.reach, cs.reach);
                checked += 1;
            }
        }
        assert!(checked > 64, "only {checked} samples checked");
        assert_eq!(
            warm_state.estimate().to_raw_parts(),
            cold_state.estimate().to_raw_parts()
        );
        let draws = |state: &FprasState| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut sampler = state.witness_sampler();
            (0..16)
                .map(|_| sampler.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(&warm_state), draws(&cold_state));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn version_1_snapshots_without_sketch_still_load() {
        let store = temp_store("v1-compat");
        let inst = warmed_instance(); // no sketch cached → v1-shaped payload
        store.save(&inst).unwrap();
        let path = store.path_for(inst.fingerprint());
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[8..12], VERSION.to_le_bytes());
        // Exactly what a version-1 writer produced: same payload bytes, old
        // header version (the checksum covers only the payload).
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let warm = store.load(&path).unwrap();
        assert_eq!(warm.count_exact().unwrap(), inst.count_exact().unwrap());
        assert!(warm.sketch_snapshot().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn version_1_files_cannot_carry_a_sketch_section() {
        let store = temp_store("v1-sketch");
        let inst = warmed_instance();
        inst.fpras_sketch(FprasParams::quick(), 1).unwrap();
        store.save(&inst).unwrap();
        let path = store.path_for(inst.fingerprint());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(&path), Err(SnapshotError::Corrupt(_))));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_sketch_sections_are_rejected_and_quarantined() {
        let store = temp_store("sketch-corrupt");
        let inst = warmed_instance();
        let state = inst.fpras_sketch(FprasParams::quick(), 5).unwrap();
        store.save(&inst).unwrap();
        let path = store.path_for(inst.fingerprint());
        let good = std::fs::read(&path).unwrap();
        // Replace the persisted estimate with NaN bits and *re-seal the
        // checksum* — modeling a buggy writer rather than bit rot, so the
        // semantic float validation (not the checksum) must catch it.
        let needle = state.estimate().to_raw_parts().0.to_le_bytes();
        let pos = good
            .windows(8)
            .position(|w| w == needle)
            .expect("estimate bits present in the sketch section");
        let mut bad = good.clone();
        bad[pos..pos + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let checksum = fnv64(&bad[HEADER_LEN..]);
        bad[28..36].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(store.load(&path), Err(SnapshotError::Corrupt(_))));
        // The open-time sweep quarantines it instead of serving it.
        let reopened = SnapshotStore::open(store.dir()).unwrap();
        assert_eq!(reopened.sweep_report().quarantined, 1);
        assert!(!path.exists());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn repeated_corruptions_quarantine_under_distinct_numbered_names() {
        let store = temp_store("double-corrupt");
        let inst = warmed_instance();
        store.save(&inst).unwrap();
        let path = store.path_for(inst.fingerprint());
        let good = std::fs::read(&path).unwrap();

        // First corruption: flip a payload byte, reopen, sweep quarantines.
        let mut bad = good.clone();
        bad[HEADER_LEN] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        let reopened = SnapshotStore::open(store.dir()).unwrap();
        assert_eq!(reopened.sweep_report().quarantined, 1);
        assert!(!path.exists());
        let first = PathBuf::from(format!("{}.quarantined.1", path.display()));
        assert!(first.exists(), "first artifact at .quarantined.1");

        // Second corruption of the *same fingerprint*, differently broken.
        let mut worse = good.clone();
        worse[HEADER_LEN + 1] ^= 0xFF;
        std::fs::write(&path, &worse).unwrap();
        let reopened = SnapshotStore::open(store.dir()).unwrap();
        assert_eq!(reopened.sweep_report().quarantined, 1, "this sweep's count");
        let second = PathBuf::from(format!("{}.quarantined.2", path.display()));
        assert!(
            first.exists() && second.exists(),
            "both corrupt artifacts kept on disk under distinct names"
        );
        assert_eq!(std::fs::read(&first).unwrap(), bad, "first artifact intact");
        assert_eq!(std::fs::read(&second).unwrap(), worse);
        // Quarantined files are out of the serving path: a warm pass over
        // the directory sees neither.
        let engine = ShardedEngine::with_shards(1);
        assert_eq!(reopened.warm(&engine), WarmReport::default());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn read_through_serves_only_a_valid_snapshot_of_the_requested_instance() {
        let store = temp_store("read-through");
        let inst = warmed_instance();
        let (nfa, length) = (inst.nfa_arc().clone(), inst.length());
        assert!(matches!(
            store.read_through(&nfa, length),
            ReadThrough::Missing
        ));
        store.save(&inst).unwrap();
        let ReadThrough::Loaded(loaded) = store.read_through(&nfa, length) else {
            panic!("a valid snapshot must load");
        };
        assert_eq!(loaded.count_exact().unwrap(), inst.count_exact().unwrap());
        assert!(
            !store.save(&loaded).unwrap(),
            "a loaded file is not rewritten"
        );

        // A valid snapshot of another instance under this name (what a
        // 64-bit fingerprint collision would look like) is not served and
        // not quarantined either.
        let path = store.path_for(inst.fingerprint());
        let good = std::fs::read(&path).unwrap();
        let other = Arc::new(PreparedInstance::new(blowup_nfa(2), 6));
        other.is_unambiguous();
        store.save(&other).unwrap();
        std::fs::copy(store.path_for(other.fingerprint()), &path).unwrap();
        assert!(matches!(
            store.read_through(&nfa, length),
            ReadThrough::Missing
        ));
        assert!(path.exists());

        // A corrupt file is quarantined, and the save index forgets it, so
        // the rebuilt instance is published afresh.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            store.read_through(&nfa, length),
            ReadThrough::Quarantined
        ));
        assert!(!path.exists());
        let quarantined = PathBuf::from(format!("{}.quarantined.1", path.display()));
        assert_eq!(std::fs::read(&quarantined).unwrap(), bad);
        assert!(store.save(&inst).unwrap(), "fresh snapshot published");
        assert_eq!(std::fs::read(&path).unwrap(), good);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn export_import_ships_a_snapshot_between_stores() {
        let src = temp_store("ship-src");
        let dst = temp_store("ship-dst");
        let inst = warmed_instance();
        src.save(&inst).unwrap();
        let bytes = src.export_fingerprint(inst.fingerprint()).unwrap();
        assert_eq!(dst.import_bytes(&bytes).unwrap(), inst.fingerprint());
        // The shipped snapshot serves bit-identical answers from the
        // destination store...
        let warm = dst.load_fingerprint(inst.fingerprint()).unwrap();
        assert_eq!(warm.count_exact().unwrap(), inst.count_exact().unwrap());
        // ...and seeded the save index: an identical save is a no-op.
        assert!(!dst.save(&inst).unwrap());
        // Corrupt bytes are rejected without writing anything.
        let other = temp_store("ship-reject");
        let mut bad = bytes.clone();
        bad[HEADER_LEN] ^= 0xFF;
        assert!(matches!(
            other.import_bytes(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(!other.path_for(inst.fingerprint()).exists());
        // Exporting a missing fingerprint is an I/O error, not a panic.
        assert!(matches!(
            other.export_fingerprint(0xDEAD),
            Err(SnapshotError::Io(_))
        ));
        for store in [src, dst, other] {
            std::fs::remove_dir_all(store.dir()).ok();
        }
    }

    #[test]
    fn unchanged_artifacts_are_not_rewritten() {
        let store = temp_store("idempotent");
        let inst = warmed_instance();
        assert!(store.save(&inst).unwrap(), "first save writes");
        assert!(!store.save(&inst).unwrap(), "second save skips");
        // A fresh store over the same directory also detects the file.
        let other = SnapshotStore::open(store.dir()).unwrap();
        assert!(!other.save(&inst).unwrap());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let store = temp_store("corrupt");
        let inst = warmed_instance();
        store.save(&inst).unwrap();
        let path = store.path_for(inst.fingerprint());
        let good = std::fs::read(&path).unwrap();
        assert!(store.load(&path).is_ok());
        // Flip one byte at a time across the whole file (stride keeps the
        // test fast on big payloads; the header is covered exhaustively).
        let stride = (good.len() / 64).max(1);
        let positions =
            (0..HEADER_LEN.min(good.len())).chain((HEADER_LEN..good.len()).step_by(stride));
        for i in positions {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                store.load(&path).is_err(),
                "byte {i} flipped but snapshot still loaded"
            );
        }
        std::fs::write(&path, &good).unwrap();
        assert!(store.load(&path).is_ok(), "restored file loads again");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn truncation_and_foreign_files_are_rejected() {
        let store = temp_store("truncate");
        let inst = warmed_instance();
        store.save(&inst).unwrap();
        let path = store.path_for(inst.fingerprint());
        let good = std::fs::read(&path).unwrap();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(store.load(&path).is_err(), "truncated to {cut} bytes");
        }
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        assert!(store.load(&path).is_err());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn warm_restores_valid_snapshots_and_skips_corrupt_ones() {
        let store = temp_store("warm");
        let a = warmed_instance();
        let ab = Alphabet::binary();
        let b = Arc::new(PreparedInstance::new(
            Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile(),
            7,
        ));
        b.is_unambiguous();
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        // Plant one corrupt file alongside.
        std::fs::write(store.dir().join("deadbeefdeadbeef.snap"), b"garbage").unwrap();
        let engine = ShardedEngine::with_shards(1);
        let report = store.warm(&engine);
        assert_eq!(
            report,
            WarmReport {
                loaded: 2,
                rejected: 1
            }
        );
        // Both instances now hit without any compile work or miss counted.
        let stats = engine.stats().aggregate;
        assert_eq!((stats.misses, stats.entries), (0, 2));
        assert!(engine.prepare_nfa(a.nfa_arc(), 8).was_cached());
        assert!(engine.prepare_nfa(b.nfa_arc(), 7).was_cached());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn ambiguous_instances_round_trip_their_classification() {
        let ab = Alphabet::binary();
        let nfa = Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile();
        let cold = Arc::new(PreparedInstance::new(nfa, 7));
        cold.ambiguity(); // materialize the Weber–Seidl degree
        let store = temp_store("ambiguous");
        store.save(&cold).unwrap();
        let warm = store.load_fingerprint(cold.fingerprint()).unwrap();
        assert_eq!(warm.snapshot_parts().1, Some(cold.ambiguity()));
        assert!(!warm.is_unambiguous());
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
