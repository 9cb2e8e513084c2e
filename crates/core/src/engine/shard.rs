//! The query engine: [`ShardedEngine`], N independent cache shards behind
//! one consistent-hash shard map, and the whole session, typed, word-level
//! and batch serving surface on top of them.
//!
//! The engine makes repeat traffic cheap, in three layers:
//!
//! * **Sessions** — [`ShardedEngine::prepare`] turns any [`Queryable`]
//!   domain object into a cheap [`InstanceHandle`]: the reduction runs once
//!   per distinct domain fingerprint, the prepared artifact lives in the
//!   shared cache, and the handle is a couple of words to clone.
//!   [`QueryRequest`]s take handles (or `Arc`'d automata) — nothing on the
//!   request path deep-copies an automaton.
//! * **Typed queries** — [`ShardedEngine::count`],
//!   [`ShardedEngine::enumerate`], [`ShardedEngine::sample`] are generic
//!   over [`Queryable`] and return domain values: counts with provenance,
//!   streaming [`EnumCursor`]s (resumable via [`ResumeToken`]s), and
//!   amortized [`GenStream`]s.
//! * **Batch** — [`ShardedEngine::query_batch`], built on the cursor
//!   surface, for callers that want many answers at once, with
//!   deterministic multi-threaded execution.
//!
//! Underneath, the cache is split so that resolution scales with cores:
//!
//! * **Shards.** N independent caches (default: one per hardware thread),
//!   each a fingerprint-keyed byte-capped LRU with `cache_bytes / N` of the
//!   configured budget and `domain_entries / N` of the domain memo.
//!   Requests for different instances resolve on different mutexes and
//!   proceed in parallel. One shard is the plain single-cache engine.
//! * **Routing.** A [`ShardMap`] — consistent hashing over a 64-bit ring
//!   with virtual nodes — assigns every instance fingerprint to exactly one
//!   shard. All traffic for an instance (prepare, query, cursor resume,
//!   snapshot warm-load) lands on its home shard, so intra-instance cache
//!   semantics (`k` duplicates = 1 miss + `k − 1` hits) do not depend on
//!   the shard count, and no instance is resident in two shards (at
//!   quiescence — a resolution racing a topology change can leave a
//!   transient extra copy; see [`ShardedEngine::add_shard`]).
//! * **Elasticity.** [`ShardedEngine::add_shard`] and
//!   [`ShardedEngine::remove_shard`] grow or drain the fleet at runtime.
//!   Consistent hashing bounds the fallout: adding a shard moves only the
//!   keys the new shard now owns (≈ `1/(N+1)` of them), removing one moves
//!   only its own keys — every other shard's residents stay put. Moved
//!   instances migrate cache-to-cache (no recompilation); in-flight
//!   [`InstanceHandle`]s keep serving regardless, because handles pin the
//!   artifact, not the shard.
//!
//! **Determinism.** Answers are bit-identical at any shard count, any
//! `threads` setting, and across warm/cold caches:
//!
//! * batch resolution (and with it the `cache_hit` flag) happens in a
//!   single-threaded pass in request order before the fan-out, so flags
//!   never depend on thread interleaving;
//! * each request owns its randomness (`QueryRequest::seed`), so execution
//!   order cannot leak between requests;
//! * engine-owned randomness (the cached FPRAS sketch) is seeded from
//!   `config.seed` mixed with the instance fingerprint — a pure function of
//!   the configuration and the instance, never of arrival order or shard
//!   layout.
//!
//! `crates/core/tests/shard_stress.rs` pins this: a seeded concurrent op
//! log over a 4-shard engine at 1/2/4/8 threads produces bit-identical
//! outputs to a serial replay on one shard.

use std::sync::{Arc, Mutex, RwLock};

use lsc_arith::BigNat;
use lsc_automata::Nfa;

use crate::engine::cache::{
    EngineConfig, EngineStats, InstanceHandle, QueryError, QueryKind, QueryOutput, QueryRequest,
    QueryResponse, QueryTarget, Shard,
};
use crate::engine::count_route::RoutedCount;
use crate::engine::cursor::{
    EnumCursor, GenStream, InvalidTokenError, ResumeToken, WordCursor, WordGenStream,
};
use crate::engine::prepared::PreparedInstance;
use crate::engine::queryable::Queryable;

/// SplitMix64 — the ring/key mixer. Cheap, stateless, and well distributed
/// even for near-sequential inputs (shard ids, replica indices).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Salt separating key-space hashes from ring-point hashes.
const KEY_SALT: u64 = 0x5EED_F0E1_57A8_1E5C;

/// A consistent-hash map from instance fingerprints to shard ids.
///
/// Each shard owns `replicas` pseudo-random points on a 64-bit ring; a
/// fingerprint belongs to the shard owning the first point at or clockwise
/// of the fingerprint's own ring position. The properties the shard tests
/// pin:
///
/// * **Stability** — `shard_for` is a pure function of the live shard set;
///   two maps holding the same shards agree on every key, regardless of the
///   order shards were added.
/// * **Bounded movement** — adding a shard only moves keys *to* it;
///   removing a shard only moves keys that belonged to it. Keys owned by
///   untouched shards never move.
/// * **Unique ownership** — every fingerprint maps to exactly one live
///   shard.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// `(ring position, shard id)`, sorted. Position ties (astronomically
    /// rare) are broken by shard id, deterministically.
    points: Vec<(u64, usize)>,
    /// Live shard ids, sorted.
    shards: Vec<usize>,
    /// Virtual nodes per shard.
    replicas: usize,
}

impl ShardMap {
    /// A map over shard ids `0..shards` with the given number of virtual
    /// nodes per shard (64 is a good default: key movement on topology
    /// changes stays within a few percent of ideal).
    pub fn new(shards: usize, replicas: usize) -> ShardMap {
        let mut map = ShardMap {
            points: Vec::new(),
            shards: Vec::new(),
            replicas: replicas.max(1),
        };
        for id in 0..shards.max(1) {
            map.add_shard(id);
        }
        map
    }

    /// The live shard ids, sorted.
    pub fn shard_ids(&self) -> &[usize] {
        &self.shards
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard is live (an unroutable map; [`ShardMap::new`]
    /// never produces one).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The ring position of one of a shard's virtual nodes.
    fn point(shard: usize, replica: usize) -> u64 {
        splitmix64(splitmix64(shard as u64) ^ (replica as u64))
    }

    /// Adds a shard's virtual nodes to the ring. Idempotent.
    pub fn add_shard(&mut self, id: usize) {
        if self.shards.contains(&id) {
            return;
        }
        self.shards.push(id);
        self.shards.sort_unstable();
        for replica in 0..self.replicas {
            self.points.push((Self::point(id, replica), id));
        }
        self.points.sort_unstable();
    }

    /// Removes a shard's virtual nodes from the ring. Idempotent; the last
    /// shard cannot be removed (the map must stay routable).
    pub fn remove_shard(&mut self, id: usize) -> bool {
        if !self.shards.contains(&id) || self.shards.len() == 1 {
            return false;
        }
        self.shards.retain(|&s| s != id);
        self.points.retain(|&(_, s)| s != id);
        true
    }

    /// The shard owning a fingerprint.
    pub fn shard_for(&self, fingerprint: u64) -> usize {
        let key = splitmix64(fingerprint ^ KEY_SALT);
        let at = self.points.partition_point(|&(p, _)| p < key);
        let (_, shard) = self.points[at % self.points.len()];
        shard
    }
}

/// Virtual nodes per shard on the consistent-hash ring.
const RING_REPLICAS: usize = 64;

/// [`ShardedEngine`] tuning knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardedConfig {
    /// The engine configuration. `cache_bytes` and `domain_entries` are
    /// fleet *totals at construction*: each initial shard gets
    /// `cache_bytes / shards` bytes and `domain_entries / shards` memo
    /// entries (at least one of each), so any shard count starts with the
    /// same budget. Shards added later each bring one more such share —
    /// see [`ShardedEngine::add_shard`].
    pub engine: EngineConfig,
    /// Number of shards; `0` means one per hardware thread
    /// (`std::thread::available_parallelism`).
    pub shards: usize,
}

impl ShardedConfig {
    /// The shard count this configuration resolves to.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Aggregated and per-shard cache counters.
#[derive(Clone, Debug, Default)]
pub struct ShardedStats {
    /// The sum over shards.
    pub aggregate: EngineStats,
    /// `(shard id, that shard's counters)`, in shard-id order.
    pub per_shard: Vec<(usize, EngineStats)>,
}

/// One immutable shard-fleet snapshot: shards indexed by id (`None` =
/// drained), plus the ring that routes to them. Topology changes build a
/// fresh snapshot and swap it in — readers never see a half-updated fleet.
#[derive(Clone)]
struct Topology {
    shards: Vec<Option<Arc<Shard>>>,
    map: ShardMap,
}

impl Topology {
    fn shard(&self, id: usize) -> Arc<Shard> {
        self.shards[id]
            .as_ref()
            .expect("shard map routes only to live shards")
            .clone()
    }

    fn live(&self) -> impl Iterator<Item = (usize, &Arc<Shard>)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.as_ref().map(|s| (id, s)))
    }
}

/// How many read stripes front the topology (a power of two). Each stripe
/// lives on its own cache lines, so readers on different cores take
/// different locks and the hot path has no globally shared read-lock word
/// — the contention profile a single `RwLock` (or an `Arc` clone of one
/// shared snapshot) would reintroduce.
const TOPOLOGY_STRIPES: usize = 16;

/// One topology read stripe, padded to keep each stripe's lock word off
/// its neighbors' cache lines.
#[repr(align(128))]
struct Stripe(RwLock<Arc<Topology>>);

/// The stripe a thread reads through: assigned round-robin at first use,
/// so steady-state readers spread evenly regardless of thread churn.
fn stripe_slot() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// The fingerprint a request target routes by.
fn target_fingerprint(target: &QueryTarget) -> u64 {
    match target {
        QueryTarget::Automaton { nfa, length } => {
            PreparedInstance::instance_fingerprint(nfa, *length)
        }
        QueryTarget::Handle(handle) => handle.fingerprint(),
    }
}

/// The prepared-instance query engine: N cache shards fronted by a
/// consistent-hash [`ShardMap`], and the whole query surface. See the
/// module docs; [`ShardedEngine::with_defaults`] walks through the typical
/// session flow.
///
/// ```
/// use std::sync::Arc;
/// use lsc_automata::families::blowup_nfa;
/// use lsc_core::engine::{ShardedConfig, ShardedEngine};
///
/// let engine = ShardedEngine::new(ShardedConfig {
///     shards: 4,
///     ..ShardedConfig::default()
/// });
/// let instance = (Arc::new(blowup_nfa(3)), 8usize);
/// let count = engine.count_exact(&instance).unwrap().to_u64().unwrap();
/// let words: Vec<_> = engine.enumerate(&instance).collect();
/// assert_eq!(words.len() as u64, count);
/// // Exactly one shard compiled the instance; the fleet agrees on totals.
/// let stats = engine.stats();
/// assert_eq!(stats.aggregate.misses, 1);
/// assert_eq!(stats.per_shard.len(), 4);
/// ```
pub struct ShardedEngine {
    config: ShardedConfig,
    /// Per-shard configuration (the byte and domain budgets already
    /// divided).
    shard_config: EngineConfig,
    /// The current [`Topology`] snapshot, replicated across read stripes.
    /// Readers go through their thread's stripe ([`stripe_slot`]); writers
    /// ([`ShardedEngine::add_shard`] / [`ShardedEngine::remove_shard`])
    /// serialize on `topology_mut`, then write-lock every stripe to swap
    /// the snapshot atomically with respect to readers.
    stripes: Vec<Stripe>,
    topology_mut: Mutex<()>,
    /// Counters inherited from drained shards, so the aggregate keeps a
    /// drained shard's history instead of dropping it with its cache
    /// (monotonic up to requests racing the drain itself — see
    /// [`ShardedEngine::remove_shard`]).
    retired: Mutex<EngineStats>,
}

impl ShardedEngine {
    /// An engine with the given configuration.
    pub fn new(config: ShardedConfig) -> ShardedEngine {
        let shards = config.resolved_shards();
        let shard_config = EngineConfig {
            cache_bytes: (config.engine.cache_bytes / shards).max(1),
            domain_entries: (config.engine.domain_entries / shards).max(1),
            ..config.engine
        };
        let topology = Arc::new(Topology {
            shards: (0..shards)
                .map(|_| Some(Arc::new(Shard::new(&shard_config))))
                .collect(),
            map: ShardMap::new(shards, RING_REPLICAS),
        });
        ShardedEngine {
            config,
            shard_config,
            stripes: (0..TOPOLOGY_STRIPES)
                .map(|_| Stripe(RwLock::new(topology.clone())))
                .collect(),
            topology_mut: Mutex::new(()),
            retired: Mutex::new(EngineStats::default()),
        }
    }

    /// An engine with default configuration (one shard per hardware
    /// thread).
    ///
    /// The typical flow: build one engine for the process,
    /// [`ShardedEngine::prepare`] a domain object into a session handle
    /// (compiling at most once per distinct instance), then serve `COUNT` /
    /// `ENUM` / `GEN` from the shared artifact:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use lsc_automata::regex::Regex;
    /// use lsc_automata::{Alphabet, Word};
    /// use lsc_core::engine::ShardedEngine;
    ///
    /// let engine = ShardedEngine::with_defaults();
    /// let ab = Alphabet::binary();
    /// let nfa = Arc::new(Regex::parse("(0|1)*101(0|1)*", &ab).unwrap().compile());
    /// let instance = (nfa, 10usize); // the identity Queryable
    ///
    /// // COUNT with provenance (exact here: the router determinizes).
    /// let count = engine.count(&instance).unwrap();
    /// assert!(count.is_exact());
    ///
    /// // ENUM as a streaming cursor, paged across calls via a resume token.
    /// let mut cursor = engine.enumerate(&instance);
    /// let page: Vec<Word> = cursor.by_ref().take(5).collect();
    /// let token = cursor.token();
    /// let rest: Vec<Word> = engine.resume(&instance, &token).unwrap().collect();
    /// assert_eq!(
    ///     (page.len() + rest.len()) as u64,
    ///     count.exact.clone().unwrap().to_u64().unwrap(),
    /// );
    ///
    /// // GEN as an amortized uniform draw stream (deterministic in its seeds).
    /// let draws: Vec<Word> = engine.sample(&instance, 7).unwrap().take(3).collect();
    /// assert_eq!(draws.len(), 3);
    ///
    /// // Everything above compiled the instance exactly once.
    /// assert_eq!(engine.stats().aggregate.misses, 1);
    /// ```
    pub fn with_defaults() -> ShardedEngine {
        Self::new(ShardedConfig::default())
    }

    /// A default-configured engine with an explicit shard count.
    pub fn with_shards(shards: usize) -> ShardedEngine {
        Self::new(ShardedConfig {
            shards,
            ..ShardedConfig::default()
        })
    }

    /// Runs `f` against the current topology snapshot through this
    /// thread's read stripe (see [`Stripe`]).
    fn with_topology<T>(&self, f: impl FnOnce(&Topology) -> T) -> T {
        let guard = self.stripes[stripe_slot() % TOPOLOGY_STRIPES]
            .0
            .read()
            .expect("topology stripe poisoned");
        f(&guard)
    }

    /// Swaps a new topology snapshot into every stripe. All stripe write
    /// locks are held simultaneously, so no reader observes a mix of old
    /// and new topologies. Callers hold `topology_mut`.
    fn install(&self, next: &Arc<Topology>) {
        let mut guards: Vec<_> = self
            .stripes
            .iter()
            .map(|s| s.0.write().expect("topology stripe poisoned"))
            .collect();
        for guard in &mut guards {
            **guard = next.clone();
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Live shard count.
    pub fn num_shards(&self) -> usize {
        self.with_topology(|t| t.map.len())
    }

    /// The shard an instance fingerprint routes to.
    pub fn shard_for_fingerprint(&self, fingerprint: u64) -> usize {
        self.with_topology(|t| t.map.shard_for(fingerprint))
    }

    /// Which shards hold a fingerprint right now (the no-double-residency
    /// invariant says: never more than one at quiescence — see
    /// [`ShardedEngine::add_shard`] for the transient during a racing
    /// topology change).
    pub fn resident_shards(&self, fingerprint: u64) -> Vec<usize> {
        self.with_topology(|t| {
            t.live()
                .filter(|(_, s)| s.resident_fingerprints().contains(&fingerprint))
                .map(|(id, _)| id)
                .collect()
        })
    }

    /// Aggregated plus per-shard cache counters. The aggregate includes
    /// the hit/miss/eviction history of since-drained shards; entry and
    /// byte gauges cover only the live fleet.
    pub fn stats(&self) -> ShardedStats {
        let mut out = ShardedStats::default();
        {
            let retired = self.retired.lock().expect("retired stats poisoned");
            out.aggregate.hits = retired.hits;
            out.aggregate.misses = retired.misses;
            out.aggregate.evictions = retired.evictions;
        }
        self.with_topology(|topology| {
            for (id, shard) in topology.live() {
                let s = shard.stats();
                out.aggregate.hits += s.hits;
                out.aggregate.misses += s.misses;
                out.aggregate.evictions += s.evictions;
                out.aggregate.entries += s.entries;
                out.aggregate.bytes += s.bytes;
                out.aggregate.domains += s.domains;
                out.per_shard.push((id, s));
            }
        });
        out
    }

    /// The home shard of a fingerprint.
    fn shard_for(&self, fingerprint: u64) -> Arc<Shard> {
        self.with_topology(|t| t.shard(t.map.shard_for(fingerprint)))
    }

    // ---- sessions ----

    /// Opens (or re-opens) a session on a domain object: the reduction runs
    /// (memoized) on the domain fingerprint's home shard, then the
    /// *instance* routes by its own fingerprint — so equal instances reached
    /// through different domains still share one shard and one
    /// compilation.
    pub fn prepare<Q: Queryable + ?Sized>(&self, queryable: &Q) -> InstanceHandle {
        let (nfa, length) = self
            .shard_for(queryable.domain_fingerprint())
            .domain_instance(queryable);
        self.prepare_nfa(&nfa, length)
    }

    /// A session handle for a raw `(automaton, length)` instance — the
    /// identity-domain variant of [`ShardedEngine::prepare`]: served from
    /// its home shard when present, inserted (lazily, nothing materialized
    /// yet) otherwise.
    pub fn prepare_nfa(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle {
        self.shard_for(PreparedInstance::instance_fingerprint(nfa, length))
            .resolve_nfa(nfa, length)
    }

    /// [`ShardedEngine::prepare_nfa`] with a read-through on a miss: when
    /// the instance is not resident, `load` may supply it (the serving
    /// layer reads a persisted snapshot) before a cold, lazily compiled
    /// instance is built. `load` runs with no cache lock held, so file I/O
    /// never blocks the shard; if another resolution inserted the instance
    /// meanwhile, that entry wins. A read-through still counts as a miss,
    /// and the handle reports `was_cached() == false` — `cached` means "was
    /// resident". `load` must return an instance of exactly `(nfa,
    /// length)`.
    pub fn prepare_nfa_or_load(
        &self,
        nfa: &Arc<Nfa>,
        length: usize,
        load: impl FnOnce() -> Option<Arc<PreparedInstance>>,
    ) -> InstanceHandle {
        self.shard_for(PreparedInstance::instance_fingerprint(nfa, length))
            .resolve_or_load(nfa, length, load)
    }

    /// The prepared instance for `(nfa, length)` —
    /// [`ShardedEngine::prepare_nfa`] without the handle wrapper, for
    /// callers that only want the artifact.
    pub fn prepared(&self, nfa: &Arc<Nfa>, length: usize) -> Arc<PreparedInstance> {
        self.prepare_nfa(nfa, length).instance().clone()
    }

    /// Inserts an externally constructed instance into its home shard —
    /// the warm-restart hook behind [`crate::engine::SnapshotStore::warm`].
    /// If the key is already cached, the existing artifact wins (and is
    /// returned). Warm-loading is not request traffic, so the hit/miss
    /// counters do not move — the first *query* against a warmed instance
    /// reports a clean cache hit.
    pub fn insert_prepared(&self, inst: Arc<PreparedInstance>) -> InstanceHandle {
        self.shard_for(inst.fingerprint()).insert(inst)
    }

    // ---- typed queries ----

    /// Routed `COUNT` on a domain object: exact where exactness is
    /// affordable, the cached FPRAS sketch otherwise, with provenance.
    ///
    /// # Errors
    /// Propagates FPRAS failure events when the FPRAS route fires.
    pub fn count<Q: Queryable + ?Sized>(&self, queryable: &Q) -> Result<RoutedCount, QueryError> {
        let handle = self.prepare(queryable);
        let inst = handle.instance();
        Ok(inst.count_routed_cached(&self.config.engine.router, self.sketch_seed(inst))?)
    }

    /// Exact `COUNT` on a domain object (Theorem 5, unambiguous reductions
    /// only).
    ///
    /// # Errors
    /// [`QueryError::NotUnambiguous`] on ambiguous instances.
    pub fn count_exact<Q: Queryable + ?Sized>(&self, queryable: &Q) -> Result<BigNat, QueryError> {
        Ok(self.prepare(queryable).instance().count_exact()?)
    }

    /// Streaming `ENUM` on a domain object: a typed cursor yielding decoded
    /// witnesses lazily (constant delay on unambiguous instances,
    /// polynomial otherwise), resumable across calls via
    /// [`EnumCursor::token`] and [`ShardedEngine::resume`].
    pub fn enumerate<'q, Q: Queryable + ?Sized>(&self, queryable: &'q Q) -> EnumCursor<'q, Q> {
        let handle = self.prepare(queryable);
        EnumCursor::new(queryable, self.cursor(&handle))
    }

    /// Reconstructs a typed cursor at a token's position; the continued
    /// stream is bit-identical to the uninterrupted one.
    ///
    /// # Errors
    /// [`InvalidTokenError`] if the token does not belong to this domain
    /// object's instance or encodes an impossible position.
    pub fn resume<'q, Q: Queryable + ?Sized>(
        &self,
        queryable: &'q Q,
        token: &ResumeToken,
    ) -> Result<EnumCursor<'q, Q>, InvalidTokenError> {
        let handle = self.prepare(queryable);
        Ok(EnumCursor::new(
            queryable,
            self.resume_cursor(&handle, token)?,
        ))
    }

    /// `GEN` on a domain object: an amortized uniform draw stream yielding
    /// decoded witnesses. Deterministic in `(instance, engine seed,
    /// draw_seed)` — the shard layout never enters the stream.
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on
    /// the ambiguous route.
    pub fn sample<'q, Q: Queryable + ?Sized>(
        &self,
        queryable: &'q Q,
        draw_seed: u64,
    ) -> Result<GenStream<'q, Q>, QueryError> {
        let handle = self.prepare(queryable);
        let stream = self.gen_stream(&handle, draw_seed)?;
        Ok(GenStream::new(queryable, stream))
    }

    // ---- word-level sessions (handles in, raw words out) ----

    /// A raw-word cursor over a session handle (the untyped sibling of
    /// [`ShardedEngine::enumerate`], for tools that print words directly).
    pub fn cursor(&self, handle: &InstanceHandle) -> WordCursor {
        WordCursor::fresh(handle.instance().clone())
    }

    /// Reconstructs a raw-word cursor at a token's position.
    ///
    /// # Errors
    /// [`InvalidTokenError`] if the token does not belong to the handle's
    /// instance or encodes an impossible position.
    pub fn resume_cursor(
        &self,
        handle: &InstanceHandle,
        token: &ResumeToken,
    ) -> Result<WordCursor, InvalidTokenError> {
        WordCursor::resume(handle.instance().clone(), token)
    }

    /// A raw-word uniform draw stream over a session handle (the untyped
    /// sibling of [`ShardedEngine::sample`]).
    ///
    /// # Errors
    /// Propagates FPRAS failure events from the (cached) sketch build on
    /// the ambiguous route.
    pub fn gen_stream(
        &self,
        handle: &InstanceHandle,
        draw_seed: u64,
    ) -> Result<WordGenStream, QueryError> {
        let inst = handle.instance();
        Ok(WordGenStream::new(
            inst,
            &self.config.engine.router,
            self.config.engine.retries,
            self.sketch_seed(inst),
            draw_seed,
        )?)
    }

    // ---- batch ----

    /// Engine-owned seed for an instance's cached FPRAS sketch: a pure
    /// function of the configuration and the fingerprint.
    fn sketch_seed(&self, inst: &PreparedInstance) -> u64 {
        self.config.engine.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ inst.fingerprint()
    }

    /// One execution, built on the streaming surface: `Enumerate` buffers
    /// a cursor page, `Sample` buffers a draw-stream prefix, so batch
    /// answers and cursors can never disagree on content or order.
    fn execute(
        &self,
        handle: &InstanceHandle,
        kind: QueryKind,
        seed: u64,
    ) -> Result<QueryOutput, QueryError> {
        let inst = handle.instance();
        match kind {
            QueryKind::Count => Ok(QueryOutput::Count(
                inst.count_routed_cached(&self.config.engine.router, self.sketch_seed(inst))?,
            )),
            QueryKind::CountExact => Ok(QueryOutput::Exact(inst.count_exact()?)),
            QueryKind::Enumerate { limit } => Ok(QueryOutput::Words(
                self.cursor(handle).take(limit).collect(),
            )),
            QueryKind::Sample { count } => Ok(QueryOutput::Words(
                self.gen_stream(handle, seed)?.take(count).collect(),
            )),
        }
    }

    /// Answers one request on its home shard: resolve, execute, and
    /// re-measure whatever the execution materialized — the same steps as a
    /// one-request [`ShardedEngine::query_batch`].
    pub fn query(&self, request: &QueryRequest) -> QueryResponse {
        let shard = self.shard_for(target_fingerprint(&request.target));
        let handle = shard.resolve(&request.target);
        let output = self.execute(&handle, request.kind, request.seed);
        shard.refresh_bytes([&handle]);
        QueryResponse {
            output,
            cache_hit: handle.was_cached(),
        }
    }

    /// Answers a batch, in three phases (see the module docs for why the
    /// responses are identical at any shard or thread count):
    ///
    /// 1. single-threaded, in request order: resolve every request on its
    ///    home shard, fixing each `cache_hit` flag;
    /// 2. execute, split into contiguous chunks over `config.threads`
    ///    scoped threads, each writing its own slice of the results;
    /// 3. single-threaded: re-measure each touched shard's resolutions once
    ///    and enforce its byte cap.
    pub fn query_batch(&self, requests: &[QueryRequest]) -> Vec<QueryResponse> {
        if requests.is_empty() {
            return Vec::new();
        }
        let homes: Vec<(usize, Arc<Shard>)> = self.with_topology(|t| {
            requests
                .iter()
                .map(|r| {
                    let id = t.map.shard_for(target_fingerprint(&r.target));
                    (id, t.shard(id))
                })
                .collect()
        });
        let resolved: Vec<InstanceHandle> = requests
            .iter()
            .zip(&homes)
            .map(|(r, (_, shard))| shard.resolve(&r.target))
            .collect();
        let threads = self.config.engine.threads.clamp(1, requests.len());
        let outputs: Vec<Result<QueryOutput, QueryError>> = if threads == 1 {
            requests
                .iter()
                .zip(&resolved)
                .map(|(r, h)| self.execute(h, r.kind, r.seed))
                .collect()
        } else {
            let mut slots: Vec<Option<Result<QueryOutput, QueryError>>> =
                (0..requests.len()).map(|_| None).collect();
            let chunk = requests.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for ((reqs, handles), out) in requests
                    .chunks(chunk)
                    .zip(resolved.chunks(chunk))
                    .zip(slots.chunks_mut(chunk))
                {
                    scope.spawn(move || {
                        for ((r, h), slot) in reqs.iter().zip(handles).zip(out) {
                            *slot = Some(self.execute(h, r.kind, r.seed));
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("thread filled slot"))
                .collect()
        };
        let mut by_shard: Vec<usize> = (0..requests.len()).collect();
        by_shard.sort_by_key(|&i| homes[i].0);
        for group in by_shard.chunk_by(|&a, &b| homes[a].0 == homes[b].0) {
            homes[group[0]]
                .1
                .refresh_bytes(group.iter().map(|&i| &resolved[i]));
        }
        outputs
            .into_iter()
            .zip(resolved)
            .map(|(output, h)| QueryResponse {
                output,
                cache_hit: h.was_cached(),
            })
            .collect()
    }

    // ---- elasticity ----

    /// Adds a fresh shard to the fleet and migrates the instances it now
    /// owns out of their old shards (cache-to-cache — no recompilation).
    /// Returns the new shard's id.
    ///
    /// Topology changes are linearized with respect to each other; readers
    /// always see a complete snapshot (old or new, never a mix). Requests
    /// in flight during the swap may resolve through the previous snapshot
    /// — answers are unaffected (every answer is a pure function of the
    /// instance and seeds), but cache placement is eventually consistent:
    /// a resolution that raced the swap can leave a transient resident on
    /// the old owner, which converges on the next topology change or
    /// eviction. The strict no-double-residency invariant therefore holds
    /// at quiescence (no topology change mid-request), which is what the
    /// shard tests pin.
    ///
    /// Capacity note: each shard's byte budget is fixed at construction
    /// (`cache_bytes / initial shards`), so an added shard brings one more
    /// share of capacity — growing the fleet grows the fleet-total cache
    /// by design, mirroring how added hardware brings its own memory.
    pub fn add_shard(&self) -> usize {
        let _writer = self.topology_mut.lock().expect("topology writer poisoned");
        let current = self.with_topology(|t| t.clone());
        let id = current.shards.len();
        let mut next = current;
        next.map.add_shard(id);
        next.shards
            .push(Some(Arc::new(Shard::new(&self.shard_config))));
        let next = Arc::new(next);
        // New routing first, then drain: an instance the new shard owns is
        // re-resolved there from the moment of the swap, and its old copy
        // is swept out right after.
        self.install(&next);
        let mut moved = Vec::new();
        for (shard, cache) in next.live() {
            if shard == id {
                continue;
            }
            moved.extend(cache.take_instances_where(|fp| next.map.shard_for(fp) == id));
        }
        let new_shard = next.shard(id);
        for inst in moved {
            new_shard.insert(inst);
        }
        id
    }

    /// Drains a shard: removes it from the ring and migrates its resident
    /// instances to their new home shards. Every other shard's residents
    /// are untouched (the consistent-hashing guarantee). Returns `false`
    /// if the shard is unknown, already drained, or the last one standing.
    /// Outstanding [`InstanceHandle`]s minted by the drained shard keep
    /// serving — they pin the artifact, not the shard. (See
    /// [`ShardedEngine::add_shard`] for the snapshot-swap semantics.)
    pub fn remove_shard(&self, id: usize) -> bool {
        let _writer = self.topology_mut.lock().expect("topology writer poisoned");
        let mut next = self.with_topology(|t| t.clone());
        if !next.map.remove_shard(id) {
            return false;
        }
        let drained = next.shards[id]
            .take()
            .expect("map had the shard, fleet must too");
        let next = Arc::new(next);
        self.install(&next);
        for inst in drained.take_instances_where(|_| true) {
            next.shard(next.map.shard_for(inst.fingerprint()))
                .insert(inst);
        }
        // Capture the drained shard's counter history only after the swap
        // and the migration sweep, so everything it recorded up to the
        // point new traffic stopped reaching it is carried over. (A
        // request that raced the swap with an already-resolved shard
        // reference may still record on the drained shard afterwards;
        // those last counts die with it — see the add_shard note on
        // eventual consistency.)
        {
            let s = drained.stats();
            let mut retired = self.retired.lock().expect("retired stats poisoned");
            retired.hits += s.hits;
            retired.misses += s.misses;
            retired.evictions += s.evictions;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::families::blowup_nfa;

    fn instance(k: usize) -> (Arc<Nfa>, usize) {
        (Arc::new(blowup_nfa(k)), 10usize)
    }

    #[test]
    fn routing_is_stable_and_unique() {
        let map = ShardMap::new(8, 64);
        for fp in 0..2000u64 {
            let owner = map.shard_for(fp);
            assert!(map.shard_ids().contains(&owner));
            assert_eq!(owner, map.shard_for(fp), "routing must be a function");
        }
        // A map holding the same shard set agrees on every key.
        let rebuilt = ShardMap::new(8, 64);
        for fp in 0..2000u64 {
            assert_eq!(map.shard_for(fp), rebuilt.shard_for(fp));
        }
    }

    #[test]
    fn virtual_nodes_spread_keys_over_every_shard() {
        let map = ShardMap::new(8, 64);
        let mut seen = [0usize; 8];
        for fp in 0..4000u64 {
            seen[map.shard_for(fp)] += 1;
        }
        for (shard, &count) in seen.iter().enumerate() {
            assert!(count > 0, "shard {shard} owns no keys");
        }
    }

    #[test]
    fn sharded_answers_match_single_engine() {
        let single = ShardedEngine::with_shards(1);
        let sharded = ShardedEngine::with_shards(4);
        for k in 3..6 {
            let (nfa, n) = instance(k);
            let a = single
                .query(&QueryRequest::automaton(
                    nfa.clone(),
                    n,
                    QueryKind::CountExact,
                    0,
                ))
                .output
                .unwrap();
            let b = sharded
                .query(&QueryRequest::automaton(nfa, n, QueryKind::CountExact, 0))
                .output
                .unwrap();
            let (QueryOutput::Exact(a), QueryOutput::Exact(b)) = (a, b) else {
                panic!("exact counts expected");
            };
            assert_eq!(a, b);
        }
    }

    #[test]
    fn instances_resolve_on_exactly_one_shard() {
        let sharded = ShardedEngine::with_shards(4);
        let mut fps = Vec::new();
        for k in 3..8 {
            let (nfa, n) = instance(k);
            let handle = sharded.prepare_nfa(&nfa, n);
            assert!(!handle.was_cached());
            assert!(sharded.prepare_nfa(&nfa, n).was_cached(), "same shard hits");
            fps.push(handle.fingerprint());
        }
        for fp in fps {
            assert_eq!(
                sharded.resident_shards(fp),
                vec![sharded.shard_for_fingerprint(fp)],
                "an instance lives on its home shard and nowhere else"
            );
        }
        let stats = sharded.stats();
        assert_eq!(stats.aggregate.misses, 5);
        assert_eq!(stats.aggregate.hits, 5);
        assert_eq!(stats.aggregate.entries, 5);
    }

    #[test]
    fn batches_preserve_order_and_duplicate_semantics() {
        let sharded = ShardedEngine::with_shards(4);
        let (a, n) = instance(4);
        let (b, _) = instance(5);
        let reqs = vec![
            QueryRequest::automaton(a.clone(), n, QueryKind::CountExact, 0),
            QueryRequest::automaton(b.clone(), n, QueryKind::CountExact, 0),
            QueryRequest::automaton(a.clone(), n, QueryKind::CountExact, 0),
            QueryRequest::automaton(b, n, QueryKind::CountExact, 0),
            QueryRequest::automaton(a, n, QueryKind::CountExact, 0),
        ];
        let responses = sharded.query_batch(&reqs);
        assert_eq!(
            responses.iter().map(|r| r.cache_hit).collect::<Vec<_>>(),
            vec![false, false, true, true, true],
            "k duplicates = 1 miss + (k-1) hits, per instance, across shards"
        );
        let stats = sharded.stats();
        assert_eq!((stats.aggregate.hits, stats.aggregate.misses), (3, 2));
    }

    #[test]
    fn add_shard_migrates_only_what_it_now_owns() {
        let sharded = ShardedEngine::with_shards(3);
        let mut homes = std::collections::HashMap::new();
        for k in 3..11 {
            let (nfa, n) = instance(k);
            let handle = sharded.prepare_nfa(&nfa, n);
            homes.insert(
                handle.fingerprint(),
                sharded.shard_for_fingerprint(handle.fingerprint()),
            );
        }
        let new = sharded.add_shard();
        assert_eq!(sharded.num_shards(), 4);
        for (&fp, &old_home) in &homes {
            let now = sharded.shard_for_fingerprint(fp);
            assert!(
                now == old_home || now == new,
                "keys only move to the new shard"
            );
            assert_eq!(
                sharded.resident_shards(fp),
                vec![now],
                "migrated in cache too"
            );
        }
        // Migration moved artifacts, not recompilations: no new misses.
        assert_eq!(sharded.stats().aggregate.misses, 8);
    }

    #[test]
    fn remove_shard_drains_into_the_survivors() {
        let sharded = ShardedEngine::with_shards(4);
        let mut handles = Vec::new();
        for k in 3..11 {
            let (nfa, n) = instance(k);
            handles.push((sharded.prepare_nfa(&nfa, n), nfa, n));
        }
        let victim = sharded.shard_for_fingerprint(handles[0].0.fingerprint());
        assert!(sharded.remove_shard(victim));
        assert!(!sharded.remove_shard(victim), "already drained");
        assert_eq!(sharded.num_shards(), 3);
        for (handle, nfa, n) in &handles {
            let fp = handle.fingerprint();
            let home = sharded.shard_for_fingerprint(fp);
            assert_ne!(home, victim);
            assert_eq!(sharded.resident_shards(fp), vec![home]);
            // Still served warm — the drained shard's artifacts migrated.
            assert!(sharded.prepare_nfa(nfa, *n).was_cached());
        }
        assert_eq!(sharded.stats().aggregate.misses, 8, "no recompilation");
    }

    #[test]
    fn last_shard_cannot_be_removed() {
        let sharded = ShardedEngine::with_shards(1);
        assert!(!sharded.remove_shard(0));
        assert_eq!(sharded.num_shards(), 1);
    }

    #[test]
    fn byte_budget_is_divided_across_shards() {
        let config = ShardedConfig {
            engine: EngineConfig {
                cache_bytes: 64 << 20,
                ..EngineConfig::default()
            },
            shards: 4,
        };
        let sharded = ShardedEngine::new(config);
        assert_eq!(sharded.shard_config.cache_bytes, 16 << 20);
    }

    #[test]
    fn domain_memo_cap_is_divided_across_shards() {
        let sharded = ShardedEngine::new(ShardedConfig {
            engine: EngineConfig {
                domain_entries: 8,
                ..EngineConfig::default()
            },
            shards: 4,
        });
        for length in 0..64 {
            sharded.prepare(&(Arc::new(blowup_nfa(3)), length));
        }
        assert!(
            sharded.stats().aggregate.domains <= 8,
            "the fleet-wide memo cap holds at any shard count"
        );
    }

    /// Equal answers, hit flags and counters, whichever entry point.
    fn assert_same_response(a: &QueryResponse, b: &QueryResponse, context: &str) {
        assert_eq!(a.cache_hit, b.cache_hit, "{context}: cache_hit");
        match (&a.output, &b.output) {
            (Ok(QueryOutput::Count(x)), Ok(QueryOutput::Count(y))) => {
                assert_eq!(x.route, y.route, "{context}: route");
                assert_eq!(x.exact, y.exact, "{context}: exact");
                assert_eq!(
                    x.estimate.to_raw_parts(),
                    y.estimate.to_raw_parts(),
                    "{context}: estimate"
                );
            }
            (Ok(QueryOutput::Exact(x)), Ok(QueryOutput::Exact(y))) => {
                assert_eq!(x, y, "{context}: exact count");
            }
            (Ok(QueryOutput::Words(x)), Ok(QueryOutput::Words(y))) => {
                assert_eq!(x, y, "{context}: words");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "{context}: error"),
            _ => panic!("{context}: output shapes diverged"),
        }
    }

    #[test]
    fn query_matches_a_one_request_batch() {
        let kinds = [
            QueryKind::Count,
            QueryKind::CountExact,
            QueryKind::Enumerate { limit: 7 },
            QueryKind::Sample { count: 5 },
        ];
        let ambiguous = Arc::new(lsc_automata::families::ambiguity_gap_nfa(3));
        for shards in [1usize, 4] {
            for kind in kinds {
                for nfa in [instance(4).0, ambiguous.clone()] {
                    let single = ShardedEngine::with_shards(shards);
                    let batched = ShardedEngine::with_shards(shards);
                    let request = QueryRequest::automaton(nfa.clone(), 8, kind, 0x5EED);
                    // A cold request, then a warm one on the same engines.
                    for pass in ["cold", "warm"] {
                        let context = format!("{kind:?} at {shards} shards, {pass}");
                        let a = single.query(&request);
                        let b = batched
                            .query_batch(std::slice::from_ref(&request))
                            .remove(0);
                        assert_same_response(&a, &b, &context);
                        let (sa, sb) = (single.stats().aggregate, batched.stats().aggregate);
                        assert_eq!((sa.hits, sa.misses), (sb.hits, sb.misses), "{context}");
                    }
                }
            }
        }
    }
}
