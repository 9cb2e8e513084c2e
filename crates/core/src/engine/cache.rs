//! The engine's request vocabulary and its per-shard instance cache.
//!
//! A production deployment sees the same automata over and over (the same
//! RPQ against a slowly-changing graph, the same spanner over many
//! documents, the same DNF reduction re-counted under different lengths).
//! The public half of this module is the vocabulary every engine call
//! speaks: [`EngineConfig`], the session [`InstanceHandle`], and the batch
//! [`QueryRequest`] / [`QueryResponse`] types. The crate-private half is
//! [`Shard`]: one fingerprint-keyed, byte-capped LRU of
//! [`PreparedInstance`]s plus the domain-session memo, with its own
//! counters. [`ShardedEngine`](crate::engine::ShardedEngine) owns one or
//! more shards, routes every instance to exactly one of them, and carries
//! the whole query surface; a shard only resolves, touches, inserts and
//! evicts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use lsc_arith::BigNat;
use lsc_automata::{Nfa, Word};

use crate::count::exact::NotUnambiguousError;
use crate::engine::count_route::{RoutedCount, RouterConfig};
use crate::engine::prepared::PreparedInstance;
use crate::engine::queryable::Queryable;
use crate::fpras::FprasError;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Routing policy for `COUNT` requests (and the FPRAS parameters used by
    /// the ambiguous `GEN` route).
    pub router: RouterConfig,
    /// Byte cap on the instance cache (approximate accounting; the
    /// most-recently-used entry is never evicted, so one oversized instance
    /// still serves).
    pub cache_bytes: usize,
    /// Worker threads for batched dispatch (responses are identical at any
    /// setting).
    pub threads: usize,
    /// Master seed for engine-owned randomness (the cached FPRAS sketches).
    pub seed: u64,
    /// Las Vegas attempts per requested witness on the ambiguous `GEN` route.
    pub retries: usize,
    /// Entry cap on the domain-session memo (each entry pins one reduced
    /// automaton, which for document products scales with the document —
    /// least-recently-used sessions are evicted past the cap and simply
    /// re-run their reduction on the next `prepare`).
    pub domain_entries: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            router: RouterConfig::default(),
            cache_bytes: 256 << 20,
            threads: 1,
            seed: 0x10_65C0,
            retries: 256,
            domain_entries: 1024,
        }
    }
}

/// A cheap, clonable reference to one prepared instance in the engine: the
/// session half of the query API. Obtained from
/// [`ShardedEngine::prepare`](crate::engine::ShardedEngine::prepare) (typed) or
/// [`ShardedEngine::prepare_nfa`](crate::engine::ShardedEngine::prepare_nfa)
/// (raw); holding one pins the artifact in memory (the cache may still evict
/// its entry, but the handle keeps serving), and requests built on a handle
/// skip instance resolution entirely.
#[derive(Clone)]
pub struct InstanceHandle {
    inst: Arc<PreparedInstance>,
    key: InstanceKey,
    cache_hit: bool,
}

impl InstanceHandle {
    /// The prepared artifact.
    pub fn instance(&self) -> &Arc<PreparedInstance> {
        &self.inst
    }

    /// The instance fingerprint (what resume tokens bind to).
    pub fn fingerprint(&self) -> u64 {
        self.inst.fingerprint()
    }

    /// The witness length `n`.
    pub fn length(&self) -> usize {
        self.inst.length()
    }

    /// Whether the instance was already cached when the handle was prepared
    /// (the session-level analogue of [`QueryResponse::cache_hit`]).
    pub fn was_cached(&self) -> bool {
        self.cache_hit
    }
}

/// What a [`QueryRequest`] runs against. Both forms are cheap to clone —
/// the per-request deep copy of the automaton is gone by construction.
#[derive(Clone)]
pub enum QueryTarget {
    /// An automaton and witness length, resolved through the instance cache
    /// at batch time (first occurrence pays the preparation, later ones hit).
    Automaton {
        /// The automaton `N`, shared.
        nfa: Arc<Nfa>,
        /// The witness length `n`.
        length: usize,
    },
    /// A pre-resolved session handle: no cache lookup cost beyond an LRU
    /// touch, and a guaranteed hit unless the entry was evicted meanwhile.
    Handle(InstanceHandle),
}

/// One query against one instance. `seed` feeds the randomized kinds
/// (`Count` on the FPRAS route is seeded by the engine instead — see the
/// module docs — so equal requests give equal answers regardless of order).
#[derive(Clone)]
pub struct QueryRequest {
    /// The instance to query.
    pub target: QueryTarget,
    /// Which of the paper's three problems to answer.
    pub kind: QueryKind,
    /// Request-owned randomness for `Sample`.
    pub seed: u64,
}

impl QueryRequest {
    /// A request against `(nfa, length)`. Accepts `Nfa` or `Arc<Nfa>`; pass
    /// the same `Arc` across requests to share one allocation batch-wide.
    pub fn automaton(nfa: impl Into<Arc<Nfa>>, length: usize, kind: QueryKind, seed: u64) -> Self {
        QueryRequest {
            target: QueryTarget::Automaton {
                nfa: nfa.into(),
                length,
            },
            kind,
            seed,
        }
    }

    /// A request against a prepared session handle.
    pub fn on(handle: &InstanceHandle, kind: QueryKind, seed: u64) -> Self {
        QueryRequest {
            target: QueryTarget::Handle(handle.clone()),
            kind,
            seed,
        }
    }
}

/// The problem to answer, in the paper's `COUNT` / `ENUM` / `GEN` taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Routed `COUNT`: exact where exactness is affordable, FPRAS otherwise.
    Count,
    /// Exact `COUNT` (Theorem 5) — errors on ambiguous instances.
    CountExact,
    /// `ENUM`: constant delay on UFA instances, polynomial delay otherwise,
    /// truncated to `limit` witnesses. Batch answers are buffered; use
    /// [`ShardedEngine::enumerate`](crate::engine::ShardedEngine::enumerate) /
    /// [`ShardedEngine::cursor`](crate::engine::ShardedEngine::cursor) for
    /// streaming and paging.
    Enumerate {
        /// Maximum number of witnesses to return.
        limit: usize,
    },
    /// `GEN`: `count` uniform witnesses (exact on UFA instances, Las Vegas
    /// otherwise). Batch answers are buffered; use
    /// [`ShardedEngine::sample`](crate::engine::ShardedEngine::sample) /
    /// [`ShardedEngine::gen_stream`](crate::engine::ShardedEngine::gen_stream)
    /// for an amortized draw stream.
    Sample {
        /// Number of witnesses requested.
        count: usize,
    },
}

/// A successful query answer.
#[derive(Clone, Debug)]
pub enum QueryOutput {
    /// `Count`: the routed count with provenance.
    Count(RoutedCount),
    /// `CountExact`: the exact witness count.
    Exact(BigNat),
    /// `Enumerate` / `Sample`: the witnesses.
    Words(Vec<Word>),
}

/// Why a query failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// `CountExact` on an ambiguous instance.
    NotUnambiguous,
    /// An FPRAS failure event (vanishing probability) on a randomized route.
    Fpras(FprasError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NotUnambiguous => NotUnambiguousError.fmt(f),
            QueryError::Fpras(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<FprasError> for QueryError {
    fn from(e: FprasError) -> Self {
        QueryError::Fpras(e)
    }
}

impl From<NotUnambiguousError> for QueryError {
    fn from(NotUnambiguousError: NotUnambiguousError) -> Self {
        QueryError::NotUnambiguous
    }
}

/// One answered query.
///
/// **`cache_hit` semantics.** Resolution runs single-threaded in request
/// order before the execution fan-out, and the flag records what the cache
/// held *at that request's turn*. Consequences, all deterministic:
///
/// * within one batch, a duplicate of an earlier request reports a hit even
///   if the batch as a whole arrived cold (the first occurrence inserted the
///   instance);
/// * a [`QueryTarget::Handle`] request reports a hit as long as its entry is
///   still cached — normally always, since
///   [`ShardedEngine::prepare`](crate::engine::ShardedEngine::prepare) inserted
///   it; if the entry was evicted in between, the handle re-inserts its pinned
///   instance and reports a miss (no recompilation happens either way);
/// * hit/miss totals in [`EngineStats`] count resolutions, so `k` duplicate
///   requests contribute `1` miss and `k − 1` hits regardless of thread
///   count or arrival order.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The answer, or why there is none.
    pub output: Result<QueryOutput, QueryError>,
    /// Whether the instance was already cached when this request was
    /// resolved (see the type docs for the exact semantics).
    pub cache_hit: bool,
}

/// Cache counters, for observability and the cache-behavior tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests that found their instance in the cache.
    pub hits: u64,
    /// Requests that had to insert a fresh instance.
    pub misses: u64,
    /// Instances evicted by the byte cap.
    pub evictions: u64,
    /// Instances currently cached.
    pub entries: usize,
    /// Approximate bytes currently cached.
    pub bytes: usize,
    /// Domain sessions memoized (distinct `Queryable` fingerprints whose
    /// reduction has run).
    pub domains: usize,
}

/// The cache key of one `(automaton, length)` instance. It is wider than
/// the 64-bit instance fingerprint, so two instances whose fingerprints
/// collide still resolve to different entries (and a snapshot file of one
/// is never served for the other — see
/// [`crate::engine::SnapshotStore::read_through`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct InstanceKey {
    fingerprint: u64,
    states: usize,
    transitions: usize,
    length: usize,
}

impl InstanceKey {
    pub(crate) fn of(nfa: &Nfa, length: usize) -> Self {
        InstanceKey {
            fingerprint: nfa.fingerprint(),
            states: nfa.num_states(),
            transitions: nfa.num_transitions(),
            length,
        }
    }
}

struct Entry {
    inst: Arc<PreparedInstance>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    entries: HashMap<InstanceKey, Entry>,
    total_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The domain-session memo behind
/// [`ShardedEngine::prepare`](crate::engine::ShardedEngine::prepare): an
/// entry-capped LRU of reduction outputs.
#[derive(Default)]
struct DomainMemo {
    entries: HashMap<u64, (Arc<Nfa>, usize, u64)>,
    tick: u64,
}

impl DomainMemo {
    /// Touches and returns a memoized reduction.
    fn get(&mut self, domain: u64) -> Option<(Arc<Nfa>, usize)> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&domain).map(|(nfa, length, used)| {
            *used = tick;
            (nfa.clone(), *length)
        })
    }

    /// Inserts a reduction, evicting least-recently-used sessions past the
    /// cap (an evicted session just re-runs its reduction next time).
    fn insert(&mut self, domain: u64, nfa: Arc<Nfa>, length: usize, cap: usize) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(domain, (nfa, length, tick));
        while self.entries.len() > cap.max(1) {
            let Some((&victim, _)) = self
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="victim choice keyed on (unique monotonic tick, domain id); min is order-independent"
                .iter()
                .min_by_key(|(&domain, (_, _, used))| (*used, domain))
            else {
                break;
            };
            self.entries.remove(&victim);
        }
    }
}

/// One shard of the engine's instance cache: a fingerprint-keyed,
/// byte-capped LRU of prepared instances, the domain-session memo, and the
/// shard's own counters. See the module docs.
pub(crate) struct Shard {
    /// Byte cap on this shard's instances (approximate accounting; the
    /// most-recently-used entry is never evicted, so one oversized instance
    /// still serves).
    cache_bytes: usize,
    /// Entry cap on this shard's domain memo.
    domain_entries: usize,
    inner: Mutex<CacheInner>,
    /// Domain-session memo: `Queryable::domain_fingerprint` → the reduction's
    /// output, so `prepare` re-runs no reduction for a known domain object.
    /// Holds the automaton (which for document/graph products scales with
    /// the data, hence the `domain_entries` LRU cap), never the prepared
    /// tables — eviction of the instance cache stays effective.
    domains: Mutex<DomainMemo>,
}

impl Shard {
    /// An empty shard with `config`'s byte and domain caps (the caller has
    /// already divided them across the fleet).
    pub(crate) fn new(config: &EngineConfig) -> Shard {
        Shard {
            cache_bytes: config.cache_bytes,
            domain_entries: config.domain_entries,
            inner: Mutex::new(CacheInner::default()),
            domains: Mutex::new(DomainMemo::default()),
        }
    }

    /// This shard's counters.
    pub(crate) fn stats(&self) -> EngineStats {
        let inner = self.inner.lock().expect("engine cache poisoned");
        EngineStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            bytes: inner.total_bytes,
            domains: self
                .domains
                .lock()
                .expect("domain index poisoned")
                .entries
                .len(),
        }
    }

    /// The memoized reduction of a domain object: runs
    /// [`Queryable::to_instance`] at most once per domain fingerprint while
    /// the memo holds it.
    pub(crate) fn domain_instance<Q: Queryable + ?Sized>(
        &self,
        queryable: &Q,
    ) -> (Arc<Nfa>, usize) {
        let domain = queryable.domain_fingerprint();
        let memoized = self
            .domains
            .lock()
            .expect("domain index poisoned")
            .get(domain);
        match memoized {
            Some(pair) => pair,
            None => {
                let (nfa, length) = queryable.to_instance();
                self.domains.lock().expect("domain index poisoned").insert(
                    domain,
                    nfa.clone(),
                    length,
                    self.domain_entries,
                );
                (nfa, length)
            }
        }
    }

    /// Resolves a request target: served from the cache when present,
    /// inserted otherwise — lazily for an automaton (nothing materialized
    /// yet; only the `Arc` is cloned), or as the pinned artifact for a
    /// handle whose entry was evicted (a miss, but no recompilation).
    pub(crate) fn resolve(&self, target: &QueryTarget) -> InstanceHandle {
        match target {
            QueryTarget::Automaton { nfa, length } => self.resolve_nfa(nfa, *length),
            QueryTarget::Handle(handle) => self.resolve_with(handle.key, || handle.inst.clone()),
        }
    }

    /// [`Shard::resolve`] for a raw `(automaton, length)` instance.
    pub(crate) fn resolve_nfa(&self, nfa: &Arc<Nfa>, length: usize) -> InstanceHandle {
        self.resolve_with(InstanceKey::of(nfa, length), || {
            Arc::new(PreparedInstance::from_arc(nfa.clone(), length))
        })
    }

    /// [`Shard::resolve_nfa`] with a read-through on a miss: when the
    /// instance is not resident, `load` may supply it (the serving layer
    /// reads a persisted snapshot) before a cold, lazily compiled instance
    /// is built. The lookup and the insert each take the cache lock; `load`
    /// runs between them with no lock held, so file I/O never blocks the
    /// cache. If another resolution inserted the instance meanwhile, that
    /// entry wins. A read-through still counts as a miss. `load` must
    /// return an instance of exactly `(nfa, length)`.
    pub(crate) fn resolve_or_load(
        &self,
        nfa: &Arc<Nfa>,
        length: usize,
        load: impl FnOnce() -> Option<Arc<PreparedInstance>>,
    ) -> InstanceHandle {
        let key = InstanceKey::of(nfa, length);
        {
            let mut inner = self.inner.lock().expect("engine cache poisoned");
            if let Some(inst) = self.touch_locked(&mut inner, &key) {
                inner.hits += 1;
                return handle(inst, key, true);
            }
            inner.misses += 1;
        }
        let loaded = load();
        debug_assert!(loaded
            .as_ref()
            .is_none_or(|inst| InstanceKey::of(inst.nfa_arc(), inst.length()) == key));
        let fresh =
            loaded.unwrap_or_else(|| Arc::new(PreparedInstance::from_arc(nfa.clone(), length)));
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        let inst = match self.touch_locked(&mut inner, &key) {
            Some(raced) => raced,
            None => {
                self.insert_locked(&mut inner, key, fresh.clone());
                fresh
            }
        };
        handle(inst, key, false)
    }

    /// Inserts an externally constructed instance (a warm-restart load or
    /// a migration from another shard). If the key is already cached, the
    /// existing artifact wins. This is not request traffic, so neither path
    /// touches the hit/miss counters.
    pub(crate) fn insert(&self, inst: Arc<PreparedInstance>) -> InstanceHandle {
        let key = InstanceKey::of(inst.nfa_arc(), inst.length());
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        if let Some(existing) = self.touch_locked(&mut inner, &key) {
            return handle(existing, key, true);
        }
        self.insert_locked(&mut inner, key, inst.clone());
        handle(inst, key, false)
    }

    /// The instance fingerprints currently resident, sorted.
    pub(crate) fn resident_fingerprints(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("engine cache poisoned");
        let mut fps: Vec<u64> = inner
            .entries
            // lsc-analyze: allow(nondeterministic-iteration) reason="collected set is sorted before return; iteration order cannot leak"
            .values()
            .map(|e| e.inst.fingerprint())
            .collect();
        fps.sort_unstable();
        fps
    }

    /// Removes and returns every cached instance whose fingerprint matches
    /// the predicate, in fingerprint order. The byte accounting shrinks
    /// accordingly; nothing counts as an eviction (the instances are being
    /// *moved*, not dropped — this is the shard add/drain migration hook).
    pub(crate) fn take_instances_where(
        &self,
        mut pred: impl FnMut(u64) -> bool,
    ) -> Vec<Arc<PreparedInstance>> {
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        let mut keys: Vec<InstanceKey> = inner
            .entries
            // lsc-analyze: allow(nondeterministic-iteration) reason="matched keys are sorted below and the output is sorted by fingerprint"
            .iter()
            .filter(|(_, e)| pred(e.inst.fingerprint()))
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let entry = inner.entries.remove(&key).expect("key just listed");
            inner.total_bytes = inner.total_bytes.saturating_sub(entry.bytes);
            out.push(entry.inst);
        }
        out.sort_by_key(|inst| inst.fingerprint());
        out
    }

    /// Re-measures the given resolutions (their lazy tables may have grown
    /// during execution) and evicts least-recently-used entries until the
    /// byte cap holds again. Keys come from the resolution — no
    /// re-fingerprinting here.
    pub(crate) fn refresh_bytes<'a>(&self, touched: impl IntoIterator<Item = &'a InstanceHandle>) {
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        let mut delta: isize = 0;
        for r in touched {
            let fresh = r.inst.approx_bytes();
            if let Some(entry) = inner.entries.get_mut(&r.key) {
                if Arc::ptr_eq(&entry.inst, &r.inst) {
                    delta += fresh as isize - entry.bytes as isize;
                    entry.bytes = fresh;
                }
            }
        }
        inner.total_bytes = inner.total_bytes.saturating_add_signed(delta);
        self.evict_locked(&mut inner);
    }

    /// Resolves `key` through the cache: on a hit, touches LRU state and
    /// re-measures the entry; on a miss, inserts whatever `make` builds.
    fn resolve_with(
        &self,
        key: InstanceKey,
        make: impl FnOnce() -> Arc<PreparedInstance>,
    ) -> InstanceHandle {
        let mut inner = self.inner.lock().expect("engine cache poisoned");
        if let Some(inst) = self.touch_locked(&mut inner, &key) {
            inner.hits += 1;
            return handle(inst, key, true);
        }
        inner.misses += 1;
        let inst = make();
        self.insert_locked(&mut inner, key, inst.clone());
        handle(inst, key, false)
    }

    /// Advances the LRU clock and, if `key` is resident, marks it most
    /// recently used and re-measures it. Counts nothing: callers decide
    /// whether the touch is a hit.
    fn touch_locked(
        &self,
        inner: &mut CacheInner,
        key: &InstanceKey,
    ) -> Option<Arc<PreparedInstance>> {
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(key)?;
        entry.last_used = tick;
        // Re-measure on every touch (cheap — per-table sizes are memoized)
        // so tables materialized through a directly-held `Arc` or
        // `InstanceHandle` are accounted for too.
        let fresh = entry.inst.approx_bytes();
        let old = std::mem::replace(&mut entry.bytes, fresh);
        let inst = entry.inst.clone();
        inner.total_bytes = (inner.total_bytes + fresh).saturating_sub(old);
        self.evict_locked(inner);
        Some(inst)
    }

    /// Inserts `inst` under `key` as the most recently used entry (the
    /// clock tick of the [`Shard::touch_locked`] that just missed) and
    /// enforces the byte cap.
    fn insert_locked(&self, inner: &mut CacheInner, key: InstanceKey, inst: Arc<PreparedInstance>) {
        let bytes = inst.approx_bytes();
        inner.total_bytes += bytes;
        let last_used = inner.tick;
        inner.entries.insert(
            key,
            Entry {
                inst,
                bytes,
                last_used,
            },
        );
        self.evict_locked(inner);
    }

    fn evict_locked(&self, inner: &mut CacheInner) {
        while inner.total_bytes > self.cache_bytes && inner.entries.len() > 1 {
            let newest = inner
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="max over unique monotonic last_used ticks; order-independent"
                .values()
                .map(|e| e.last_used)
                .max()
                .expect("nonempty");
            let Some((&victim, _)) = inner
                .entries
                // lsc-analyze: allow(nondeterministic-iteration) reason="victim choice keyed on (unique monotonic tick, instance key); min is order-independent"
                .iter()
                .filter(|(_, e)| e.last_used != newest)
                .min_by_key(|(&k, e)| (e.last_used, k))
            else {
                break;
            };
            let entry = inner.entries.remove(&victim).expect("victim present");
            inner.total_bytes -= entry.bytes;
            inner.evictions += 1;
        }
    }
}

fn handle(inst: Arc<PreparedInstance>, key: InstanceKey, cache_hit: bool) -> InstanceHandle {
    InstanceHandle {
        inst,
        key,
        cache_hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ResumeToken, ShardedConfig, ShardedEngine};
    use lsc_automata::families::{ambiguity_gap_nfa, blowup_nfa};
    use lsc_automata::regex::Regex;
    use lsc_automata::Alphabet;

    fn exact_count_request(k: usize, n: usize) -> QueryRequest {
        QueryRequest::automaton(blowup_nfa(k), n, QueryKind::CountExact, 0)
    }

    /// The cache semantics are a shard's: pinned on a one-shard engine.
    fn one_shard(engine: EngineConfig) -> ShardedEngine {
        ShardedEngine::new(ShardedConfig { engine, shards: 1 })
    }

    fn target_nfa(r: &QueryRequest) -> Arc<Nfa> {
        match &r.target {
            QueryTarget::Automaton { nfa, .. } => nfa.clone(),
            QueryTarget::Handle(h) => h.instance().nfa_arc().clone(),
        }
    }

    fn target_length(r: &QueryRequest) -> usize {
        match &r.target {
            QueryTarget::Automaton { length, .. } => *length,
            QueryTarget::Handle(h) => h.length(),
        }
    }

    #[test]
    fn warm_requests_hit_the_cache() {
        let engine = one_shard(EngineConfig::default());
        let r = exact_count_request(4, 10);
        let cold = engine.query(&r);
        assert!(!cold.cache_hit);
        let warm = engine.query(&r);
        assert!(warm.cache_hit);
        let (Ok(QueryOutput::Exact(a)), Ok(QueryOutput::Exact(b))) = (cold.output, warm.output)
        else {
            panic!("exact counts expected");
        };
        assert_eq!(a, b);
        let stats = engine.stats().aggregate;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        // A cap small enough that two warmed instances cannot coexist.
        let config = EngineConfig {
            cache_bytes: 1, // everything over budget: keep only the newest
            ..EngineConfig::default()
        };
        let engine = one_shard(config);
        let a = exact_count_request(4, 10);
        let b = exact_count_request(5, 12);
        engine.query(&a);
        engine.query(&b); // evicts a
        assert_eq!(engine.stats().aggregate.entries, 1);
        assert!(engine.stats().aggregate.evictions >= 1);
        let again = engine.query(&a); // must be a fresh miss
        assert!(!again.cache_hit, "evicted instance cannot hit");
        // A generous cap keeps both.
        let engine = one_shard(EngineConfig::default());
        engine.query(&a);
        engine.query(&b);
        assert_eq!(engine.stats().aggregate.entries, 2);
        assert!(engine.query(&a).cache_hit);
        assert_eq!(engine.stats().aggregate.evictions, 0);
    }

    #[test]
    fn byte_accounting_tracks_materialized_tables() {
        let engine = one_shard(EngineConfig::default());
        let r = exact_count_request(6, 20);
        engine.prepared(&target_nfa(&r), target_length(&r)); // lazy insert
        let before = engine.stats().aggregate.bytes;
        engine.query(&r); // materializes the DAG + completion table
        assert!(
            engine.stats().aggregate.bytes > before,
            "post-query refresh must record the grown tables"
        );
    }

    #[test]
    fn directly_held_arcs_are_accounted_on_next_touch() {
        // Tables materialized through an Arc from ShardedEngine::prepared (the
        // app-crate usage path) bypass query_batch's refresh; the next cache
        // touch must pick the growth up.
        let engine = one_shard(EngineConfig::default());
        let r = exact_count_request(6, 20);
        let inst = engine.prepared(&target_nfa(&r), target_length(&r));
        let before = engine.stats().aggregate.bytes;
        let _ = inst.count_exact().unwrap();
        let _ = engine.prepared(&target_nfa(&r), target_length(&r));
        assert!(
            engine.stats().aggregate.bytes > before,
            "hit-path re-measure must record tables built through the Arc"
        );
    }

    #[test]
    fn batch_marks_duplicate_instances_as_hits() {
        // The regression pin for intra-batch duplicate semantics (see the
        // `QueryResponse` docs): flags and stats follow resolution order.
        let engine = one_shard(EngineConfig::default());
        let reqs = vec![
            exact_count_request(4, 10),
            exact_count_request(5, 10),
            exact_count_request(4, 10), // same instance as #0
            exact_count_request(4, 10), // and again
            exact_count_request(5, 10), // same instance as #1
        ];
        let responses = engine.query_batch(&reqs);
        assert_eq!(
            responses.iter().map(|r| r.cache_hit).collect::<Vec<_>>(),
            vec![false, false, true, true, true]
        );
        let stats = engine.stats().aggregate;
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (3, 2, 2),
            "k duplicates = 1 miss + (k-1) hits, per instance"
        );
    }

    #[test]
    fn handle_requests_skip_resolution_and_report_hits() {
        let engine = one_shard(EngineConfig::default());
        let nfa = Arc::new(blowup_nfa(4));
        let handle = engine.prepare_nfa(&nfa, 10);
        assert!(!handle.was_cached(), "first prepare is the miss");
        assert!(engine.prepare_nfa(&nfa, 10).was_cached());
        let reqs = vec![
            QueryRequest::on(&handle, QueryKind::CountExact, 0),
            QueryRequest::on(&handle, QueryKind::Enumerate { limit: 4 }, 0),
        ];
        let responses = engine.query_batch(&reqs);
        assert!(
            responses.iter().all(|r| r.cache_hit),
            "handle requests are hits while the entry is cached"
        );
        // All resolutions point at the very Arc the handle pins.
        assert!(Arc::ptr_eq(handle.instance(), &engine.prepared(&nfa, 10)));
        let stats = engine.stats().aggregate;
        assert_eq!((stats.hits, stats.misses), (4, 1));
    }

    #[test]
    fn read_through_misses_load_without_the_lock_and_racing_inserts_win() {
        let engine = one_shard(EngineConfig::default());
        let nfa = Arc::new(blowup_nfa(3));
        let loaded = Arc::new(PreparedInstance::from_arc(nfa.clone(), 8));
        let handle = engine.prepare_nfa_or_load(&nfa, 8, || Some(loaded.clone()));
        assert!(!handle.was_cached(), "a read-through is a miss");
        assert!(
            Arc::ptr_eq(handle.instance(), &loaded),
            "loaded entry served"
        );
        // Resident now: the loader is not consulted again.
        let again = engine.prepare_nfa_or_load(&nfa, 8, || unreachable!("hit"));
        assert!(again.was_cached());
        assert_eq!(
            (
                engine.stats().aggregate.hits,
                engine.stats().aggregate.misses
            ),
            (1, 1)
        );
        // The loader runs with the cache unlocked (it can use the engine),
        // and an entry inserted while it ran beats the loaded one.
        let other = Arc::new(blowup_nfa(4));
        let racer = Arc::new(PreparedInstance::from_arc(other.clone(), 9));
        let raced = engine.prepare_nfa_or_load(&other, 9, || {
            engine.insert_prepared(racer.clone());
            Some(Arc::new(PreparedInstance::from_arc(other.clone(), 9)))
        });
        assert!(!raced.was_cached());
        assert!(
            Arc::ptr_eq(raced.instance(), &racer),
            "the racing insert wins"
        );
        // No loader result compiles cold, lazily.
        let cold = engine.prepare_nfa_or_load(&Arc::new(blowup_nfa(2)), 5, || None);
        assert!(!cold.was_cached());
        assert_eq!(engine.stats().aggregate.misses, 3);
    }

    #[test]
    fn evicted_handles_reinsert_without_recompiling() {
        let config = EngineConfig {
            cache_bytes: 1,
            ..EngineConfig::default()
        };
        let engine = one_shard(config);
        let a = Arc::new(blowup_nfa(4));
        let handle = engine.prepare_nfa(&a, 10);
        engine.query(&exact_count_request(5, 12)); // evicts a's entry
        let response = engine.query(&QueryRequest::on(&handle, QueryKind::CountExact, 0));
        assert!(
            !response.cache_hit,
            "an evicted handle reports a miss on re-insert"
        );
        // ...but the served instance is still the pinned artifact, not a
        // recompilation.
        assert!(Arc::ptr_eq(handle.instance(), &engine.prepared(&a, 10)));
    }

    #[test]
    fn all_three_problems_serve_from_one_instance() {
        let ab = Alphabet::binary();
        let nfa = Arc::new(Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile());
        let engine = one_shard(EngineConfig::default());
        let reqs = vec![
            QueryRequest::automaton(nfa.clone(), 7, QueryKind::Count, 1),
            QueryRequest::automaton(
                nfa.clone(),
                7,
                QueryKind::Enumerate { limit: usize::MAX },
                1,
            ),
            QueryRequest::automaton(nfa.clone(), 7, QueryKind::Sample { count: 5 }, 2),
        ];
        let responses = engine.query_batch(&reqs);
        let Ok(QueryOutput::Count(count)) = &responses[0].output else {
            panic!("count expected")
        };
        let Ok(QueryOutput::Words(words)) = &responses[1].output else {
            panic!("words expected")
        };
        let Ok(QueryOutput::Words(samples)) = &responses[2].output else {
            panic!("samples expected")
        };
        // One instance resolved three times.
        assert_eq!(engine.stats().aggregate.misses, 1);
        assert_eq!(engine.stats().aggregate.hits, 2);
        if let Some(exact) = &count.exact {
            assert_eq!(words.len() as u64, exact.to_u64().unwrap());
        }
        for w in samples {
            assert!(nfa.accepts(w));
        }
    }

    #[test]
    fn exact_count_on_ambiguous_reports_error() {
        let engine = one_shard(EngineConfig::default());
        let r = QueryRequest::automaton(ambiguity_gap_nfa(3), 8, QueryKind::CountExact, 0);
        assert_eq!(
            engine.query(&r).output.unwrap_err(),
            QueryError::NotUnambiguous
        );
    }

    #[test]
    fn typed_entry_points_reuse_one_domain_session() {
        // The raw identity Queryable through the generic surface: count,
        // cursor, and stream agree, and the domain index memoizes the
        // (trivial) reduction.
        let instance = (Arc::new(blowup_nfa(3)), 8usize);
        let engine = one_shard(EngineConfig::default());
        let count = engine.count_exact(&instance).unwrap().to_u64().unwrap();
        let words: Vec<Word> = engine.enumerate(&instance).collect();
        assert_eq!(words.len() as u64, count);
        let samples: Vec<Word> = engine.sample(&instance, 3).unwrap().take(4).collect();
        for w in &samples {
            assert!(instance.0.accepts(w));
        }
        let stats = engine.stats().aggregate;
        assert_eq!(stats.misses, 1, "one prepared instance for all entries");
        assert_eq!(stats.domains, 1, "one memoized domain session");
    }

    #[test]
    fn domain_memo_is_entry_capped() {
        // The session memo pins reduced automata; past the cap it must evict
        // (least-recently-used first) instead of growing without bound.
        let config = EngineConfig {
            domain_entries: 2,
            ..EngineConfig::default()
        };
        let engine = one_shard(config);
        let a = (Arc::new(blowup_nfa(3)), 6usize);
        let b = (Arc::new(blowup_nfa(4)), 6usize);
        let c = (Arc::new(blowup_nfa(5)), 6usize);
        engine.prepare(&a);
        engine.prepare(&b);
        assert_eq!(engine.stats().aggregate.domains, 2);
        engine.prepare(&a); // touch: b is now the LRU session
        engine.prepare(&c); // evicts b
        assert_eq!(engine.stats().aggregate.domains, 2, "cap holds");
        // An evicted session is not an error — it just re-runs the
        // reduction and re-enters the memo.
        engine.prepare(&b);
        assert_eq!(engine.stats().aggregate.domains, 2);
    }

    #[test]
    fn typed_cursor_resume_round_trips() {
        let instance = (Arc::new(blowup_nfa(3)), 8usize);
        let engine = one_shard(EngineConfig::default());
        let all: Vec<Word> = engine.enumerate(&instance).collect();
        let mut cursor = engine.enumerate(&instance);
        let first: Vec<Word> = cursor.by_ref().take(3).collect();
        let token = ResumeToken::parse(&cursor.token().encode()).unwrap();
        let rest: Vec<Word> = engine.resume(&instance, &token).unwrap().collect();
        let stitched: Vec<Word> = first.into_iter().chain(rest).collect();
        assert_eq!(stitched, all);
    }
}
