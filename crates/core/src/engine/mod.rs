//! The unified query engine: typed domain sessions, streaming cursors, and
//! the prepared-instance cache behind them.
//!
//! The paper routes every application through the complete problems
//! `MEM-NFA` / `MEM-UFA` (Proposition 12), so one instance type funnels all
//! the traffic — and under repeated traffic, per-call recompilation (of the
//! unrolled DAG, the ambiguity classification, the counting tables, the
//! FPRAS sketches) dominates the cost of actually answering. This module
//! implements the preprocessing/serving split the enumeration-complexity
//! literature takes as primitive, end to end:
//!
//! * [`Queryable`] — the typed serving surface: every domain type (DNF
//!   formulas, RPQ instances, spanners, regular grammars, nOBDDs, raw
//!   automata) names its reduction, its witness decoding, and a stable
//!   domain fingerprint, and the generic entry points
//!   ([`ShardedEngine::count`], [`ShardedEngine::enumerate`],
//!   [`ShardedEngine::sample`]) serve all of them from one shared cache,
//!   returning domain values instead of raw words.
//! * [`InstanceHandle`] / [`QueryTarget`] — the session layer:
//!   [`ShardedEngine::prepare`] resolves a domain object to a cheap handle
//!   once, and requests carry handles or `Arc`'d automata — no per-request
//!   automaton copies anywhere.
//! * [`EnumCursor`] / [`WordCursor`] / [`ResumeToken`] — streaming,
//!   resumable `ENUM`: witnesses are produced per `next()` call (preserving
//!   the paper's delay guarantees), and a cursor's position serializes to a
//!   compact token whose resumption is bit-identical to an uninterrupted
//!   run.
//! * [`GenStream`] / [`WordGenStream`] — amortized `GEN`: one stream keeps
//!   the exact table sampler or FPRAS sketch (and its scratch state) alive
//!   across draws.
//! * [`PreparedInstance`] — the compile-once artifact: fingerprint, CSR
//!   unrolled DAG, ambiguity classification, determinization probe, and the
//!   lazily-materialized per-problem tables (exact DP counts, FPRAS sketch).
//! * [`ShardedEngine`] / [`ShardMap`] — the one engine type: N independent
//!   fingerprint-keyed, byte-capped LRU caches of prepared instances (each
//!   with its share of the domain-session memo) behind a consistent-hash
//!   shard map, so cache resolution scales with cores. Every instance
//!   fingerprint routes to exactly one shard, shards can be added or
//!   drained with bounded key movement, and answers are bit-identical at
//!   any shard count — one shard is the plain single-cache engine. It
//!   carries the session, typed, word-level and batched [`QueryRequest`] /
//!   [`QueryResponse`] surface, with deterministic multi-threaded batch
//!   execution.
//! * [`count_routed`] and the count-route vocabulary ([`CountRoute`],
//!   [`RouterConfig`], [`RoutedCount`]) — the ambiguity-aware choice of
//!   counting algorithm, with decisions cached per instance.
//! * [`SnapshotStore`] — on-disk persistence of prepared instances, so a
//!   restarted process warms its shards instead of recompiling.
//!
//! [`crate::MemNfa`] is a thin convenience wrapper over one private
//! [`PreparedInstance`]; the engine is the same machinery with sharing
//! across instances, domains, and requests.

mod cache;
mod count_route;
mod cursor;
mod prepared;
mod queryable;
mod shard;
mod snapshot;

pub use cache::{
    EngineConfig, EngineStats, InstanceHandle, QueryError, QueryKind, QueryOutput, QueryRequest,
    QueryResponse, QueryTarget,
};
pub use count_route::{count_routed, CountRoute, RoutedCount, RouterConfig};
pub use cursor::{
    EnumCursor, GenStream, InvalidTokenError, ResumeToken, WordCursor, WordGenStream,
};
pub use prepared::PreparedInstance;
pub use queryable::{domain_fingerprint, Queryable};
pub use shard::{ShardMap, ShardedConfig, ShardedEngine, ShardedStats};
pub use snapshot::{ReadThrough, SnapshotError, SnapshotStore, SweepReport, WarmReport};
