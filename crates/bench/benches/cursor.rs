//! E15: the streaming cursor surface — first-witness latency vs full
//! materialization, and per-page throughput warm vs cold.
//!
//! The redesign's promise is that `ENUM` keeps its delay guarantee end to
//! end: a cursor answers its first witness after preprocessing plus one
//! delay, while the old batch shape paid for the whole result set up front.
//! `scripts/bench.sh` turns the group means into the `BENCH_cursor.json`
//! snapshot: `first_witness_vs_full_speedup` (how much cheaper the first
//! answer is than materializing everything on a large instance) and
//! `warm_vs_cold_page_speedup` (what the prepared-instance cache saves per
//! resumed page).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsc_bench::workloads;
use lsc_core::engine::{ResumeToken, ShardedEngine};
use std::sync::Arc;

/// Witnesses per page in the throughput group.
const PAGE: usize = 256;

/// First-witness latency (preprocess + one delay) vs materializing the whole
/// witness set, both from a cold engine. The instance is large enough
/// (~2.4·10⁵ witnesses) that the gap is the point of the streaming API.
fn cursor_first_witness_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("cursor/e15-first-witness");
    group.sample_size(10);
    let w = workloads::cursor_instance();
    let instance = (Arc::new(w.nfa.clone()), w.n);
    group.bench_function(BenchmarkId::from_parameter("first-witness-cold"), |b| {
        b.iter(|| {
            let engine = ShardedEngine::with_shards(1);
            let mut cursor = engine.enumerate(&instance);
            cursor.next().expect("nonempty language")
        });
    });
    group.bench_function(BenchmarkId::from_parameter("full-materialization"), |b| {
        b.iter(|| {
            let engine = ShardedEngine::with_shards(1);
            engine.enumerate(&instance).count()
        });
    });
    group.finish();
}

/// Per-page throughput: a resumed page off a warm engine (the paging client's
/// steady state) vs a cold engine paying preprocessing per page. Runs on the
/// constant-delay workhorse (blowup(10)@40), where the preprocessing a cold
/// page repays — ambiguity check plus a 40-layer unrolling — is substantial.
fn cursor_page_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("cursor/e15-page-throughput");
    group.sample_size(10);
    let w = workloads::engine_ufa_instance();
    let instance = (Arc::new(w.nfa.clone()), w.n);
    // A mid-stream resume token, minted once: every warm iteration resumes
    // here, exactly as a paging client would on page k+1.
    let warm_engine = ShardedEngine::with_shards(1);
    let mut opening = warm_engine.enumerate(&instance);
    let opened: usize = opening.by_ref().take(PAGE).count();
    assert_eq!(opened, PAGE);
    let token: ResumeToken = opening.token();
    group.bench_function(BenchmarkId::from_parameter("warm-resume"), |b| {
        b.iter(|| {
            let mut cursor = warm_engine
                .resume(&instance, &token)
                .expect("token accepted");
            cursor.by_ref().take(PAGE).count()
        });
    });
    group.bench_function(BenchmarkId::from_parameter("cold-page"), |b| {
        b.iter(|| {
            let engine = ShardedEngine::with_shards(1);
            let mut cursor = engine.resume(&instance, &token).expect("token accepted");
            cursor.by_ref().take(PAGE).count()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    cursor_first_witness_vs_full,
    cursor_page_throughput
);
criterion_main!(benches);
