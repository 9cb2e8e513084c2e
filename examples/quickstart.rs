//! Quickstart: the three problems (ENUM / COUNT / GEN) through the typed
//! engine surface — one `ShardedEngine`, many domains, streaming cursors.
//!
//! Run with: `cargo run --release --example quickstart`

use logspace_repro::prelude::*;
use lsc_dnf::DnfFormula;
use std::sync::Arc;

fn main() {
    let engine = ShardedEngine::with_defaults();

    // ---- The identity domain: a raw (automaton, length) instance ----------
    // Binary words containing the substring 101, at length 14.
    let alphabet = Alphabet::binary();
    let nfa = Arc::new(
        Regex::parse("(0|1)*101(0|1)*", &alphabet)
            .unwrap()
            .compile(),
    );
    let instance = (nfa.clone(), 14usize);
    println!("instance: words of length 14 matching (0|1)*101(0|1)*");
    println!("automaton: {} states", nfa.num_states());

    // COUNT — the ambiguity-aware router decides: exact where affordable,
    // the FPRAS otherwise, with provenance either way.
    let count = engine.count(&instance).unwrap();
    let marker = if count.is_exact() { "=" } else { "≈" };
    println!(
        "COUNT: {marker} {} (route: {:?})",
        count.estimate, count.route
    );

    // ENUM — a streaming cursor: the first page costs five delays, not a
    // materialization. The cursor's position serializes to a resume token...
    let mut cursor = engine.enumerate(&instance);
    let page: Vec<String> = cursor
        .by_ref()
        .take(5)
        .map(|w| lsc_automata::format_word(&w, &alphabet))
        .collect();
    let token = cursor.token();
    println!("ENUM page 1: {page:?}");
    println!("  resume token: {token}");
    // ...and a later call (any process holding the token) continues
    // bit-identically where the page stopped.
    let next: Vec<String> = engine
        .resume(&instance, &token)
        .unwrap()
        .take(3)
        .map(|w| lsc_automata::format_word(&w, &alphabet))
        .collect();
    println!("ENUM page 2: {next:?}");

    // GEN — an amortized uniform draw stream: the FPRAS sketch is built once
    // (and cached engine-wide), each draw after that is a table walk.
    let samples: Vec<String> = engine
        .sample(&instance, 2019)
        .unwrap()
        .take(5)
        .map(|w| lsc_automata::format_word(&w, &alphabet))
        .collect();
    println!("GEN (5 uniform samples): {samples:?}");

    // ---- A typed domain: SAT-DNF ------------------------------------------
    // The same engine serves application types directly; witnesses decode to
    // domain values (here: assignment bitmasks), not raw words.
    let formula: DnfFormula = "x0 & !x1 | x2 & x3 | !x0 & !x3".parse().unwrap();
    let models = engine.count(&formula).unwrap();
    println!("\nSAT-DNF: {formula}");
    println!("model count: = {}", models.estimate);
    let assignments: Vec<u128> = engine.enumerate(&formula).take(4).collect();
    for a in &assignments {
        assert!(formula.eval(*a));
    }
    println!("first models (bitmasks): {assignments:?}");
    let draws: Vec<u128> = engine.sample(&formula, 7).unwrap().take(3).collect();
    println!("uniform models (bitmasks): {draws:?}");

    // ---- Everything above shared one cache --------------------------------
    let stats = engine.stats().aggregate;
    println!(
        "\nengine: {} domain sessions, {} instances prepared, {} hits / {} misses",
        stats.domains, stats.entries, stats.hits, stats.misses
    );

    // ---- Next step: serve it over the wire --------------------------------
    // The same engine serves concurrent network clients through
    // `nfa_tool serve` — a JSON-lines protocol with sessions, paged
    // resumable enumeration, and on-disk snapshots that survive restarts.
    // See `examples/serve_client.rs` for the protocol end to end, and
    // `docs/ARCHITECTURE.md` for the full message reference.
    println!("\nnext: cargo run --release --example serve_client");
}
