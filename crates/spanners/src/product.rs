//! The document product: `EVAL-eVA → MEM-NFA`.

use std::sync::Arc;

use lsc_arith::{BigFloat, BigNat};
use lsc_automata::{Alphabet, Nfa, Symbol};
use lsc_core::count::exact::NotUnambiguousError;
use lsc_core::engine::{domain_fingerprint, RoutedCount, RouterConfig};
use lsc_core::fpras::{FprasError, FprasParams};
use lsc_core::{MemNfa, Queryable};
use rand::Rng;

use crate::{Eva, Mapping, MarkerSet, Span};

/// An `EVAL-eVA` instance: a functional eVA evaluated over one document,
/// reduced to MEM-NFA.
///
/// Witness encoding: a word `S_0 S_1 … S_n` over the alphabet of marker sets
/// (including ∅), where `S_i` is the paper's `X_{i+1}` — the set fired at
/// document position `i`. Since mappings are total, the word determines the
/// mapping and vice versa; unambiguity of the product automaton coincides
/// with the paper's unambiguous-eVA notion over this document.
pub struct SpannerInstance {
    eva: Eva,
    document: Vec<Symbol>,
    /// Witness symbol id → marker-set mask (`sets[sym]`).
    sets: Vec<MarkerSet>,
    instance: MemNfa,
}

impl SpannerInstance {
    /// Builds the product of `eva` with `document`.
    ///
    /// # Panics
    /// Panics if the eVA is not functional (the paper's standing hypothesis —
    /// `⟦A⟧(d)` of a non-functional eVA requires the NP-hard validity check)
    /// or if the document contains characters outside the eVA's alphabet.
    pub fn new(eva: Eva, document: &str) -> Self {
        assert!(
            eva.is_functional(),
            "SpannerInstance requires a functional eVA"
        );
        let doc: Vec<Symbol> = document
            .chars()
            .map(|c| {
                eva.alphabet()
                    .symbol_of(c)
                    .expect("document character outside the eVA alphabet")
            })
            .collect();
        // Witness alphabet: ∅ first, then each used marker set.
        let mut sets = vec![0 as MarkerSet];
        sets.extend(eva.used_marker_sets());
        let n = doc.len();
        let m = eva.num_states();
        // Product states: (eva state, position 0..=n) plus an accept sink.
        let state_of = |q: usize, i: usize| i * m + q;
        let sink = (n + 1) * m;
        let mut b = Nfa::builder(Alphabet::sized(sets.len()), sink + 1);
        b.set_initial(state_of(eva.initial(), 0));
        b.set_accepting(sink);
        for i in 0..=n {
            for q in 0..m {
                // Choosing marker set S at position i: either ∅ (stay at q) or
                // an explicit varset transition.
                let mut after: Vec<(usize, usize)> = vec![(0, q)]; // (set idx, state)
                for &(mask, to) in eva.varsets_from(q) {
                    let idx = sets.iter().position(|&s| s == mask).expect("interned");
                    after.push((idx, to));
                }
                for (set_idx, p) in after {
                    if let Some(&expected) = doc.get(i) {
                        // ...then the letter d[i].
                        for &(a, to) in eva.letters_from(p) {
                            if a == expected {
                                b.add_transition(
                                    state_of(q, i),
                                    set_idx as Symbol,
                                    state_of(to, i + 1),
                                );
                            }
                        }
                    } else if eva.is_final(p) {
                        // Final marker set X_{n+1}, then accept.
                        b.add_transition(state_of(q, i), set_idx as Symbol, sink);
                    }
                }
            }
        }
        let nfa = b.build().trimmed();
        let instance = MemNfa::new(nfa, n + 1);
        SpannerInstance {
            eva,
            document: doc,
            sets,
            instance,
        }
    }

    /// The underlying MEM-NFA instance.
    pub fn mem_nfa(&self) -> &MemNfa {
        &self.instance
    }

    /// The document length `n`.
    pub fn document_len(&self) -> usize {
        self.document.len()
    }

    /// Is the spanner unambiguous over this document (Corollary 7's
    /// hypothesis)? Equivalent to unambiguity of the product automaton.
    pub fn is_unambiguous(&self) -> bool {
        self.instance.is_unambiguous()
    }

    /// Decodes a witness word into a mapping.
    fn decode(&self, word: &[Symbol]) -> Mapping {
        let vars = self.eva.num_vars();
        let mut starts = vec![usize::MAX; vars];
        let mut spans = vec![Span::new(0, 0); vars];
        for (i, &sym) in word.iter().enumerate() {
            let mask = self.sets[sym as usize];
            for v in 0..vars {
                if mask >> (2 * v) & 1 == 1 {
                    starts[v] = i;
                }
                if mask >> (2 * v + 1) & 1 == 1 {
                    debug_assert_ne!(starts[v], usize::MAX, "functional eVA closes after open");
                    spans[v] = Span::new(starts[v], i);
                }
            }
        }
        Mapping { spans }
    }

    /// Exact number of mappings for an unambiguous spanner (Corollary 7).
    ///
    /// # Errors
    /// [`NotUnambiguousError`] if the product is ambiguous.
    pub fn count_exact(&self) -> Result<BigNat, NotUnambiguousError> {
        self.instance.count_exact()
    }

    /// Ground-truth mapping count via determinization (test oracle).
    pub fn count_oracle(&self) -> BigNat {
        self.instance.count_oracle()
    }

    /// FPRAS estimate of `|⟦A⟧(d)|` (Corollary 6).
    ///
    /// # Errors
    /// Propagates FPRAS failure events.
    pub fn count_approx<R: Rng + ?Sized>(
        &self,
        params: FprasParams,
        rng: &mut R,
    ) -> Result<BigFloat, FprasError> {
        self.instance.count_approx(params, rng)
    }

    /// Routed mapping count: exact for unambiguous (or small-product)
    /// spanners, FPRAS otherwise. The classification and determinization
    /// probe are cached on this instance — the information-extraction serving
    /// pattern evaluates one spanner against many requests, and only the
    /// first pays for the routing decision.
    ///
    /// # Errors
    /// Propagates FPRAS failure events when the FPRAS route fires.
    pub fn count_routed<R: Rng + ?Sized>(
        &self,
        config: &RouterConfig,
        rng: &mut R,
    ) -> Result<RoutedCount, FprasError> {
        self.instance.count_routed(config, rng)
    }

    /// Enumerates all mappings (polynomial delay; constant delay via
    /// [`MemNfa::enumerate_constant_delay`] when unambiguous).
    pub fn mappings(&self) -> impl Iterator<Item = Mapping> + '_ {
        self.instance.enumerate().map(|w| self.decode(&w))
    }

    /// Draws uniform mappings via the Las Vegas generator (Corollary 6).
    ///
    /// # Errors
    /// Propagates FPRAS failure events from preprocessing.
    pub fn sample_mappings<R: Rng + ?Sized>(
        &self,
        how_many: usize,
        params: FprasParams,
        rng: &mut R,
    ) -> Result<Vec<Mapping>, FprasError> {
        let generator = self.instance.las_vegas_generator(params, rng)?;
        let mut out = Vec::with_capacity(how_many);
        for _ in 0..how_many {
            if let Some(w) = generator.generate(rng).witness() {
                out.push(self.decode(&w));
            }
        }
        Ok(out)
    }
}

/// A spanner-over-document instance is directly queryable: the generic
/// engine entry points serve mapping counts (Corollary 6/7), streaming
/// mapping enumeration (pageable via resume tokens), and uniform mapping
/// samples, decoded to [`Mapping`] values. The session is keyed by the
/// already-built document product, so evaluating one spanner against many
/// requests — the information-extraction serving pattern — shares one
/// prepared artifact engine-wide.
impl Queryable for SpannerInstance {
    type Output = Mapping;

    fn to_instance(&self) -> (Arc<Nfa>, usize) {
        (
            self.instance.prepared().nfa_arc().clone(),
            self.instance.length(),
        )
    }

    fn decode(&self, word: &[Symbol]) -> Mapping {
        SpannerInstance::decode(self, word)
    }

    fn domain_fingerprint(&self) -> u64 {
        domain_fingerprint("eval-eva", [self.instance.prepared().fingerprint()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{block_spanner, Marker};
    use lsc_automata::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ab() -> Alphabet {
        Alphabet::from_chars(&['a', 'b'])
    }

    #[test]
    fn block_spanner_mappings() {
        // Document "aaba": a-blocks are all nonempty runs of a's:
        // [0,1), [0,2), [1,2), [3,4).
        let inst = SpannerInstance::new(block_spanner(&ab(), 'a'), "aaba");
        let mut got: Vec<Span> = inst.mappings().map(|m| m.spans[0]).collect();
        got.sort();
        let expected = vec![
            Span::new(0, 1),
            Span::new(0, 2),
            Span::new(1, 2),
            Span::new(3, 4),
        ];
        assert_eq!(got, expected);
        assert_eq!(inst.count_oracle().to_u64(), Some(4));
        assert!(inst.is_unambiguous(), "one run per mapping");
        assert_eq!(inst.count_exact().unwrap().to_u64(), Some(4));
    }

    #[test]
    fn empty_document() {
        let inst = SpannerInstance::new(block_spanner(&ab(), 'a'), "");
        // No nonempty a-block exists in ε.
        assert_eq!(inst.count_oracle().to_u64(), Some(0));
        assert_eq!(inst.mappings().count(), 0);
    }

    #[test]
    fn sampling_returns_valid_mappings() {
        let inst = SpannerInstance::new(block_spanner(&ab(), 'a'), "aabaaab");
        let truth = inst.count_oracle().to_u64().unwrap();
        assert!(truth > 0);
        let mut rng = StdRng::seed_from_u64(5);
        let samples = inst
            .sample_mappings(30, FprasParams::quick(), &mut rng)
            .unwrap();
        assert!(!samples.is_empty());
        for m in samples {
            let span = m.spans[0];
            assert!(!span.is_empty());
            assert!("aabaaab"[span.start..span.end].chars().all(|c| c == 'a'));
        }
    }

    #[test]
    fn routed_counts_reuse_the_prepared_product() {
        use std::sync::Arc;
        let inst = SpannerInstance::new(block_spanner(&ab(), 'a'), "aabaaab");
        let dag = Arc::as_ptr(inst.mem_nfa().prepared().dag());
        let mut rng = StdRng::seed_from_u64(11);
        let config = RouterConfig::default();
        let first = inst.count_routed(&config, &mut rng).unwrap();
        assert!(first.is_exact(), "unambiguous block spanner routes exact");
        for _ in 0..3 {
            let again = inst.count_routed(&config, &mut rng).unwrap();
            assert_eq!(again.exact, first.exact);
            assert_eq!(again.route, first.route);
        }
        assert_eq!(
            Arc::as_ptr(inst.mem_nfa().prepared().dag()),
            dag,
            "repeated routed counts share one compiled product"
        );
    }

    #[test]
    fn typed_engine_queries_return_mappings() {
        use lsc_core::ShardedEngine;
        let inst = SpannerInstance::new(block_spanner(&ab(), 'a'), "aaba");
        let engine = ShardedEngine::with_defaults();
        let direct: Vec<Mapping> = inst.mappings().collect();
        // The unambiguous product streams constant-delay through the typed
        // cursor; page it across a token boundary.
        let mut cursor = engine.enumerate(&inst);
        let first: Vec<Mapping> = cursor.by_ref().take(2).collect();
        let rest: Vec<Mapping> = engine.resume(&inst, &cursor.token()).unwrap().collect();
        let mut stitched: Vec<Mapping> = first.into_iter().chain(rest).collect();
        let mut expected = direct.clone();
        stitched.sort();
        expected.sort();
        assert_eq!(stitched, expected);
        assert_eq!(
            engine.count(&inst).unwrap().exact.unwrap().to_u64(),
            Some(4)
        );
        for m in engine.sample(&inst, 3).unwrap().take(5) {
            assert!(!m.spans[0].is_empty());
        }
        assert_eq!(
            engine.stats().aggregate.misses,
            1,
            "one session serves everything"
        );
    }

    #[test]
    fn fpras_matches_oracle_on_longer_document() {
        let doc = "aabaaabaaaabab";
        let inst = SpannerInstance::new(block_spanner(&ab(), 'a'), doc);
        let truth = inst.count_oracle().to_f64();
        let mut rng = StdRng::seed_from_u64(6);
        let est = inst.count_approx(FprasParams::quick(), &mut rng).unwrap();
        assert!(
            (est.to_f64() - truth).abs() / truth < 0.15,
            "est {est}, truth {truth}"
        );
    }

    /// An ambiguous functional eVA: after closing x it scans the tail through
    /// two redundant states, so each mapping has multiple accepting runs.
    #[test]
    fn ambiguous_eva_detected_and_still_countable() {
        let alphabet = ab();
        // States: 0 scan, 1 in-x, 2 tail-a, 3 tail-b (2 and 3 both loop on
        // everything — redundant nondeterminism).
        let mut eva = Eva::new(4, 1, alphabet.clone());
        eva.set_initial(0);
        eva.set_final(2);
        eva.set_final(3);
        for a in alphabet.symbols() {
            eva.add_letter(0, a, 0);
            eva.add_letter(2, a, 2);
            eva.add_letter(2, a, 3);
            eva.add_letter(3, a, 3);
            eva.add_letter(3, a, 2);
        }
        eva.add_letter(1, 0, 1);
        eva.add_varset(0, &[Marker::Open(0)], 1);
        eva.add_varset(1, &[Marker::Close(0)], 2);
        eva.add_varset(1, &[Marker::Close(0)], 3);
        assert!(eva.is_functional());
        let inst = SpannerInstance::new(eva, "aab");
        assert!(!inst.is_unambiguous());
        assert!(inst.count_exact().is_err());
        // Distinct mappings are still counted once by the oracle and listed
        // once by polynomial-delay enumeration: blocks [0,1), [0,2), [1,2).
        assert_eq!(inst.count_oracle().to_u64(), Some(3));
        assert_eq!(inst.mappings().count(), 3);
    }

    #[test]
    #[should_panic(expected = "functional")]
    fn non_functional_eva_rejected() {
        let mut eva = Eva::new(2, 1, ab());
        eva.set_initial(0);
        eva.set_final(1);
        eva.add_varset(0, &[Marker::Open(0)], 1);
        SpannerInstance::new(eva, "a");
    }
}
