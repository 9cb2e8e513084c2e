//! SAT-DNF → MEM-NFA, two ways: the direct automaton and the §3 transducer.

use std::sync::Arc;

use lsc_automata::{Alphabet, Nfa, Symbol};
use lsc_core::engine::domain_fingerprint;
use lsc_core::{MemNfa, Queryable};
use lsc_transducer::TransducerProgram;

use crate::DnfFormula;

/// The direct witness-preserving reduction: an NFA over `{0,1}` with
/// `L_n(N_φ)` = satisfying assignments of `φ` (bit `i` of the word = value of
/// `x_i`).
///
/// One chain of `n+1` states per satisfiable term: position `i` reads the
/// forced bit if `x_i` occurs in the term, or both bits if it is free — the
/// automaton shape of the paper's §3 transducer. The union over terms makes
/// the NFA ambiguous exactly when terms overlap, which is why SAT-DNF
/// motivates `RelationNL` rather than `RelationUL`.
pub fn to_nfa(formula: &DnfFormula) -> Nfa {
    let n = formula.num_vars();
    let sat_terms: Vec<_> = formula
        .terms()
        .iter()
        .filter(|t| t.is_satisfiable())
        .collect();
    // State layout: 0 = shared initial; term j occupies a chain of n states
    // (positions 1..=n), with the final position shared per-term.
    let mut b = Nfa::builder(Alphabet::binary(), 1 + sat_terms.len() * n);
    b.set_initial(0);
    for (j, term) in sat_terms.iter().enumerate() {
        let chain = |pos: usize| {
            if pos == 0 {
                0
            } else {
                1 + j * n + (pos - 1)
            }
        };
        if n == 0 {
            b.set_accepting(0);
            continue;
        }
        b.set_accepting(chain(n));
        for pos in 0..n {
            let bit = 1u128 << pos;
            let (from, to) = (chain(pos), chain(pos + 1));
            if term.pos() & bit != 0 {
                b.add_transition(from, 1, to);
            } else if term.neg() & bit != 0 {
                b.add_transition(from, 0, to);
            } else {
                b.add_transition(from, 0, to);
                b.add_transition(from, 1, to);
            }
        }
    }
    b.build().trimmed()
}

/// Packages a formula as a compiled [`MemNfa`] instance: witnesses of length
/// `num_vars` over `{0,1}` are exactly the satisfying assignments. This is
/// the prepared entry point for repeated queries on one formula — the
/// instance caches its unrolled DAG and ambiguity classification, so
/// counting, enumerating, and sampling the model set all share one
/// compilation instead of re-reducing per call (and an [`lsc_core::ShardedEngine`]
/// dedupes across formulas by fingerprint).
pub fn to_mem_nfa(formula: &DnfFormula) -> MemNfa {
    MemNfa::new(to_nfa(formula), formula.num_vars())
}

/// A formula is directly queryable: `COUNT` is model counting, `ENUM`
/// streams satisfying assignments, `GEN` draws them uniformly — all through
/// the generic engine entry points, decoded back to assignment bitmasks
/// (bit `i` = value of `x_i`). The reduction runs once per engine session
/// (keyed by the formula's structure, so equal formulas share an instance).
impl Queryable for DnfFormula {
    /// A satisfying assignment as a bitmask: bit `i` is the value of `x_i`.
    type Output = u128;

    fn to_instance(&self) -> (Arc<Nfa>, usize) {
        (Arc::new(to_nfa(self)), self.num_vars())
    }

    fn decode(&self, word: &[Symbol]) -> u128 {
        word.iter()
            .enumerate()
            .fold(0u128, |acc, (i, &b)| acc | ((b as u128) << i))
    }

    fn domain_fingerprint(&self) -> u64 {
        domain_fingerprint(
            "sat-dnf",
            std::iter::once(self.num_vars() as u64).chain(self.terms().iter().flat_map(|t| {
                [
                    t.pos() as u64,
                    (t.pos() >> 64) as u64,
                    t.neg() as u64,
                    (t.neg() >> 64) as u64,
                ]
            })),
        )
    }
}

/// The SAT-DNF NL-transducer exactly as §3 describes it: nondeterministically
/// choose a disjunct, reject if it contains complementary literals, then emit
/// the assignment variable by variable — forced bits deterministic, free bits
/// branching.
///
/// Its configuration `(chosen disjunct, next variable)` is two logarithmic
/// counters. Compiling through Lemma 13 yields an NFA equivalent to
/// [`to_nfa`] (tested below) — the concrete instance of Proposition 12's
/// completeness argument.
pub struct SatDnfTransducer<'a> {
    formula: &'a DnfFormula,
}

impl<'a> SatDnfTransducer<'a> {
    /// Wraps a formula.
    pub fn new(formula: &'a DnfFormula) -> Self {
        SatDnfTransducer { formula }
    }
}

/// Configuration of the §3 transducer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum SatDnfConfig {
    /// Initial: no disjunct chosen yet.
    Start,
    /// Emitting: `(disjunct index, next variable index)`.
    Emit(usize, usize),
}

impl TransducerProgram for SatDnfTransducer<'_> {
    type Config = SatDnfConfig;

    fn alphabet(&self) -> Alphabet {
        Alphabet::binary()
    }

    fn initial(&self) -> Self::Config {
        SatDnfConfig::Start
    }

    fn is_accepting(&self, config: &Self::Config) -> bool {
        match *config {
            SatDnfConfig::Start => false,
            SatDnfConfig::Emit(_, var) => var == self.formula.num_vars(),
        }
    }

    fn successors(&self, config: &Self::Config) -> Vec<(Option<Symbol>, Self::Config)> {
        match *config {
            SatDnfConfig::Start => {
                // Choose a disjunct; halt (no successor) on unsatisfiable ones
                // — the machine "halts in a non-accepting state" (§3).
                (0..self.formula.terms().len())
                    .filter(|&j| self.formula.terms()[j].is_satisfiable())
                    .map(|j| (None, SatDnfConfig::Emit(j, 0)))
                    .collect()
            }
            SatDnfConfig::Emit(j, var) => {
                if var == self.formula.num_vars() {
                    return vec![];
                }
                let term = &self.formula.terms()[j];
                let bit = 1u128 << var;
                let next = |b: Symbol| (Some(b), SatDnfConfig::Emit(j, var + 1));
                if term.pos() & bit != 0 {
                    vec![next(1)]
                } else if term.neg() & bit != 0 {
                    vec![next(0)]
                } else {
                    vec![next(0), next(1)]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_core::MemNfa;
    use lsc_transducer::configuration_nfa;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assignments_of(nfa: &Nfa, n: usize) -> Vec<u128> {
        MemNfa::new(nfa.clone(), n)
            .enumerate()
            .map(|w| {
                w.iter()
                    .enumerate()
                    .fold(0u128, |acc, (i, &b)| acc | ((b as u128) << i))
            })
            .collect()
    }

    #[test]
    fn nfa_language_is_model_set() {
        let f: DnfFormula = "x0 & !x1 | x2".parse().unwrap();
        let nfa = to_nfa(&f);
        let mut got = assignments_of(&nfa, 3);
        got.sort_unstable();
        let mut expected: Vec<u128> = (0..8).filter(|&a| f.eval(a)).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn transducer_agrees_with_direct_reduction() {
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..10 {
            let f = crate::random_dnf(6, 4, 3, &mut rng);
            let direct = to_nfa(&f);
            let compiled = configuration_nfa(&SatDnfTransducer::new(&f), 100_000).unwrap();
            let mut a = assignments_of(&direct, 6);
            let mut b = assignments_of(&compiled, 6);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "formula {f}");
        }
    }

    #[test]
    fn count_via_mem_nfa_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let f = crate::random_dnf(8, 5, 3, &mut rng);
            let inst = MemNfa::new(to_nfa(&f), 8);
            assert_eq!(
                inst.count_oracle().to_u64(),
                f.count_models_brute_force().to_u64(),
                "formula {f}"
            );
        }
    }

    #[test]
    fn prepared_instance_serves_all_three_problems() {
        // One reduction, one compiled artifact: COUNT, ENUM, and GEN answers
        // all come off the same prepared instance.
        use std::sync::Arc;
        let f: DnfFormula = "x0 & !x1 | x2".parse().unwrap();
        let inst = to_mem_nfa(&f);
        let dag = Arc::as_ptr(inst.prepared().dag());
        let models = inst.enumerate().count() as u64;
        assert_eq!(models, f.count_models_brute_force().to_u64().unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let routed = inst
            .count_routed(&lsc_core::engine::RouterConfig::default(), &mut rng)
            .unwrap();
        assert_eq!(routed.exact.map(|c| c.to_u64().unwrap()), Some(models));
        assert_eq!(
            Arc::as_ptr(inst.prepared().dag()),
            dag,
            "repeated queries reuse the compiled reduction"
        );
    }

    #[test]
    fn typed_engine_queries_return_assignments() {
        use lsc_core::ShardedEngine;
        let f: DnfFormula = "x0 & !x1 | x2".parse().unwrap();
        let engine = ShardedEngine::with_defaults();
        // ENUM through the generic surface decodes straight to bitmasks.
        let mut models: Vec<u128> = engine.enumerate(&f).collect();
        models.sort_unstable();
        let expected: Vec<u128> = (0..8).filter(|&a| f.eval(a)).collect();
        assert_eq!(models, expected);
        // COUNT agrees, and the second query reuses the session (no second
        // reduction, no second prepared instance).
        let routed = engine.count(&f).unwrap();
        assert_eq!(
            routed.exact.map(|c| c.to_u64().unwrap()),
            Some(models.len() as u64)
        );
        assert_eq!(engine.stats().aggregate.misses, 1);
        assert_eq!(engine.stats().aggregate.domains, 1);
        // GEN draws decode to genuine models.
        for a in engine.sample(&f, 5).unwrap().take(8) {
            assert!(f.eval(a));
        }
        // Cursor paging with a resume token, typed end to end.
        let mut cursor = engine.enumerate(&f);
        let first: Vec<u128> = cursor.by_ref().take(2).collect();
        let rest: Vec<u128> = engine.resume(&f, &cursor.token()).unwrap().collect();
        let mut stitched: Vec<u128> = first.into_iter().chain(rest).collect();
        stitched.sort_unstable();
        assert_eq!(stitched, expected);
    }

    #[test]
    fn unsatisfiable_formula_gives_empty_language() {
        let f: DnfFormula = "x0 & !x0".parse().unwrap();
        let nfa = to_nfa(&f);
        assert!(!MemNfa::new(nfa, 1).exists_witness());
    }

    #[test]
    fn tautology_term() {
        // A term with no literals accepts everything.
        let f = DnfFormula::new(3, vec![crate::DnfTerm::new(0, 0)]);
        let inst = MemNfa::new(to_nfa(&f), 3);
        assert_eq!(inst.count_oracle().to_u64(), Some(8));
    }
}
