//! The regular fragment: right-linear grammars ⇄ NFAs.
//!
//! Word counting for general CFGs has no known FPRAS — the best known
//! randomized scheme is quasi-polynomial \[GJK+97\]. The paper's Theorem 22
//! closes the gap for the *regular* fragment: a right-linear grammar converts
//! to an NFA in polynomial time with a **run/tree bijection**, after which
//! counting, enumeration and sampling inherit the whole MEM-NFA toolbox
//! (FPRAS, polynomial delay, PLVUG). This module provides both directions of
//! the conversion and the [`MemNfa`] packaging.
//!
//! The bijection is the load-bearing property: parse trees of `w` in the
//! grammar correspond one-to-one to accepting runs of `w` in the constructed
//! automaton (checked exhaustively in the tests), so *ambiguity degrees
//! transfer* — an unambiguous right-linear grammar yields a UFA and keeps
//! the exact Theorem 5 toolbox.

use std::sync::Arc;

use lsc_automata::{EpsNfa, Nfa, StateId, Symbol, Word};
use lsc_core::engine::{domain_fingerprint, PreparedInstance};
use lsc_core::{MemNfa, Queryable};

use crate::grammar::{Cfg, GSym, Production};

/// Is every production of the form `A → w` or `A → w B` with `w ∈ Σ*`?
/// (Terminals only, except for at most one trailing nonterminal.)
pub fn is_right_linear(g: &Cfg) -> bool {
    g.productions().iter().all(|p| {
        let body = &p.body;
        body.iter().enumerate().all(|(i, s)| match s {
            GSym::T(_) => true,
            GSym::N(_) => i + 1 == body.len(),
        })
    })
}

/// Error: the grammar is not right-linear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotRightLinearError;

impl std::fmt::Display for NotRightLinearError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("grammar is not right-linear; the NFA conversion does not apply")
    }
}

impl std::error::Error for NotRightLinearError {}

/// Converts a right-linear grammar to an ε-free NFA with
/// `L(N) = L(G)`, preserving derivation multiplicity: the parse trees of `w`
/// are in bijection with the accepting runs of `w`.
///
/// Construction: one state per nonterminal plus a final sink; `A → a₁…a_k B`
/// becomes a chain of `k` transitions ending at `B`'s state (fresh interior
/// states per production), `A → a₁…a_k` the same chain into the sink,
/// `A → B` an ε-move, and `A → ε` an ε-move into the sink. ε-transitions are
/// then eliminated.
///
/// # Errors
/// [`NotRightLinearError`] if some body has an interior nonterminal.
pub fn right_linear_to_nfa(g: &Cfg) -> Result<Nfa, NotRightLinearError> {
    if !is_right_linear(g) {
        return Err(NotRightLinearError);
    }
    let v = g.num_nonterminals();
    let sink: StateId = v;
    let mut e = EpsNfa::new(g.alphabet().clone(), v + 1);
    e.set_initial(g.start());
    e.set_accepting(sink);
    for p in g.productions() {
        let (terminals, target): (Vec<Symbol>, StateId) = match p.body.last() {
            Some(&GSym::N(b)) => (
                p.body[..p.body.len() - 1]
                    .iter()
                    .map(|s| match *s {
                        GSym::T(t) => t,
                        GSym::N(_) => unreachable!("right-linearity checked above"),
                    })
                    .collect(),
                b,
            ),
            _ => (
                p.body
                    .iter()
                    .map(|s| match *s {
                        GSym::T(t) => t,
                        GSym::N(_) => unreachable!("right-linearity checked above"),
                    })
                    .collect(),
                sink,
            ),
        };
        let mut cur = p.lhs;
        if terminals.is_empty() {
            e.add_transition(cur, None, target);
            continue;
        }
        for (i, &t) in terminals.iter().enumerate() {
            let next = if i + 1 == terminals.len() {
                target
            } else {
                e.add_state()
            };
            e.add_transition(cur, Some(t), next);
            cur = next;
        }
    }
    Ok(e.remove_epsilon().trimmed())
}

/// Converts an NFA to a right-linear grammar with `L(G) = L(N)` and a
/// run/tree bijection: one nonterminal `Q_i` per state, `Q_i → a Q_j` per
/// transition, and `Q_i → ε` per accepting state.
pub fn nfa_to_right_linear(n: &Nfa) -> Cfg {
    let names: Vec<String> = (0..n.num_states()).map(|q| format!("Q{q}")).collect();
    let mut productions = Vec::new();
    for q in 0..n.num_states() {
        for &(a, t) in n.transitions_from(q) {
            productions.push(Production {
                lhs: q,
                body: vec![GSym::T(a), GSym::N(t)],
            });
        }
        if n.is_accepting(q) {
            productions.push(Production {
                lhs: q,
                body: Vec::new(),
            });
        }
    }
    Cfg::new(n.alphabet().clone(), names, n.initial(), productions)
}

/// Why [`right_linear_derivations`] can refuse a grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DerivationCountError {
    /// Some body has an interior nonterminal.
    NotRightLinear,
    /// A cycle of unit productions (`A → B → … → A`) makes derivation counts
    /// infinite.
    UnitCycle,
}

impl std::fmt::Display for DerivationCountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerivationCountError::NotRightLinear => {
                f.write_str("grammar is not right-linear; derivation counting does not apply")
            }
            DerivationCountError::UnitCycle => {
                f.write_str("unit-production cycle: derivation counts are infinite")
            }
        }
    }
}

impl std::error::Error for DerivationCountError {}

/// Counts the derivations of `word` from the start symbol of a right-linear
/// grammar, *on the raw grammar* (no CNF conversion).
///
/// This is the grammar-level mirror of
/// [`accepting_runs_on_word`](lsc_automata::ops::accepting_runs_on_word):
/// through [`nfa_to_right_linear`] the two counts agree exactly. Counting on
/// the raw grammar matters because the CNF pipeline merges derivations that
/// differ only in which nullable nonterminal derived ε, so CNF tree counts
/// can undercount raw derivations on ambiguous grammars (see [`crate::cnf`]).
///
/// Suffix dynamic program, `O(|w| · Σ_p |body(p)|)` big-number additions.
/// Within one suffix position, unit productions (`A → B`) are resolved in
/// topological order of the unit graph.
///
/// # Errors
/// [`DerivationCountError`] if the grammar is not right-linear or has a unit
/// cycle (which would make counts infinite).
pub fn right_linear_derivations(
    g: &Cfg,
    word: &[Symbol],
) -> Result<lsc_arith::BigNat, DerivationCountError> {
    use lsc_arith::BigNat;
    if !is_right_linear(g) {
        return Err(DerivationCountError::NotRightLinear);
    }
    let n = word.len();
    let v = g.num_nonterminals();
    // Order nonterminals so that a unit production A → B puts B before A
    // (Kahn's algorithm on the unit graph; leftovers mean a unit cycle).
    let mut unit_children: Vec<Vec<usize>> = vec![Vec::new(); v]; // b -> its unit parents a
    let mut pending = vec![0usize; v]; // #unit productions of a not yet resolved
    for p in g.productions() {
        if let [GSym::N(b)] = p.body.as_slice() {
            unit_children[*b].push(p.lhs);
            pending[p.lhs] += 1;
        }
    }
    let mut order: Vec<usize> = (0..v).filter(|&a| pending[a] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let b = order[head];
        head += 1;
        for &a in &unit_children[b] {
            pending[a] -= 1;
            if pending[a] == 0 {
                order.push(a);
            }
        }
    }
    if order.len() < v {
        return Err(DerivationCountError::UnitCycle);
    }
    // ways[i][A] = derivations of the suffix word[i..] from A.
    let mut ways = vec![vec![BigNat::zero(); v]; n + 1];
    for i in (0..=n).rev() {
        for &a in &order {
            let mut acc = BigNat::zero();
            for p in g.productions_of(a) {
                let (terminals, cont): (&[GSym], Option<usize>) = match p.body.last() {
                    Some(&GSym::N(b)) => (&p.body[..p.body.len() - 1], Some(b)),
                    _ => (&p.body[..], None),
                };
                let k = terminals.len();
                if i + k > n {
                    continue;
                }
                let matches = terminals
                    .iter()
                    .zip(&word[i..i + k])
                    .all(|(s, &w)| match *s {
                        GSym::T(t) => t == w,
                        GSym::N(_) => unreachable!("right-linearity checked above"),
                    });
                if !matches {
                    continue;
                }
                match cont {
                    Some(b) => acc.add_assign_ref(&ways[i + k][b]),
                    None if i + k == n => acc.add_assign_u64(1),
                    None => {}
                }
            }
            ways[i][a] = acc;
        }
    }
    Ok(ways[0][g.start()].clone())
}

/// Is every production of the form `A → w` or `A → B w` with `w ∈ Σ*`?
/// (At most one nonterminal, and only in leading position.)
pub fn is_left_linear(g: &Cfg) -> bool {
    g.productions().iter().all(|p| {
        p.body.iter().enumerate().all(|(i, s)| match s {
            GSym::T(_) => true,
            GSym::N(_) => i == 0,
        })
    })
}

/// The grammar with every production body reversed. Maps left-linear
/// grammars to right-linear ones (and vice versa), generates exactly the
/// reversed language, and preserves derivation multiplicities (reversal is a
/// bijection on derivation trees).
pub fn reverse_grammar(g: &Cfg) -> Cfg {
    let productions = g
        .productions()
        .iter()
        .map(|p| crate::grammar::Production {
            lhs: p.lhs,
            body: p.body.iter().rev().copied().collect(),
        })
        .collect();
    Cfg::new(
        g.alphabet().clone(),
        g.nonterminals().to_vec(),
        g.start(),
        productions,
    )
}

/// Error: the grammar is not left-linear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeftLinearError;

impl std::fmt::Display for NotLeftLinearError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("grammar is not left-linear; the NFA conversion does not apply")
    }
}

impl std::error::Error for NotLeftLinearError {}

/// Converts a left-linear grammar to an ε-free NFA with `L(N) = L(G)`, by
/// reversing the grammar ([`reverse_grammar`]), converting the resulting
/// right-linear grammar ([`right_linear_to_nfa`]), and reversing the
/// automaton.
///
/// Unlike the right-linear direction, the final automaton reversal is
/// language-preserving but **not** multiplicity-preserving (the fresh start
/// state merges run prefixes), so ambiguity degrees need not transfer.
///
/// # Errors
/// [`NotLeftLinearError`] if some body has a non-leading nonterminal.
pub fn left_linear_to_nfa(g: &Cfg) -> Result<Nfa, NotLeftLinearError> {
    if !is_left_linear(g) {
        return Err(NotLeftLinearError);
    }
    let reversed = reverse_grammar(g);
    let nfa = right_linear_to_nfa(&reversed).expect("reversal of left-linear is right-linear");
    Ok(lsc_automata::ops::reverse(&nfa))
}

/// Packages a right-linear grammar at witness length `n` as a [`MemNfa`]
/// instance, unlocking the paper's full toolbox (FPRAS counting, polynomial
/// delay enumeration, Las Vegas sampling — and the exact Theorem 5 routines
/// when the grammar, hence the automaton, is unambiguous).
///
/// The returned instance is a prepared artifact: the conversion, the
/// ambiguity classification, and the unrolled DAG are computed once and
/// shared by every later counting/enumeration/sampling call, so hold the
/// `MemNfa` across repeated queries on one grammar rather than re-converting
/// per call.
///
/// # Errors
/// [`NotRightLinearError`] if the grammar is not right-linear.
pub fn to_mem_nfa(g: &Cfg, n: usize) -> Result<MemNfa, NotRightLinearError> {
    Ok(MemNfa::new(right_linear_to_nfa(g)?, n))
}

/// A validated right-linear grammar at a fixed word length: the typed
/// queryable for the regular fragment. Construction runs the NFA conversion
/// once; the generic engine entry points then serve word counts (Theorem 22's
/// FPRAS where the grammar is ambiguous, exact where it is not), streaming
/// enumeration of the generated words (pageable via resume tokens), and
/// uniform word samples — witnesses decode to the words themselves, over the
/// grammar's own alphabet.
pub struct RegularGrammar {
    cfg: Cfg,
    nfa: Arc<Nfa>,
    length: usize,
}

impl RegularGrammar {
    /// Validates and converts the grammar (once).
    ///
    /// # Errors
    /// [`NotRightLinearError`] if some body has an interior nonterminal.
    pub fn new(cfg: Cfg, length: usize) -> Result<Self, NotRightLinearError> {
        let nfa = Arc::new(right_linear_to_nfa(&cfg)?);
        Ok(RegularGrammar { cfg, nfa, length })
    }

    /// The grammar.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The converted automaton (one conversion, shared everywhere).
    pub fn nfa(&self) -> &Arc<Nfa> {
        &self.nfa
    }

    /// The word length `n`.
    pub fn length(&self) -> usize {
        self.length
    }
}

impl Queryable for RegularGrammar {
    /// A generated word over the grammar's alphabet.
    type Output = Word;

    fn to_instance(&self) -> (Arc<Nfa>, usize) {
        (self.nfa.clone(), self.length)
    }

    fn decode(&self, word: &[Symbol]) -> Word {
        word.to_vec()
    }

    fn domain_fingerprint(&self) -> u64 {
        domain_fingerprint(
            "regular-grammar",
            [PreparedInstance::instance_fingerprint(
                &self.nfa,
                self.length,
            )],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;
    use crate::cyk::{cyk_accepts, cyk_tree_count, next_word};
    use lsc_automata::families::{blowup_nfa, random_nfa};
    use lsc_automata::ops::accepting_runs_on_word;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn right_linearity_detection() {
        assert!(is_right_linear(
            &Cfg::parse("S -> a S | b B | eps\nB -> b\n").unwrap()
        ));
        assert!(is_right_linear(&Cfg::parse("S -> a a b S | a").unwrap()));
        assert!(!is_right_linear(&Cfg::parse("S -> ( S ) S | eps").unwrap()));
        assert!(!is_right_linear(&Cfg::parse("S -> S a").unwrap()));
    }

    #[test]
    fn conversion_rejects_non_linear() {
        let g = Cfg::parse("S -> ( S ) S | eps").unwrap();
        assert_eq!(right_linear_to_nfa(&g).unwrap_err(), NotRightLinearError);
    }

    #[test]
    fn grammar_to_nfa_language_agreement() {
        // (ab)* ∪ a⁺ via a right-linear grammar; compare against CYK on all
        // short words.
        let g = Cfg::parse(
            "S -> a b S | A | eps\n\
             A -> a A | a\n",
        )
        .unwrap();
        let nfa = right_linear_to_nfa(&g).unwrap();
        let cnf = Cnf::from_cfg(&g);
        let sigma = g.alphabet().len() as Symbol;
        for len in 0..=7usize {
            let mut word = vec![0 as Symbol; len];
            loop {
                assert_eq!(
                    nfa.accepts(&word),
                    cyk_accepts(&cnf, &word),
                    "word {word:?}"
                );
                if !next_word(&mut word, sigma) {
                    break;
                }
            }
        }
    }

    #[test]
    fn nfa_roundtrip_preserves_language_and_multiplicity() {
        // NFA → grammar → NFA: language agrees everywhere; the *raw* grammar
        // derivation count per word equals the automaton's run count (the
        // run/tree bijection); and the CNF tree count is a lower bound (the
        // DEL step merges derivations that differ only in which nullable
        // symbol derived ε — see `crate::cnf`).
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..10 {
            let n = random_nfa(5, lsc_automata::Alphabet::binary(), 0.35, 0.4, &mut rng);
            let g = nfa_to_right_linear(&n);
            let back = right_linear_to_nfa(&g).unwrap();
            let cnf = Cnf::from_cfg(&g);
            let sigma = 2 as Symbol;
            for len in 0..=6usize {
                let mut word = vec![0 as Symbol; len];
                loop {
                    assert_eq!(
                        n.accepts(&word),
                        back.accepts(&word),
                        "trial {trial} {word:?}"
                    );
                    assert_eq!(
                        n.accepts(&word),
                        cyk_accepts(&cnf, &word),
                        "trial {trial} {word:?}"
                    );
                    let runs = accepting_runs_on_word(&n, &word);
                    assert_eq!(
                        right_linear_derivations(&g, &word)
                            .unwrap()
                            .to_u64()
                            .unwrap(),
                        runs,
                        "trial {trial} raw multiplicity {word:?}"
                    );
                    if len > 0 {
                        let cnf_trees = cyk_tree_count(&cnf, &word).to_u64().unwrap();
                        assert!(
                            cnf_trees <= runs && (cnf_trees > 0) == (runs > 0),
                            "trial {trial} {word:?}: cnf {cnf_trees} vs runs {runs}"
                        );
                    }
                    if !next_word(&mut word, sigma) {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn left_linearity_detection_and_conversion() {
        // S → S a | b : the language b a*.
        let g = Cfg::parse("S -> S a | b").unwrap();
        assert!(is_left_linear(&g));
        assert!(!is_right_linear(&g));
        let nfa = left_linear_to_nfa(&g).unwrap();
        let ab = g.alphabet();
        let a = ab.symbol_of('a').unwrap();
        let bb = ab.symbol_of('b').unwrap();
        assert!(nfa.accepts(&[bb]));
        assert!(nfa.accepts(&[bb, a]));
        assert!(nfa.accepts(&[bb, a, a, a]));
        assert!(!nfa.accepts(&[a, bb]));
        assert!(!nfa.accepts(&[]));
        assert!(!nfa.accepts(&[bb, bb]));
    }

    #[test]
    fn grammar_reversal_is_an_involution_on_languages() {
        let g = Cfg::parse("S -> a b S | b").unwrap();
        let rr = reverse_grammar(&reverse_grammar(&g));
        assert_eq!(g.productions(), rr.productions());
        // The reversal of a right-linear grammar's language equals the
        // left-linear pipeline's language on the reversed grammar.
        let fwd = right_linear_to_nfa(&g).unwrap();
        let bwd = left_linear_to_nfa(&reverse_grammar(&g)).unwrap();
        for len in 0..=6usize {
            let mut word = vec![0 as Symbol; len];
            loop {
                let mut rev: Vec<Symbol> = word.clone();
                rev.reverse();
                assert_eq!(fwd.accepts(&word), bwd.accepts(&rev), "word {word:?}");
                if !next_word(&mut word, 2) {
                    break;
                }
            }
        }
    }

    #[test]
    fn mixed_linear_grammar_rejected_by_both() {
        let g = Cfg::parse("S -> a S a | b").unwrap();
        assert!(!is_right_linear(&g));
        assert!(!is_left_linear(&g));
        assert_eq!(left_linear_to_nfa(&g).unwrap_err(), NotLeftLinearError);
    }

    #[test]
    fn unit_cycles_are_rejected() {
        let g = Cfg::parse("S -> A | a\nA -> S\n").unwrap();
        assert_eq!(
            right_linear_derivations(&g, &[0]).unwrap_err(),
            DerivationCountError::UnitCycle
        );
    }

    #[test]
    fn unit_chains_count_correctly() {
        // S → A → a gives exactly one derivation of "a"; S → a adds another.
        let g = Cfg::parse("S -> A | a\nA -> a\n").unwrap();
        assert_eq!(
            right_linear_derivations(&g, &[0]).unwrap().to_u64(),
            Some(2)
        );
        assert_eq!(
            right_linear_derivations(&g, &[0, 0]).unwrap().to_u64(),
            Some(0)
        );
    }

    #[test]
    fn unambiguous_grammar_yields_ufa_and_exact_toolbox() {
        // The blowup family is unambiguous; through the grammar round trip
        // the MemNfa instance keeps exact counting.
        let g = nfa_to_right_linear(&blowup_nfa(5));
        let inst = to_mem_nfa(&g, 9).unwrap();
        assert!(inst.is_unambiguous());
        assert_eq!(inst.count_exact().unwrap().to_u64(), Some(256));
    }

    #[test]
    fn grammar_instance_serves_repeated_queries_from_one_artifact() {
        use std::sync::Arc;
        let g = nfa_to_right_linear(&blowup_nfa(4));
        let inst = to_mem_nfa(&g, 9).unwrap();
        let dag = Arc::as_ptr(inst.prepared().dag());
        let count = inst.count_exact().unwrap();
        let words = inst.enumerate_constant_delay().unwrap().count() as u64;
        assert_eq!(words, count.to_u64().unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let w = inst.uniform_sampler().unwrap().sample(&mut rng).unwrap();
        assert!(inst.check_witness(&w));
        assert_eq!(
            Arc::as_ptr(inst.prepared().dag()),
            dag,
            "COUNT, ENUM, and GEN share one converted grammar"
        );
    }

    #[test]
    fn typed_engine_queries_serve_the_regular_fragment() {
        use lsc_core::ShardedEngine;
        let g = nfa_to_right_linear(&blowup_nfa(4));
        let grammar = RegularGrammar::new(g, 9).unwrap();
        let engine = ShardedEngine::with_defaults();
        let count = engine.count(&grammar).unwrap();
        assert_eq!(count.exact.as_ref().unwrap().to_u64(), Some(256));
        // Page the enumeration across a resume token; the stitched stream
        // matches one uninterrupted cursor.
        let full: Vec<Word> = engine.enumerate(&grammar).collect();
        assert_eq!(full.len(), 256);
        let mut cursor = engine.enumerate(&grammar);
        let first: Vec<Word> = cursor.by_ref().take(50).collect();
        let rest: Vec<Word> = engine.resume(&grammar, &cursor.token()).unwrap().collect();
        assert_eq!(first.into_iter().chain(rest).collect::<Vec<_>>(), full);
        // Uniform draws are generated words.
        let nfa = grammar.nfa().clone();
        for w in engine.sample(&grammar, 17).unwrap().take(6) {
            assert!(nfa.accepts(&w));
        }
        assert_eq!(
            engine.stats().aggregate.misses,
            1,
            "one session serves everything"
        );
    }

    #[test]
    fn ambiguous_regular_grammar_gets_fpras() {
        // a*a*-style grammar: ambiguous but regular, so the paper's FPRAS
        // applies where exact tree-counting would overcount words.
        use lsc_core::fpras::FprasParams;
        let g = Cfg::parse("S -> a S | a A | eps\nA -> a A | eps\n").unwrap();
        let inst = to_mem_nfa(&g, 12).unwrap();
        assert!(!inst.is_unambiguous());
        // |L_12| = 1 (only a^12), but a^12 has 13 raw derivations (the switch
        // point from the S-loop to the A-loop can sit at any of 13 places).
        // The CNF table merges the two all-loop derivations that differ only
        // in which nullable tail derived ε, so it reports 12 — both numbers
        // are overcounts of the single word, which is the point.
        let word = vec![0 as Symbol; 12];
        assert_eq!(
            right_linear_derivations(&g, &word).unwrap().to_u64(),
            Some(13)
        );
        let cnf = Cnf::from_cfg(&g);
        let t = crate::count::DerivationTable::build(&cnf, 12);
        assert_eq!(t.derivations(12).to_u64(), Some(12));
        let mut rng = StdRng::seed_from_u64(22);
        let est = inst.count_approx(FprasParams::quick(), &mut rng).unwrap();
        assert!((est.to_f64() - 1.0).abs() < 0.2, "estimate {est}");
    }
}
