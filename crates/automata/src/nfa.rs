//! Nondeterministic finite automata without ε-transitions.

use std::fmt;

use crate::{Alphabet, StateSet, Symbol};

/// A state identifier: an index into the automaton's state table.
pub type StateId = usize;

/// A nondeterministic finite automaton over an [`Alphabet`], without
/// ε-transitions — exactly the objects of the paper's `MEM-NFA` relation
/// (`((N, 0^k), w)` with `w ∈ L(N)`, `|w| = k`).
///
/// Representation: one initial state, a set of accepting states, and per-state
/// outgoing transition lists sorted by `(symbol, target)`. The sort order is
/// load-bearing for the enumeration algorithms, which fix "some total order" on
/// the out-edges of each DAG vertex (§5.3.1).
#[derive(Clone, Debug)]
pub struct Nfa {
    alphabet: Alphabet,
    initial: StateId,
    accepting: Vec<bool>,
    /// `transitions[q]` = sorted `(symbol, target)` pairs.
    transitions: Vec<Vec<(Symbol, StateId)>>,
    /// Memoized [`Nfa::fingerprint`]. The automaton is immutable once
    /// built, so the hash is computed at most once (clones inherit it);
    /// this keeps fingerprint-routed cache resolution off the O(m) hash on
    /// every warm touch.
    fingerprint: std::sync::OnceLock<u64>,
}

impl Nfa {
    /// Starts building an NFA with `num_states` states over `alphabet`.
    pub fn builder(alphabet: Alphabet, num_states: usize) -> NfaBuilder {
        NfaBuilder {
            alphabet,
            initial: 0,
            accepting: vec![false; num_states],
            transitions: vec![Vec::new(); num_states],
        }
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states (`m` in the paper).
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// True iff `q` is accepting.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q]
    }

    /// All accepting states.
    pub fn accepting_states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.num_states()).filter(|&q| self.accepting[q])
    }

    /// Outgoing transitions of `q`, sorted by `(symbol, target)`.
    pub fn transitions_from(&self, q: StateId) -> &[(Symbol, StateId)] {
        &self.transitions[q]
    }

    /// Successors of `q` on `symbol`.
    pub fn step(&self, q: StateId, symbol: Symbol) -> impl Iterator<Item = StateId> + '_ {
        let row = &self.transitions[q];
        let start = row.partition_point(|&(s, _)| s < symbol);
        row[start..]
            .iter()
            .take_while(move |&&(s, _)| s == symbol)
            .map(|&(_, t)| t)
    }

    /// One subset-simulation step: all states reachable from `from` on `symbol`.
    pub fn step_set(&self, from: &StateSet, symbol: Symbol, into: &mut StateSet) {
        into.clear();
        for q in from.iter() {
            for t in self.step(q, symbol) {
                into.insert(t);
            }
        }
    }

    /// Does the automaton accept `word`? (Subset simulation, `O(|word|·edges)`.)
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut cur = StateSet::new(self.num_states());
        cur.insert(self.initial);
        let mut next = StateSet::new(self.num_states());
        for &a in word {
            self.step_set(&cur, a, &mut next);
            std::mem::swap(&mut cur, &mut next);
            if cur.is_empty() {
                return false;
            }
        }
        let accepted = cur.iter().any(|q| self.accepting[q]);
        accepted
    }

    /// The per-prefix reachable-state sets of a subset simulation on `word`:
    /// `sets[t]` holds the states reachable from the initial state reading
    /// `word[..t]`. This is the membership primitive `x ∈ U(s)` the FPRAS needs
    /// (§6.4): `x ∈ U(s^t_q)` iff `q ∈ sets[t]`.
    pub fn prefix_reach_sets(&self, word: &[Symbol]) -> Vec<StateSet> {
        let mut sets = Vec::with_capacity(word.len() + 1);
        let mut cur = StateSet::new(self.num_states());
        cur.insert(self.initial);
        sets.push(cur.clone());
        let mut next = StateSet::new(self.num_states());
        for &a in word {
            self.step_set(&cur, a, &mut next);
            std::mem::swap(&mut cur, &mut next);
            sets.push(cur.clone());
        }
        sets
    }

    /// States reachable from the initial state.
    pub fn reachable(&self) -> StateSet {
        let mut seen = StateSet::new(self.num_states());
        let mut stack = vec![self.initial];
        seen.insert(self.initial);
        while let Some(q) = stack.pop() {
            for &(_, t) in &self.transitions[q] {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// States from which some accepting state is reachable.
    pub fn coreachable(&self) -> StateSet {
        // Reverse adjacency, then BFS from the accepting states.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.num_states()];
        for (q, row) in self.transitions.iter().enumerate() {
            for &(_, t) in row {
                rev[t].push(q);
            }
        }
        let mut seen = StateSet::new(self.num_states());
        let mut stack: Vec<StateId> = self.accepting_states().collect();
        for &q in &stack {
            seen.insert(q);
        }
        while let Some(q) = stack.pop() {
            for &p in &rev[q] {
                if seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Removes states that are unreachable or cannot reach an accepting state,
    /// remapping ids. The initial state always survives (possibly with no
    /// transitions, if the language is empty).
    pub fn trimmed(&self) -> Nfa {
        let reach = self.reachable();
        let coreach = self.coreachable();
        let mut keep = reach;
        keep.intersect_with(&coreach);
        keep.insert(self.initial);
        let mut remap = vec![usize::MAX; self.num_states()];
        let mut kept: Vec<StateId> = Vec::new();
        for q in keep.iter() {
            remap[q] = kept.len();
            kept.push(q);
        }
        let mut b = Nfa::builder(self.alphabet.clone(), kept.len());
        b.set_initial(remap[self.initial]);
        for &q in &kept {
            if self.accepting[q] {
                b.set_accepting(remap[q]);
            }
            for &(a, t) in &self.transitions[q] {
                if remap[t] != usize::MAX && keep.contains(q) {
                    b.add_transition(remap[q], a, remap[t]);
                }
            }
        }
        b.build()
    }

    /// Rewrites the automaton to have exactly one accepting state while
    /// preserving the *fixed-length* languages `L_k(N)` for every `k ≥ 1`.
    ///
    /// This is the normalization §5.2 and Lemma 15 assume. Since we have no
    /// ε-transitions, the textbook "ε to a fresh final state" is implemented by
    /// redirecting: a fresh state `f` receives a copy of every transition that
    /// entered an accepting state. Words of length 0 are an initial-state
    /// corner case the callers handle separately (as does the paper, §5.2).
    pub fn with_single_accepting(&self) -> Nfa {
        let finals: Vec<StateId> = self.accepting_states().collect();
        if finals.len() == 1 {
            return self.clone();
        }
        let m = self.num_states();
        let f = m;
        let mut b = Nfa::builder(self.alphabet.clone(), m + 1);
        b.set_initial(self.initial);
        b.set_accepting(f);
        for (q, row) in self.transitions.iter().enumerate() {
            for &(a, t) in row {
                b.add_transition(q, a, t);
                if self.accepting[t] {
                    b.add_transition(q, a, f);
                }
            }
        }
        b.build()
    }

    /// A structural fingerprint of the automaton: a 64-bit FNV-1a hash over
    /// the alphabet, initial state, accepting set, and the full sorted
    /// transition table. Two automata with the same fingerprint are (with
    /// overwhelming probability) structurally identical, which is what the
    /// engine's prepared-instance cache keys on — together with the state and
    /// transition counts as cheap collision insurance
    /// (`lsc_core::engine::ShardedEngine`).
    ///
    /// The hash is stable across runs and platforms: it folds in only
    /// explicitly ordered `usize`/`u32` data, never addresses or hash-map
    /// iteration order. It is memoized: the first call hashes, every later
    /// call (and every clone) is an atomic load.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.alphabet.len() as u64);
        for a in 0..self.alphabet.len() {
            // Display names distinguish alphabets of equal width (anonymous
            // symbols hash as a sentinel).
            mix(self
                .alphabet
                .char_of(a as Symbol)
                .map_or(u64::MAX, u64::from));
        }
        mix(self.num_states() as u64);
        mix(self.initial as u64);
        for (q, &acc) in self.accepting.iter().enumerate() {
            if acc {
                mix(q as u64);
            }
        }
        mix(u64::MAX); // domain separator between accepting set and edges
        for row in &self.transitions {
            mix(row.len() as u64);
            for &(a, t) in row {
                mix(u64::from(a));
                mix(t as u64);
            }
        }
        h
    }

    /// Renders the automaton in a compact single-line form for debugging.
    pub fn describe(&self) -> String {
        format!(
            "NFA(states={}, transitions={}, alphabet={}, initial={}, accepting=[{}])",
            self.num_states(),
            self.num_transitions(),
            self.alphabet,
            self.initial,
            self.accepting_states()
                .map(|q| q.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

impl fmt::Display for Nfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.describe())?;
        for (q, row) in self.transitions.iter().enumerate() {
            for &(a, t) in row {
                writeln!(f, "  {q} --{}--> {t}", self.alphabet.name(a))?;
            }
        }
        Ok(())
    }
}

/// Incremental [`Nfa`] construction.
pub struct NfaBuilder {
    alphabet: Alphabet,
    initial: StateId,
    accepting: Vec<bool>,
    transitions: Vec<Vec<(Symbol, StateId)>>,
}

impl NfaBuilder {
    /// Adds a fresh state, returning its id.
    pub fn add_state(&mut self) -> StateId {
        self.accepting.push(false);
        self.transitions.push(Vec::new());
        self.transitions.len() - 1
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, q: StateId) -> &mut Self {
        assert!(q < self.transitions.len(), "initial state {q} out of range");
        self.initial = q;
        self
    }

    /// Marks `q` accepting.
    pub fn set_accepting(&mut self, q: StateId) -> &mut Self {
        self.accepting[q] = true;
        self
    }

    /// Adds the transition `from --symbol--> to` (duplicates are deduplicated
    /// at build time).
    pub fn add_transition(&mut self, from: StateId, symbol: Symbol, to: StateId) -> &mut Self {
        assert!(
            (symbol as usize) < self.alphabet.len(),
            "symbol {symbol} outside alphabet of size {}",
            self.alphabet.len()
        );
        assert!(
            to < self.transitions.len(),
            "target state {to} out of range"
        );
        self.transitions[from].push((symbol, to));
        self
    }

    /// Finalizes the automaton (sorts and deduplicates transitions).
    pub fn build(mut self) -> Nfa {
        for row in &mut self.transitions {
            row.sort_unstable();
            row.dedup();
        }
        Nfa {
            alphabet: self.alphabet,
            initial: self.initial,
            accepting: self.accepting,
            transitions: self.transitions,
            fingerprint: std::sync::OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unambiguous NFA of Figure 1 in the paper (alphabet {a,b}).
    pub fn figure1() -> Nfa {
        let ab = Alphabet::from_chars(&['a', 'b']);
        // States: q0=0, q1=1, q2=2, q3=3, q4=4, qF=5, q5=6.
        let mut b = Nfa::builder(ab, 7);
        b.set_initial(0);
        b.set_accepting(5);
        let a = 0;
        let bb = 1;
        b.add_transition(0, a, 1); // q0 -a-> q1
        b.add_transition(0, bb, 2); // q0 -b-> q2
        b.add_transition(1, a, 3); // q1 -a-> q3
        b.add_transition(2, bb, 4); // q2 -b-> q4
        b.add_transition(2, a, 6); // q2 -a-> q5
        b.add_transition(3, a, 5); // q3 -a-> qF
        b.add_transition(3, bb, 5); // q3 -b-> qF
        b.add_transition(4, a, 5); // q4 -a-> qF
        b.add_transition(6, bb, 6); // q5 -b-> q5
        b.build()
    }

    #[test]
    fn figure1_membership() {
        let n = figure1();
        let ab = n.alphabet().clone();
        for (w, expect) in [
            ("aaa", true),
            ("aab", true),
            ("bba", true),
            ("aba", false),
            ("bbb", false),
            ("aa", false),
            ("", false),
        ] {
            let word = crate::parse_word(w, &ab).unwrap();
            assert_eq!(n.accepts(&word), expect, "word {w}");
        }
    }

    #[test]
    fn prefix_reach_sets_track_simulation() {
        let n = figure1();
        let word = crate::parse_word("aab", n.alphabet()).unwrap();
        let sets = n.prefix_reach_sets(&word);
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[0].iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(sets[1].iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(sets[2].iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(sets[3].iter().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn trim_removes_dead_branch() {
        let n = figure1();
        // q5 (id 6) loops on b and never accepts: trimming drops it.
        let t = n.trimmed();
        assert_eq!(t.num_states(), 6);
        let word = crate::parse_word("bba", t.alphabet()).unwrap();
        assert!(t.accepts(&word));
    }

    #[test]
    fn trim_keeps_initial_when_empty() {
        let ab = Alphabet::binary();
        let mut b = Nfa::builder(ab, 3);
        b.set_initial(0);
        b.add_transition(0, 0, 1);
        // No accepting states at all.
        let t = b.build().trimmed();
        assert_eq!(t.num_states(), 1);
        assert!(!t.accepts(&[0]));
        assert!(!t.accepts(&[]));
    }

    #[test]
    fn single_accepting_preserves_fixed_length_language() {
        let ab = Alphabet::binary();
        let mut b = Nfa::builder(ab, 3);
        b.set_initial(0);
        // Accepts 0 at state 1 and 1 at state 2; both length-1 words accepted.
        b.add_transition(0, 0, 1);
        b.add_transition(0, 1, 2);
        b.set_accepting(1);
        b.set_accepting(2);
        let n = b.build();
        let s = n.with_single_accepting();
        assert_eq!(s.accepting_states().count(), 1);
        for w in [[0], [1]] {
            assert_eq!(n.accepts(&w), s.accepts(&w));
        }
        assert!(!s.accepts(&[0, 0]));
    }

    #[test]
    fn step_iterators() {
        let n = figure1();
        assert_eq!(n.step(0, 0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(n.step(3, 1).collect::<Vec<_>>(), vec![5]);
        assert_eq!(n.step(5, 0).count(), 0);
        assert_eq!(n.num_transitions(), 9);
    }

    #[test]
    fn fingerprint_is_structural() {
        let n = figure1();
        // Stable across clones and re-builds of the same structure.
        assert_eq!(n.fingerprint(), n.clone().fingerprint());
        assert_eq!(n.fingerprint(), figure1().fingerprint());
        // Sensitive to every component.
        let mut b = Nfa::builder(n.alphabet().clone(), 7);
        b.set_initial(1); // different initial
        b.set_accepting(5);
        for &(f, s, t) in &[(0, 0, 1), (0, 1, 2), (1, 0, 3)] {
            b.add_transition(f, s as Symbol, t);
        }
        assert_ne!(n.fingerprint(), b.build().fingerprint());
        let trimmed = n.trimmed();
        assert_ne!(
            n.fingerprint(),
            trimmed.fingerprint(),
            "state count folded in"
        );
        // Alphabets of equal width but different characters differ.
        let a1 = Nfa::builder(Alphabet::binary(), 1).build();
        let a2 = Nfa::builder(Alphabet::from_chars(&['a', 'b']), 1).build();
        assert_ne!(a1.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn builder_dedups() {
        let ab = Alphabet::binary();
        let mut b = Nfa::builder(ab, 2);
        b.add_transition(0, 0, 1);
        b.add_transition(0, 0, 1);
        let n = b.build();
        assert_eq!(n.num_transitions(), 1);
    }
}
