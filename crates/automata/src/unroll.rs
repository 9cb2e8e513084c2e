//! The unrolled layered DAG `N_unroll` of §6.2 / Lemma 15.
//!
//! Given an NFA `N` with `m` states and a target length `n`, the unrolling has a
//! vertex for every (layer `t`, NFA state `q`) pair that lies on some accepting
//! path — layer `t` holds the states reachable after reading exactly `t` symbols
//! that can still reach an accepting state at layer `n`. Every word of `L_n(N)`
//! corresponds to at least one labeled start→accepting path (exactly one when `N`
//! is unambiguous), which is what all three algorithm families run on:
//!
//! * counting (§5.3.2, §6): dynamic programs and sketches per vertex;
//! * enumeration (Algorithm 1): ordered DFS over out-edges;
//! * sampling (§5.3.3, Algorithm 4): backward walks over in-edges.
//!
//! Pruning both unreachable and non-co-reachable vertices is safe for all of
//! them: any start→`v` path only visits vertices that can reach `v`, so the
//! string sets `U(v)` of §6.2 are untouched for surviving vertices, and vertices
//! off all accepting paths contribute to no answer (the paper prunes the same
//! way: step 3 of Algorithm 5 and the final step of Lemma 15).
//!
//! **Size.** The DAG's memory follows the DAG, not `n·m`: vertices and CSR
//! edges, plus `2·(n+1)·⌈m/64⌉` words for the `(layer, state)` lookup (the
//! per-layer viable bitsets and their running popcounts). A build costs
//! `O(|V| + |E| + n·⌈m/64⌉)` past the forward sweep over the automaton's
//! transitions. Prepared-instance caches size themselves by
//! [`UnrolledDag::approx_bytes`], and snapshots rebuild the DAG instead of
//! storing it, so both follow the same bound.

use lsc_arith::BigNat;

use crate::{bit_indices, Nfa, StateId, Symbol, Word};

/// A vertex of the unrolled DAG.
pub type NodeId = usize;

/// The unrolled, pruned, layered DAG of an NFA at a fixed word length.
///
/// Edges are stored in CSR (compressed sparse row) form: one flat
/// `(Symbol, NodeId)` array per direction plus per-node offsets, instead of a
/// `Vec<Vec<…>>` of per-node heap allocations. Node ids are assigned in
/// layer-major order and edges of a node are contiguous and sorted, so the
/// FPRAS sampler's backward walks and the enumeration DFS read adjacency
/// lists as sequential cache lines.
///
/// The `(layer, state) → node` lookup is a rank over the per-layer viable
/// bitsets. Ids follow `(layer, state)` order, so the id of a surviving
/// `(t, q)` is the number of set bits before it in the concatenated
/// bitsets: one stored prefix count per 64-bit word plus a `popcount`
/// inside the word. That costs `2·(n+1)·⌈m/64⌉` words where a dense
/// `(n+1)·m` slot table would dominate a DAG that is nearly a path (an
/// unambiguous instance often keeps one vertex per layer).
#[derive(Clone, Debug)]
pub struct UnrolledDag {
    n: usize,
    alphabet_size: usize,
    /// `(layer, nfa_state)` per node, layer-major order.
    nodes: Vec<(usize, StateId)>,
    /// Layer `t` holds the node ids `layer_off[t]..layer_off[t + 1]`.
    layer_off: Vec<NodeId>,
    /// `(0, initial)`, if it survived pruning.
    start: Option<NodeId>,
    /// Flat out-edge array; node `v` owns `out_flat[out_off[v]..out_off[v+1]]`,
    /// sorted by `(symbol, target)`.
    out_flat: Vec<(Symbol, NodeId)>,
    out_off: Vec<usize>,
    /// Flat in-edge array; node `v` owns `in_flat[in_off[v]..in_off[v+1]]`,
    /// sorted by `(symbol, source)`.
    in_flat: Vec<(Symbol, NodeId)>,
    in_off: Vec<usize>,
    /// Surviving states, `words` packed words per layer: bit `q % 64` of
    /// `viable[t * words + q / 64]` is set iff `(t, q)` is a vertex.
    viable: Vec<u64>,
    /// `rank[i]` = set bits in `viable[..i]` = the id of the first vertex
    /// at or after word `i`.
    rank: Vec<NodeId>,
    m: usize,
    words: usize,
}

impl UnrolledDag {
    /// Unrolls `nfa` to depth `n` and prunes vertices off accepting paths.
    pub fn build(nfa: &Nfa, n: usize) -> UnrolledDag {
        let m = nfa.num_states();
        let words = m.div_ceil(64);
        // Forward pass: row `t` of `viable` starts as the states reachable
        // after exactly `t` symbols.
        let mut viable = vec![0u64; (n + 1) * words];
        let initial = nfa.initial();
        viable[initial / 64] |= 1 << (initial % 64);
        for t in 0..n {
            let (done, rest) = viable.split_at_mut((t + 1) * words);
            for q in bit_indices(&done[t * words..]) {
                for &(_, s) in nfa.transitions_from(q) {
                    rest[s / 64] |= 1 << (s % 64);
                }
            }
        }
        // Backward pass, in place: row `t` keeps the states that still reach
        // acceptance at layer `n` (row `t + 1` is final by then).
        for t in (0..=n).rev() {
            let (row, next) = viable[t * words..].split_at_mut(words);
            for (wi, row_word) in row.iter_mut().enumerate() {
                for b in bit_indices(&[*row_word]) {
                    let q = wi * 64 + b;
                    let keep = if t == n {
                        nfa.is_accepting(q)
                    } else {
                        nfa.transitions_from(q)
                            .iter()
                            .any(|&(_, s)| next[s / 64] & (1 << (s % 64)) != 0)
                    };
                    if !keep {
                        *row_word &= !(1 << b);
                    }
                }
            }
        }
        // Nodes and rank, both in `(layer, state)` order.
        let mut nodes = Vec::new();
        let mut rank = Vec::with_capacity(viable.len());
        let mut layer_off = Vec::with_capacity(n + 2);
        for t in 0..=n {
            layer_off.push(nodes.len());
            for wi in 0..words {
                rank.push(nodes.len());
                nodes.extend(bit_indices(&[viable[t * words + wi]]).map(|b| (t, wi * 64 + b)));
            }
        }
        layer_off.push(nodes.len());
        let mut dag = UnrolledDag {
            n,
            alphabet_size: nfa.alphabet().len(),
            nodes,
            layer_off,
            start: None,
            out_flat: Vec::new(),
            out_off: Vec::new(),
            in_flat: Vec::new(),
            in_off: Vec::new(),
            viable,
            rank,
            m,
            words,
        };
        dag.start = dag.node_at(0, initial);
        // CSR edge arrays: count degrees, prefix-sum into offsets, then fill
        // with per-node write cursors and sort each node's segment.
        let num_nodes = dag.nodes.len();
        let mut out_off = vec![0usize; num_nodes + 1];
        let mut in_off = vec![0usize; num_nodes + 1];
        for (id, &(t, q)) in dag.nodes.iter().enumerate() {
            for &(_, s) in nfa.transitions_from(q) {
                if let Some(succ) = dag.node_at(t + 1, s) {
                    out_off[id + 1] += 1;
                    in_off[succ + 1] += 1;
                }
            }
        }
        for i in 1..out_off.len() {
            out_off[i] += out_off[i - 1];
            in_off[i] += in_off[i - 1];
        }
        let num_edges = *out_off.last().unwrap_or(&0);
        let mut out_flat = vec![(0 as Symbol, 0 as NodeId); num_edges];
        let mut in_flat = vec![(0 as Symbol, 0 as NodeId); num_edges];
        let mut out_cur = out_off.clone();
        let mut in_cur = in_off.clone();
        for (id, &(t, q)) in dag.nodes.iter().enumerate() {
            for &(a, s) in nfa.transitions_from(q) {
                if let Some(succ) = dag.node_at(t + 1, s) {
                    out_flat[out_cur[id]] = (a, succ);
                    out_cur[id] += 1;
                    in_flat[in_cur[succ]] = (a, id);
                    in_cur[succ] += 1;
                }
            }
        }
        for v in 0..num_nodes {
            out_flat[out_off[v]..out_off[v + 1]].sort_unstable();
            in_flat[in_off[v]..in_off[v + 1]].sort_unstable();
        }
        dag.out_flat = out_flat;
        dag.out_off = out_off;
        dag.in_flat = in_flat;
        dag.in_off = in_off;
        dag
    }

    /// The target word length `n`.
    pub fn word_length(&self) -> usize {
        self.n
    }

    /// Size of the underlying alphabet.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Number of surviving vertices.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of surviving edges.
    pub fn num_edges(&self) -> usize {
        self.out_flat.len()
    }

    /// Rough heap footprint of the DAG in bytes (nodes, CSR edge arrays,
    /// layer offsets, and the `(layer, state)` rank index)
    /// — the sizing input for byte-capped caches of prepared instances.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<(usize, StateId)>()
            + (self.out_flat.len() + self.in_flat.len()) * size_of::<(Symbol, NodeId)>()
            + (self.out_off.len() + self.in_off.len()) * size_of::<usize>()
            + (self.layer_off.len() + self.rank.len()) * size_of::<NodeId>()
            + self.viable.len() * size_of::<u64>()
    }

    /// True iff `L_n(N) = ∅` (no start vertex survived, or no accepting vertex).
    pub fn is_empty(&self) -> bool {
        self.start.is_none() || self.accepting().is_empty()
    }

    /// The start vertex `(0, initial)`, unless the language is empty.
    pub fn start(&self) -> Option<NodeId> {
        self.start
    }

    /// Accepting vertices: layer `n`, where pruning keeps only accepting
    /// states.
    pub fn accepting(&self) -> std::ops::Range<NodeId> {
        self.layer(self.n)
    }

    /// Vertices of a layer, in NFA-state order: ids are layer-major, so a
    /// layer is a contiguous id range.
    pub fn layer(&self, t: usize) -> std::ops::Range<NodeId> {
        self.layer_off[t]..self.layer_off[t + 1]
    }

    /// The `(layer, state)` pair of a vertex.
    pub fn node_info(&self, v: NodeId) -> (usize, StateId) {
        self.nodes[v]
    }

    /// Looks up the vertex for `(layer, state)`, if it survived pruning.
    /// `None` for a layer past `n` or a state outside the automaton.
    pub fn node_at(&self, layer: usize, state: StateId) -> Option<NodeId> {
        if layer > self.n || state >= self.m {
            return None;
        }
        let i = layer * self.words + state / 64;
        let below = self.viable[i] & ((1u64 << (state % 64)) - 1);
        (self.viable[i] >> (state % 64) & 1 == 1)
            .then(|| self.rank[i] + below.count_ones() as usize)
    }

    /// Out-edges of `v`, sorted by `(symbol, target)` — the fixed total order
    /// Algorithm 1 requires on each `V(q)`. A contiguous slice of the CSR
    /// edge array.
    pub fn out_edges(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        &self.out_flat[self.out_off[v]..self.out_off[v + 1]]
    }

    /// In-edges of `v`, sorted by `(symbol, source)` — the per-symbol
    /// predecessor partitions `T_b` of Algorithm 4. A contiguous slice of the
    /// CSR edge array.
    pub fn in_edges(&self, v: NodeId) -> &[(Symbol, NodeId)] {
        &self.in_flat[self.in_off[v]..self.in_off[v + 1]]
    }

    /// Number of labeled paths from each vertex to an accepting vertex.
    ///
    /// For an unambiguous NFA this equals `|{y : y completes v}|` — the count
    /// table behind exact counting (§5.3.2) and the table sampler (§5.3.3).
    pub fn completion_counts(&self) -> Vec<BigNat> {
        let mut counts = vec![BigNat::zero(); self.nodes.len()];
        for v in self.accepting() {
            counts[v] = BigNat::one();
        }
        // One wide accumulator reused across every node: the per-node sum
        // runs limb-batched in a buffer that stops reallocating once it has
        // grown to the table's working width, instead of rebuilding a fresh
        // `BigNat` per node. Nodes whose successor counts all fit one limb —
        // every layer until the table outgrows u64 — take a checked-add fast
        // path that touches no limb vector at all.
        let mut acc = BigNat::zero();
        for t in (0..self.n).rev() {
            for v in self.layer(t) {
                let outs = self.out_edges(v);
                let mut small = Some(0u64);
                for &(_, succ) in outs {
                    small = match (small, counts[succ].to_u64()) {
                        (Some(s), Some(c)) => s.checked_add(c),
                        _ => None,
                    };
                    if small.is_none() {
                        break;
                    }
                }
                counts[v] = match small {
                    Some(s) => BigNat::from_u64(s),
                    None => {
                        acc.set_zero();
                        for &(_, succ) in outs {
                            acc.add_assign_ref(&counts[succ]);
                        }
                        acc.clone()
                    }
                };
            }
        }
        counts
    }

    /// Number of labeled paths from the start vertex to each vertex
    /// (= `|U(v)|` run-counts; equals `|U(v)|` string-counts iff unambiguous).
    pub fn prefix_counts(&self) -> Vec<BigNat> {
        let mut counts = vec![BigNat::zero(); self.nodes.len()];
        if let Some(s) = self.start {
            counts[s] = BigNat::one();
        }
        // `counts[v]` and `counts[succ]` alias the same vector, so the source
        // is staged through a scratch value — cloned once per node into a
        // buffer that keeps its capacity, not once per out-edge.
        let mut src = BigNat::zero();
        for t in 0..self.n {
            for v in self.layer(t) {
                if counts[v].is_zero() {
                    continue;
                }
                src.set_zero();
                src.add_assign_ref(&counts[v]);
                for i in self.out_off[v]..self.out_off[v + 1] {
                    let succ = self.out_flat[i].1;
                    counts[succ].add_assign_ref(&src);
                }
            }
        }
        counts
    }

    /// The label word of a start→accepting path given as vertex choices, for
    /// debugging and tests.
    pub fn path_word(&self, path: &[NodeId]) -> Option<Word> {
        let mut word = Vec::with_capacity(path.len().saturating_sub(1));
        for win in path.windows(2) {
            let (v, w) = (win[0], win[1]);
            let &(sym, _) = self.out_edges(v).iter().find(|&&(_, t)| t == w)?;
            word.push(sym);
        }
        Some(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use crate::Alphabet;

    /// The paper's Figure 1 automaton.
    fn figure1() -> Nfa {
        let ab = Alphabet::from_chars(&['a', 'b']);
        let mut b = Nfa::builder(ab, 7);
        b.set_initial(0);
        b.set_accepting(5);
        for (f, s, t) in [
            (0, 0, 1),
            (0, 1, 2),
            (1, 0, 3),
            (2, 1, 4),
            (2, 0, 6),
            (3, 0, 5),
            (3, 1, 5),
            (4, 0, 5),
            (6, 1, 6),
        ] {
            b.add_transition(f, s, t);
        }
        b.build()
    }

    #[test]
    fn figure2_shape() {
        // Unrolling Figure 1 at n=3 gives exactly the DAG of Figure 2:
        // 6 vertices, layers {q0},{q1,q2},{q3,q4},{qF}.
        let dag = UnrolledDag::build(&figure1(), 3);
        assert_eq!(dag.num_nodes(), 6);
        assert_eq!(dag.layer(0).len(), 1);
        assert_eq!(dag.layer(1).len(), 2);
        assert_eq!(dag.layer(2).len(), 2);
        assert_eq!(dag.layer(3).len(), 1);
        assert_eq!(dag.accepting().len(), 1);
        // q5 (state 6) never appears.
        for v in 0..dag.num_nodes() {
            assert_ne!(dag.node_info(v).1, 6);
        }
        // Figure 2 has 7 edges.
        assert_eq!(dag.num_edges(), 7);
    }

    #[test]
    fn figure2_counts() {
        let dag = UnrolledDag::build(&figure1(), 3);
        let completions = dag.completion_counts();
        // L_3 = {aaa, aab, bba}: 3 paths from start.
        assert_eq!(completions[dag.start().unwrap()], BigNat::from_u64(3));
        let prefixes = dag.prefix_counts();
        assert_eq!(prefixes[dag.accepting().start], BigNat::from_u64(3));
    }

    #[test]
    fn empty_language() {
        let ab = Alphabet::binary();
        let n = Regex::parse("00", &ab).unwrap().compile();
        let dag = UnrolledDag::build(&n, 3); // no length-3 words
        assert!(dag.is_empty());
        assert_eq!(dag.num_nodes(), 0);
    }

    #[test]
    fn length_zero() {
        let ab = Alphabet::binary();
        let star = Regex::parse("0*", &ab).unwrap().compile();
        let dag = UnrolledDag::build(&star, 0);
        assert!(!dag.is_empty());
        assert_eq!(dag.num_nodes(), 1);
        let start = dag.start().unwrap();
        assert_eq!(dag.accepting(), start..start + 1);
        assert_eq!(dag.completion_counts()[dag.start().unwrap()], BigNat::one());
    }

    #[test]
    fn node_lookup_consistency() {
        let dag = UnrolledDag::build(&figure1(), 3);
        for v in 0..dag.num_nodes() {
            let (t, q) = dag.node_info(v);
            assert_eq!(dag.node_at(t, q), Some(v));
        }
        assert_eq!(dag.node_at(1, 6), None, "pruned state is absent");
    }

    #[test]
    fn node_at_rejects_states_outside_the_automaton() {
        let nfa = figure1();
        let dag = UnrolledDag::build(&nfa, 3);
        let m = nfa.num_states();
        assert!(dag.node_at(1, 1).is_some());
        assert_eq!(dag.node_at(0, m + 1), None);
        assert_eq!(dag.node_at(0, m), None);
        assert_eq!(dag.node_at(2, usize::MAX), None);
        assert_eq!(dag.node_at(4, 0), None, "layer past n");
    }

    /// Checks `node_at` and `layer` against a linear scan of `nodes`, over
    /// every layer up to `n + 1` and every state up to `m + 1`.
    fn assert_index_matches_scan(dag: &UnrolledDag, m: usize) {
        let ids: Vec<(usize, StateId)> = (0..dag.num_nodes()).map(|v| dag.node_info(v)).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids follow (layer, state)"
        );
        for t in 0..=dag.word_length() + 1 {
            for q in 0..=m + 1 {
                let scan = ids.iter().position(|&x| x == (t, q));
                assert_eq!(dag.node_at(t, q), scan, "node_at({t}, {q})");
            }
        }
        for t in 0..=dag.word_length() {
            let scan: Vec<NodeId> = (0..ids.len()).filter(|&v| ids[v].0 == t).collect();
            assert_eq!(dag.layer(t).collect::<Vec<_>>(), scan, "layer({t})");
        }
    }

    #[test]
    fn rank_index_matches_a_scan_on_random_automata() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (mut empty, mut wide) = (0, 0);
        for m in [1usize, 63, 64, 65, 130] {
            for seed in 0..12u64 {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + m as u64);
                // About 1.5 successors per (state, symbol): some languages
                // die out, others keep states in every word of a layer.
                let density = (1.5 / m as f64).min(0.5);
                let nfa =
                    crate::families::random_nfa(m, Alphabet::binary(), density, 0.2, &mut rng);
                for n in [0, 1, 5, 9] {
                    let dag = UnrolledDag::build(&nfa, n);
                    empty += usize::from(dag.is_empty());
                    wide += usize::from((0..dag.num_nodes()).any(|v| dag.node_info(v).1 >= 64));
                    assert_index_matches_scan(&dag, m);
                }
            }
        }
        assert!(empty > 0, "the sweep must include empty languages");
        assert!(
            wide > 0,
            "the sweep must include vertices past the first word"
        );
    }

    #[test]
    fn pruned_layers_index_nothing() {
        // Forward-reachable states exist at every layer, but no word of
        // length 3 is accepted: every layer is empty after pruning.
        let ab = Alphabet::binary();
        let nfa = Regex::parse("00", &ab).unwrap().compile();
        let dag = UnrolledDag::build(&nfa, 3);
        for t in 0..=3 {
            assert!(dag.layer(t).is_empty());
        }
        assert_index_matches_scan(&dag, nfa.num_states());
    }

    #[test]
    fn index_size_follows_the_dag_not_n_times_m() {
        // `.*1.{300}`: about 300 states, and about one surviving vertex per
        // layer. A dense (n+1)·m index alone would be about 1.5 MB.
        let ab = Alphabet::binary();
        let pattern = format!(".*1{}", ".".repeat(300));
        let nfa = Regex::parse(&pattern, &ab).unwrap().compile();
        assert!(nfa.num_states() > 300);
        let dag = UnrolledDag::build(&nfa, 320);
        assert!(!dag.is_empty());
        assert!(
            dag.approx_bytes() < 64 * 1024,
            "{} bytes for {} vertices",
            dag.approx_bytes(),
            dag.num_nodes()
        );
    }

    #[test]
    fn in_edges_mirror_out_edges() {
        let dag = UnrolledDag::build(&figure1(), 3);
        let mut out_pairs: Vec<(NodeId, Symbol, NodeId)> = Vec::new();
        let mut in_pairs: Vec<(NodeId, Symbol, NodeId)> = Vec::new();
        for v in 0..dag.num_nodes() {
            for &(s, w) in dag.out_edges(v) {
                out_pairs.push((v, s, w));
            }
            for &(s, u) in dag.in_edges(v) {
                in_pairs.push((u, s, v));
            }
        }
        out_pairs.sort_unstable();
        in_pairs.sort_unstable();
        assert_eq!(out_pairs, in_pairs);
    }

    #[test]
    fn counts_on_ambiguous_nfa_count_runs_not_words() {
        // a·a* ∪ a*·a : the word "aa" has 2 accepting runs.
        let ab = Alphabet::from_chars(&['a']);
        let r1 = Regex::parse("aa*", &ab).unwrap().compile();
        let r2 = Regex::parse("a*a", &ab).unwrap().compile();
        let u = crate::ops::union(&r1, &r2);
        let dag = UnrolledDag::build(&u, 2);
        let runs = &dag.completion_counts()[dag.start().unwrap()];
        assert!(
            *runs > BigNat::one(),
            "path DP over an ambiguous NFA overcounts: {runs}"
        );
    }

    #[test]
    fn path_word_reads_labels() {
        let dag = UnrolledDag::build(&figure1(), 3);
        let start = dag.start().unwrap();
        // Follow the first out-edge greedily: a, a, a.
        let mut path = vec![start];
        let mut cur = start;
        while let Some(&(_, next)) = dag.out_edges(cur).first() {
            path.push(next);
            cur = next;
        }
        assert_eq!(dag.path_word(&path), Some(vec![0, 0, 0]));
    }
}
