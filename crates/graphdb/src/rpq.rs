//! RPQ evaluation instances: the product construction and path decoding.

use std::sync::Arc;

use lsc_arith::BigNat;
use lsc_automata::regex::Regex;
use lsc_automata::{Alphabet, Nfa, Symbol};
use lsc_core::engine::{domain_fingerprint, RoutedCount, RouterConfig};
use lsc_core::fpras::{FprasError, FprasParams};
use lsc_core::{MemNfa, Queryable};
use rand::Rng;

use crate::{EdgeId, LabeledGraph, NodeId};

/// A decoded witness of `EVAL-RPQ`: a path `v_0 --e_1--> v_1 ... --e_n--> v_n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpqPath {
    /// Visited nodes, length `n + 1`.
    pub nodes: Vec<NodeId>,
    /// Traversed edge ids, length `n`.
    pub edges: Vec<EdgeId>,
}

impl RpqPath {
    /// Renders the path as `0 -a-> 3 -b-> 1`.
    pub fn display(&self, graph: &LabeledGraph) -> String {
        let mut s = self.nodes[0].to_string();
        for (&e, &v) in self.edges.iter().zip(&self.nodes[1..]) {
            let (_, label, _) = graph.edge(e);
            s.push_str(&format!(" -{}-> {}", graph.alphabet().name(label), v));
        }
        s
    }
}

/// A fully specified `EVAL-RPQ` instance `(Q, 0^n, G, u, v)` reduced to
/// MEM-NFA over the edge alphabet.
pub struct RpqInstance {
    graph: LabeledGraph,
    instance: MemNfa,
    source: NodeId,
}

impl RpqInstance {
    /// Builds the instance for query regex `pattern` (over the graph's label
    /// alphabet), path length `n`, and endpoints `u → v`.
    ///
    /// The product automaton: states `(graph node, query state)` (plus nothing
    /// else — the initial pair is `(u, q₀)`, accepting pairs are `(v, f)`);
    /// transition `(x, q) --e--> (y, q')` for every graph edge `e = (x, a, y)`
    /// and query transition `(q, a, q')`. Words over the *edge-id* alphabet
    /// are in bijection with paths, so `|L_n| = |⟦Q⟧_n(G, u, v)|` even though
    /// the automaton may be ambiguous in the query component (several query
    /// runs over one path never duplicate a witness... they make the NFA
    /// ambiguous, which is exactly why Corollary 8 needs Theorem 2 rather
    /// than Theorem 5).
    ///
    /// # Panics
    /// Panics if the pattern fails to parse over the graph's alphabet.
    pub fn new(
        graph: LabeledGraph,
        pattern: &str,
        n: usize,
        source: NodeId,
        target: NodeId,
    ) -> Self {
        Self::build(graph, pattern, n, source, target, false)
    }

    /// Like [`RpqInstance::new`] but for paths of length *at most* `n` — the
    /// practical query form. Implemented inside the same fixed-length
    /// framework by a padding symbol: witnesses are `path ∘ pad^(n−|path|)`
    /// where `pad` is a fresh edge id allowed only after acceptance, so
    /// padded words are in bijection with paths of length ≤ n.
    pub fn new_up_to(
        graph: LabeledGraph,
        pattern: &str,
        n: usize,
        source: NodeId,
        target: NodeId,
    ) -> Self {
        Self::build(graph, pattern, n, source, target, true)
    }

    fn build(
        graph: LabeledGraph,
        pattern: &str,
        n: usize,
        source: NodeId,
        target: NodeId,
        up_to: bool,
    ) -> Self {
        let query = Regex::parse(pattern, graph.alphabet())
            .expect("pattern must parse over the graph's label alphabet")
            .compile();
        let mq = query.num_states();
        let pad = graph.num_edges();
        let width = graph.num_edges() + usize::from(up_to);
        let edge_alphabet = Alphabet::sized(width);
        let state_of = |node: NodeId, q: usize| node * mq + q;
        let mut b = Nfa::builder(edge_alphabet, graph.num_nodes() * mq + 1);
        let done = graph.num_nodes() * mq; // pad sink (up-to mode only)
        b.set_initial(state_of(source, query.initial()));
        for qf in query.accepting_states() {
            b.set_accepting(state_of(target, qf));
            if up_to {
                b.add_transition(state_of(target, qf), pad as Symbol, done);
            }
        }
        if up_to {
            b.set_accepting(done);
            b.add_transition(done, pad as Symbol, done);
        }
        for node in 0..graph.num_nodes() {
            for &e in graph.out_edges(node) {
                let (_, label, next) = graph.edge(e);
                for q in 0..mq {
                    for q2 in query.step(q, label) {
                        b.add_transition(state_of(node, q), e as Symbol, state_of(next, q2));
                    }
                }
            }
        }
        let nfa = b.build().trimmed();
        RpqInstance {
            graph,
            instance: MemNfa::new(nfa, n),
            source,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &LabeledGraph {
        &self.graph
    }

    /// The underlying MEM-NFA instance (for direct toolbox access).
    pub fn mem_nfa(&self) -> &MemNfa {
        &self.instance
    }

    /// Decodes an edge-id word into a path (padding symbols, present in
    /// up-to-length instances, terminate the path).
    fn decode(&self, word: &[Symbol]) -> RpqPath {
        let mut nodes = vec![self.source];
        let mut cur = self.source;
        let mut edges = Vec::with_capacity(word.len());
        for &sym in word {
            let e = sym as EdgeId;
            if e >= self.graph.num_edges() {
                break; // pad symbol: the real path ended here
            }
            let (u, _, v) = self.graph.edge(e);
            debug_assert_eq!(u, cur, "witness word is a connected path");
            edges.push(e);
            nodes.push(v);
            cur = v;
        }
        RpqPath { nodes, edges }
    }

    /// Exact number of satisfying paths (oracle; exponential worst case).
    pub fn count_paths_oracle(&self) -> BigNat {
        self.instance.count_oracle()
    }

    /// Exact count when the product is unambiguous (e.g. a deterministic
    /// query automaton), else `None` — then use [`RpqInstance::count_paths_approx`].
    pub fn count_paths_exact(&self) -> Option<BigNat> {
        self.instance.count_exact().ok()
    }

    /// FPRAS estimate of the path count (Corollary 8).
    ///
    /// # Errors
    /// Propagates FPRAS failure events.
    pub fn count_paths_approx<R: Rng + ?Sized>(
        &self,
        params: FprasParams,
        rng: &mut R,
    ) -> Result<lsc_arith::BigFloat, FprasError> {
        self.instance.count_approx(params, rng)
    }

    /// Routed path count: exact where exactness is affordable (deterministic
    /// query automata make the product unambiguous; small products
    /// determinize), FPRAS otherwise. The ambiguity probe and determinization
    /// are cached on this instance, so a workload that re-counts the same
    /// query — the standard RPQ serving pattern — re-decides nothing.
    ///
    /// # Errors
    /// Propagates FPRAS failure events when the FPRAS route fires.
    pub fn count_paths_routed<R: Rng + ?Sized>(
        &self,
        config: &RouterConfig,
        rng: &mut R,
    ) -> Result<RoutedCount, FprasError> {
        self.instance.count_routed(config, rng)
    }

    /// Enumerates all satisfying paths (polynomial delay).
    pub fn enumerate_paths(&self) -> impl Iterator<Item = RpqPath> + '_ {
        self.instance.enumerate().map(|w| self.decode(&w))
    }

    /// Uniform path samples via the Las Vegas generator (Corollary 8).
    ///
    /// # Errors
    /// Propagates FPRAS failure events from preprocessing.
    pub fn sample_paths<R: Rng + ?Sized>(
        &self,
        how_many: usize,
        params: FprasParams,
        rng: &mut R,
    ) -> Result<Vec<RpqPath>, FprasError> {
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

/// An RPQ instance is directly queryable: the generic engine entry points
/// serve path counts, streaming path enumeration (pageable via resume
/// tokens), and uniform path samples, decoded to [`RpqPath`] values. The
/// session is keyed by the already-built product automaton, so repeated
/// queries on one instance — the standard RPQ serving pattern — share one
/// prepared artifact engine-wide.
impl Queryable for RpqInstance {
    type Output = RpqPath;

    fn to_instance(&self) -> (Arc<Nfa>, usize) {
        (
            self.instance.prepared().nfa_arc().clone(),
            self.instance.length(),
        )
    }

    fn decode(&self, word: &[Symbol]) -> RpqPath {
        RpqInstance::decode(self, word)
    }

    fn domain_fingerprint(&self) -> u64 {
        domain_fingerprint("eval-rpq", [self.instance.prepared().fingerprint()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yottabyte_graph;
    use lsc_automata::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 4-node diamond: 0 →a 1 →b 3, 0 →a 2 →b 3, plus a c-loop at 3.
    fn diamond() -> LabeledGraph {
        let mut g = LabeledGraph::new(4, Alphabet::lowercase(3));
        g.add_edge(0, 0, 1);
        g.add_edge(1, 1, 3);
        g.add_edge(0, 0, 2);
        g.add_edge(2, 1, 3);
        g.add_edge(3, 2, 3);
        g
    }

    #[test]
    fn count_and_enumerate_diamond() {
        // Paths 0→3 of length 3 matching ab·c*: two (via 1 or via 2) + c-loop.
        let inst = RpqInstance::new(diamond(), "abc*", 3, 0, 3);
        assert_eq!(inst.count_paths_oracle().to_u64(), Some(2));
        let paths: Vec<RpqPath> = inst.enumerate_paths().collect();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.nodes.first(), Some(&0));
            assert_eq!(p.nodes.last(), Some(&3));
            assert_eq!(p.edges.len(), 3);
            // Label word must match ab·c*.
            let word = inst.graph().label_word(0, &p.edges).unwrap();
            assert_eq!(&word[..2], &[0, 1]);
            assert!(word[2..].iter().all(|&l| l == 2));
        }
        // Display is human-readable.
        assert!(paths[0].display(inst.graph()).starts_with("0 -a-> "));
    }

    #[test]
    fn length_zero_paths() {
        let inst = RpqInstance::new(diamond(), "a*", 0, 0, 0);
        let paths: Vec<RpqPath> = inst.enumerate_paths().collect();
        assert_eq!(paths.len(), 1, "the empty path matches a* at u = v");
        assert_eq!(inst.count_paths_oracle().to_u64(), Some(1));
        let none = RpqInstance::new(diamond(), "a*", 0, 0, 3);
        assert_eq!(none.count_paths_oracle().to_u64(), Some(0));
    }

    #[test]
    fn yottabyte_counts_blow_up_and_fpras_tracks() {
        // Loop+cycle graph: path counts grow exponentially with n.
        let g = yottabyte_graph(4);
        let n = 24;
        let inst = RpqInstance::new(g, "a*", n, 0, 0);
        let truth = inst.count_paths_oracle();
        assert!(truth > BigNat::from_u64(1 << 20), "truth {truth}");
        let mut rng = StdRng::seed_from_u64(42);
        let est = inst
            .count_paths_approx(FprasParams::quick(), &mut rng)
            .unwrap();
        let t = truth.to_f64();
        assert!(
            (est.to_f64() - t).abs() / t < 0.2,
            "est {est}, truth {truth}"
        );
    }

    #[test]
    fn routed_counts_are_stable_across_repeats() {
        use lsc_core::engine::RouterConfig;
        // A fixed-length pattern gives a small determinizable product; the
        // route is decided once and every repeat serves the same answer.
        let inst = RpqInstance::new(diamond(), "abc*", 3, 0, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let config = RouterConfig::default();
        let first = inst.count_paths_routed(&config, &mut rng).unwrap();
        assert!(first.is_exact());
        assert_eq!(first.exact.as_ref().unwrap().to_u64(), Some(2));
        for _ in 0..4 {
            let again = inst.count_paths_routed(&config, &mut rng).unwrap();
            assert_eq!(again.route, first.route);
            assert_eq!(again.exact, first.exact);
        }
    }

    #[test]
    fn sampled_paths_are_valid_witnesses() {
        let g = yottabyte_graph(3);
        let inst = RpqInstance::new(g, "a*", 8, 0, 0);
        let mut rng = StdRng::seed_from_u64(43);
        let paths = inst
            .sample_paths(20, FprasParams::quick(), &mut rng)
            .unwrap();
        assert!(!paths.is_empty());
        for p in paths {
            assert_eq!(p.nodes[0], 0);
            assert_eq!(*p.nodes.last().unwrap(), 0);
            assert_eq!(p.edges.len(), 8);
            assert!(inst.graph().label_word(0, &p.edges).is_some());
        }
    }

    #[test]
    fn typed_engine_queries_return_paths() {
        use lsc_core::ShardedEngine;
        let inst = RpqInstance::new(diamond(), "abc*", 3, 0, 3);
        let engine = ShardedEngine::with_defaults();
        let direct: Vec<RpqPath> = inst.enumerate_paths().collect();
        let typed: Vec<RpqPath> = engine.enumerate(&inst).collect();
        assert_eq!(typed, direct);
        // Page across a resume token: the stitched stream is identical.
        let mut cursor = engine.enumerate(&inst);
        let first: Vec<RpqPath> = cursor.by_ref().take(1).collect();
        let rest: Vec<RpqPath> = engine.resume(&inst, &cursor.token()).unwrap().collect();
        assert_eq!(first.into_iter().chain(rest).collect::<Vec<_>>(), direct);
        // COUNT and GEN off the same session.
        let routed = engine.count(&inst).unwrap();
        assert_eq!(routed.exact.map(|c| c.to_u64().unwrap()), Some(2));
        for p in engine.sample(&inst, 11).unwrap().take(4) {
            assert_eq!(p.nodes.first(), Some(&0));
            assert_eq!(p.nodes.last(), Some(&3));
        }
        assert_eq!(
            engine.stats().aggregate.misses,
            1,
            "one session serves everything"
        );
    }

    #[test]
    fn up_to_length_counts_all_shorter_paths() {
        // On the diamond: paths 0→3 matching ab·c* of length ≤ 5 are
        // ab (two of them), abc, abcc, abccc — one per length per branch,
        // but only the via-1/via-2 pair at length 2 doubles up.
        let exact: u64 = (0..=5)
            .map(|len| {
                RpqInstance::new(diamond(), "abc*", len, 0, 3)
                    .count_paths_oracle()
                    .to_u64()
                    .unwrap()
            })
            .sum();
        let inst = RpqInstance::new_up_to(diamond(), "abc*", 5, 0, 3);
        assert_eq!(inst.count_paths_oracle().to_u64(), Some(exact));
        // Decoded paths have their true (unpadded) lengths and endpoints.
        let mut lengths: Vec<usize> = inst.enumerate_paths().map(|p| p.edges.len()).collect();
        lengths.sort_unstable();
        assert_eq!(lengths.len() as u64, exact);
        assert!(lengths.iter().all(|&l| (2..=5).contains(&l)));
        for p in inst.enumerate_paths() {
            assert_eq!(p.nodes.last(), Some(&3));
            assert!(inst.graph().label_word(0, &p.edges).is_some());
        }
    }

    #[test]
    fn up_to_length_includes_empty_path() {
        let inst = RpqInstance::new_up_to(diamond(), "a*", 3, 0, 0);
        // Paths 0→0 matching a* of length ≤ 3: only the empty path.
        assert_eq!(inst.count_paths_oracle().to_u64(), Some(1));
        let paths: Vec<RpqPath> = inst.enumerate_paths().collect();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].edges.is_empty());
    }

    #[test]
    fn query_filters_labels() {
        // Only the b-edge path of length 2 survives an a-only query.
        let mut g = LabeledGraph::new(3, Alphabet::lowercase(2));
        g.add_edge(0, 0, 1); // a
        g.add_edge(1, 0, 2); // a
        g.add_edge(0, 1, 1); // b
        g.add_edge(1, 1, 2); // b
        let inst = RpqInstance::new(g, "aa", 2, 0, 2);
        assert_eq!(inst.count_paths_oracle().to_u64(), Some(1));
        let all = RpqInstance::new(
            {
                let mut g = LabeledGraph::new(3, Alphabet::lowercase(2));
                g.add_edge(0, 0, 1);
                g.add_edge(1, 0, 2);
                g.add_edge(0, 1, 1);
                g.add_edge(1, 1, 2);
                g
            },
            "(a|b)(a|b)",
            2,
            0,
            2,
        );
        assert_eq!(all.count_paths_oracle().to_u64(), Some(4));
    }
}
