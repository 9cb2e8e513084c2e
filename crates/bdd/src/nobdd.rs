//! Nondeterministic OBDDs (nOBDDs, \[ACMS18\]) and their NFA reduction.

use std::collections::HashMap;
use std::sync::Arc;

use lsc_automata::{Alphabet, EpsNfa, Nfa, Symbol};
use lsc_core::engine::domain_fingerprint;
use lsc_core::Queryable;

/// One node of an nOBDD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NObddNode {
    /// A sink labeled 0 or 1.
    Terminal(bool),
    /// A variable test: `var`, else-child, then-child. Variables must strictly
    /// increase along every path (the ordering promise).
    Decision {
        /// Tested variable.
        var: u32,
        /// Child for `x_var = 0`.
        lo: usize,
        /// Child for `x_var = 1`.
        hi: usize,
    },
    /// A nondeterministic ⊔-node (`var(u) = ⊥` in the paper): the run may
    /// continue through any child without consuming a variable.
    Union(Vec<usize>),
}

/// A nondeterministic OBDD: `D(σ) = 1` iff *some* root→`1` path is consistent
/// with `σ`. An assignment may have many accepting paths — that is exactly
/// why `EVAL-nOBDD` sits in `RelationNL` but (apparently) not `RelationUL`,
/// and why Corollary 10 (FPRAS + PLVUG) was new.
#[derive(Clone, Debug)]
pub struct NObdd {
    num_vars: usize,
    nodes: Vec<NObddNode>,
    root: usize,
}

impl NObdd {
    /// Builds an nOBDD; validates child indices and the variable ordering.
    ///
    /// # Panics
    /// Panics on out-of-range children or a decision edge that does not
    /// strictly increase the variable.
    pub fn new(num_vars: usize, nodes: Vec<NObddNode>, root: usize) -> Self {
        assert!(root < nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let check_child = |c: usize, from_var: Option<u32>| {
                assert!(c < nodes.len(), "node {i}: child {c} out of range");
                if let (Some(v), NObddNode::Decision { var, .. }) = (from_var, &nodes[c]) {
                    assert!(*var > v, "node {i}: ordering violated ({} ≤ {v})", var);
                }
            };
            match n {
                NObddNode::Terminal(_) => {}
                NObddNode::Decision { var, lo, hi } => {
                    assert!((*var as usize) < num_vars);
                    check_child(*lo, Some(*var));
                    check_child(*hi, Some(*var));
                }
                NObddNode::Union(children) => {
                    assert!(!children.is_empty(), "node {i}: empty union");
                    for &c in children {
                        check_child(c, None);
                    }
                }
            }
        }
        NObdd {
            num_vars,
            nodes,
            root,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Evaluates `D(σ)` by depth-first search over consistent paths.
    pub fn eval(&self, assignment: u128) -> bool {
        let mut stack = vec![self.root];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(u) = stack.pop() {
            if seen[u] {
                continue;
            }
            seen[u] = true;
            match &self.nodes[u] {
                NObddNode::Terminal(true) => return true,
                NObddNode::Terminal(false) => {}
                NObddNode::Decision { var, lo, hi } => {
                    stack.push(if assignment >> var & 1 == 1 { *hi } else { *lo });
                }
                NObddNode::Union(children) => stack.extend(children.iter().copied()),
            }
        }
        false
    }

    /// Brute-force model count (test oracle).
    ///
    /// # Panics
    /// Panics if `num_vars > 20`.
    pub fn count_models_brute_force(&self) -> u64 {
        assert!(self.num_vars <= 20);
        (0..1u128 << self.num_vars)
            .filter(|&a| self.eval(a))
            .count() as u64
    }
}

/// The §4.3 reduction for nOBDDs: an NFA over `{0,1}` whose length-`n` words
/// are the satisfying assignments. Decision nodes consume a bit, skipped
/// variables pass both bits, ⊔-nodes become ε-transitions (removed before
/// returning). The result is ambiguous whenever some assignment has several
/// accepting paths — `EVAL-nOBDD ∈ RelationNL`.
pub fn nobdd_to_nfa(d: &NObdd) -> Nfa {
    let n = d.num_vars();
    let mut eps = EpsNfa::new(Alphabet::binary(), 0);
    let mut ids: HashMap<(usize, usize), usize> = HashMap::new();
    let mut queue: Vec<(usize, usize)> = Vec::new();
    let intern = |key: (usize, usize),
                  eps: &mut EpsNfa,
                  queue: &mut Vec<(usize, usize)>,
                  ids: &mut HashMap<(usize, usize), usize>| {
        *ids.entry(key).or_insert_with(|| {
            queue.push(key);
            eps.add_state()
        })
    };
    let root = intern((d.root, 0), &mut eps, &mut queue, &mut ids);
    eps.set_initial(root);
    let mut head = 0;
    while head < queue.len() {
        let (node, level) = queue[head];
        let id = ids[&(node, level)];
        head += 1;
        match &d.nodes[node] {
            NObddNode::Terminal(false) => {}
            NObddNode::Terminal(true) => {
                if level == n {
                    eps.set_accepting(id);
                } else {
                    // Remaining variables are free.
                    let next = intern((node, level + 1), &mut eps, &mut queue, &mut ids);
                    eps.add_transition(id, Some(0), next);
                    eps.add_transition(id, Some(1), next);
                }
            }
            NObddNode::Decision { var, lo, hi } => {
                debug_assert!((*var as usize) >= level || level == n);
                if level == n {
                    continue;
                }
                if *var as usize == level {
                    let lo_id = intern((*lo, level + 1), &mut eps, &mut queue, &mut ids);
                    eps.add_transition(id, Some(0), lo_id);
                    let hi_id = intern((*hi, level + 1), &mut eps, &mut queue, &mut ids);
                    eps.add_transition(id, Some(1), hi_id);
                } else {
                    // Skipped variable.
                    let next = intern((node, level + 1), &mut eps, &mut queue, &mut ids);
                    eps.add_transition(id, Some(0), next);
                    eps.add_transition(id, Some(1), next);
                }
            }
            NObddNode::Union(children) => {
                for &c in children {
                    let cid = intern((c, level), &mut eps, &mut queue, &mut ids);
                    eps.add_transition(id, None, cid);
                }
            }
        }
    }
    eps.remove_epsilon()
}

/// Packages an nOBDD as a compiled [`MemNfa`](lsc_core::MemNfa) instance at
/// witness length `num_vars`: the prepared entry point for repeated
/// `EVAL-nOBDD` queries (Corollary 10's FPRAS + PLVUG toolbox). The instance
/// caches the unrolled DAG and the ambiguity classification, so counting,
/// enumerating, and sampling the model set reuse one reduction instead of
/// re-running `nobdd_to_nfa` per call.
pub fn nobdd_to_mem_nfa(d: &NObdd) -> lsc_core::MemNfa {
    lsc_core::MemNfa::new(nobdd_to_nfa(d), d.num_vars())
}

/// An nOBDD is directly queryable: the generic engine entry points serve
/// model counts (Corollary 10's FPRAS where the diagram is ambiguous),
/// streaming model enumeration (pageable via resume tokens), and uniform
/// model samples, decoded to assignment bitmasks (bit `i` = value of `x_i`).
/// The reduction runs once per engine session, keyed by the diagram's
/// structure — structurally equal diagrams share an instance.
impl Queryable for NObdd {
    /// A satisfying assignment as a bitmask: bit `i` is the value of `x_i`.
    type Output = u128;

    fn to_instance(&self) -> (Arc<Nfa>, usize) {
        (Arc::new(nobdd_to_nfa(self)), self.num_vars())
    }

    fn decode(&self, word: &[Symbol]) -> u128 {
        word.iter()
            .enumerate()
            .fold(0u128, |acc, (i, &b)| acc | ((b as u128) << i))
    }

    fn domain_fingerprint(&self) -> u64 {
        domain_fingerprint(
            "eval-nobdd",
            [self.num_vars as u64, self.root as u64]
                .into_iter()
                .chain(self.nodes.iter().flat_map(|node| {
                    match node {
                        NObddNode::Terminal(b) => vec![1, u64::from(*b)],
                        NObddNode::Decision { var, lo, hi } => {
                            vec![2, u64::from(*var), *lo as u64, *hi as u64]
                        }
                        NObddNode::Union(children) => std::iter::once(3)
                            .chain(std::iter::once(children.len() as u64))
                            .chain(children.iter().map(|&c| c as u64))
                            .collect(),
                    }
                })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::ops::is_unambiguous;
    use lsc_core::fpras::FprasParams;
    use lsc_core::MemNfa;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An nOBDD for "x0 ∨ x1 ∨ x2" as a union of three single-variable
    /// branches — deliberately overlapping, hence ambiguous.
    fn union_of_vars() -> NObdd {
        let nodes = vec![
            NObddNode::Terminal(false), // 0
            NObddNode::Terminal(true),  // 1
            NObddNode::Decision {
                var: 0,
                lo: 0,
                hi: 1,
            }, // 2: x0
            NObddNode::Decision {
                var: 1,
                lo: 0,
                hi: 1,
            }, // 3: x1
            NObddNode::Decision {
                var: 2,
                lo: 0,
                hi: 1,
            }, // 4: x2
            NObddNode::Union(vec![2, 3, 4]), // 5: root
        ];
        NObdd::new(3, nodes, 5)
    }

    #[test]
    fn eval_and_brute_force() {
        let d = union_of_vars();
        assert!(d.eval(0b001));
        assert!(d.eval(0b110));
        assert!(!d.eval(0b000));
        assert_eq!(d.count_models_brute_force(), 7);
    }

    #[test]
    fn nfa_language_matches_eval() {
        let d = union_of_vars();
        let nfa = nobdd_to_nfa(&d);
        let inst = MemNfa::new(nfa.clone(), 3);
        assert_eq!(inst.count_oracle().to_u64(), Some(7));
        assert!(
            !is_unambiguous(&nfa),
            "overlapping union branches make the reduction ambiguous"
        );
        for w in inst.enumerate() {
            let a = w
                .iter()
                .enumerate()
                .fold(0u128, |acc, (i, &b)| acc | ((b as u128) << i));
            assert!(d.eval(a));
        }
    }

    #[test]
    fn fpras_and_plvug_on_nobdd() {
        let d = union_of_vars();
        let inst = MemNfa::new(nobdd_to_nfa(&d), 3);
        let mut rng = StdRng::seed_from_u64(99);
        let est = inst.count_approx(FprasParams::quick(), &mut rng).unwrap();
        assert_eq!(est.to_f64(), 7.0, "tiny instance is exactly handled");
        let gen = inst
            .las_vegas_generator(FprasParams::quick(), &mut rng)
            .unwrap();
        let w = gen.generate(&mut rng).witness().unwrap();
        assert!(inst.check_witness(&w));
    }

    #[test]
    fn prepared_nobdd_instance_reuses_one_reduction() {
        use std::sync::Arc;
        let d = union_of_vars();
        let inst = nobdd_to_mem_nfa(&d);
        let dag = Arc::as_ptr(inst.prepared().dag());
        assert_eq!(inst.enumerate().count(), 7);
        let mut rng = StdRng::seed_from_u64(12);
        let routed = inst
            .count_routed(&lsc_core::engine::RouterConfig::default(), &mut rng)
            .unwrap();
        assert_eq!(routed.estimate.to_f64(), 7.0);
        assert_eq!(
            Arc::as_ptr(inst.prepared().dag()),
            dag,
            "COUNT and ENUM share the prepared reduction"
        );
    }

    #[test]
    fn typed_engine_queries_return_models() {
        use lsc_core::ShardedEngine;
        let d = union_of_vars();
        let engine = ShardedEngine::with_defaults();
        let mut models: Vec<u128> = engine.enumerate(&d).collect();
        models.sort_unstable();
        let expected: Vec<u128> = (0..8).filter(|&a| d.eval(a)).collect();
        assert_eq!(models, expected);
        assert_eq!(engine.count(&d).unwrap().estimate.to_f64(), 7.0);
        for a in engine.sample(&d, 9).unwrap().take(5) {
            assert!(d.eval(a));
        }
        // Paging across a resume token stitches bit-identically.
        let full: Vec<u128> = engine.enumerate(&d).collect();
        let mut cursor = engine.enumerate(&d);
        let first: Vec<u128> = cursor.by_ref().take(3).collect();
        let rest: Vec<u128> = engine.resume(&d, &cursor.token()).unwrap().collect();
        assert_eq!(first.into_iter().chain(rest).collect::<Vec<_>>(), full);
        assert_eq!(engine.stats().aggregate.misses, 1);
        assert_eq!(engine.stats().aggregate.domains, 1, "reduction ran once");
    }

    #[test]
    fn ordering_violation_panics() {
        let nodes = vec![
            NObddNode::Terminal(false),
            NObddNode::Terminal(true),
            NObddNode::Decision {
                var: 1,
                lo: 0,
                hi: 1,
            },
            NObddNode::Decision {
                var: 1,
                lo: 0,
                hi: 2,
            }, // 1 → 1 not increasing
        ];
        let result = std::panic::catch_unwind(|| NObdd::new(2, nodes, 3));
        assert!(result.is_err());
    }

    #[test]
    fn skipped_variables_counted() {
        // Root tests x1 only, over 3 variables: x0 and x2 free → 4 models.
        let nodes = vec![
            NObddNode::Terminal(false),
            NObddNode::Terminal(true),
            NObddNode::Decision {
                var: 1,
                lo: 0,
                hi: 1,
            },
        ];
        let d = NObdd::new(3, nodes, 2);
        assert_eq!(d.count_models_brute_force(), 4);
        let inst = MemNfa::new(nobdd_to_nfa(&d), 3);
        assert_eq!(inst.count_oracle().to_u64(), Some(4));
    }
}
