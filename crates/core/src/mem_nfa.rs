//! The complete problems MEM-NFA and MEM-UFA as a user-facing instance type.
//!
//! Proposition 12: MEM-NFA is complete for `RelationNL` and MEM-UFA for
//! `RelationUL` under witness-preserving reductions — polynomial-time maps `f`
//! with `W_R(x) = W_S(f(x))`. Such reductions transport *all* the good
//! properties untouched (Proposition 11): enumeration delay, counting
//! algorithms, and generators apply verbatim to the image instance. So every
//! application crate in this repository reduces its problem to a [`MemNfa`]
//! and calls the methods below; there is deliberately no other entry point.
//!
//! A `MemNfa` is a thin wrapper over one private
//! [`PreparedInstance`](crate::engine::PreparedInstance): the unrolled DAG,
//! the ambiguity classification, and the exact tables are compiled on first
//! use and shared by every later call on the same value — so holding a
//! `MemNfa` across queries is the single-instance version of what
//! [`crate::engine::ShardedEngine`] does across many instances.

use lsc_arith::{BigFloat, BigNat};
use lsc_automata::Nfa;
use rand::Rng;

use crate::count::exact::{self, NotUnambiguousError};
use crate::engine::{PreparedInstance, RoutedCount, RouterConfig};
use crate::enumerate::{ConstantDelayEnumerator, PolyDelayEnumerator};
use crate::fpras::{FprasError, FprasParams, FprasState};
use crate::sample::{Plvug, TableSampler};

/// An instance `(N, 0^n)` of MEM-NFA: witnesses are the words of `L_n(N)`.
///
/// If the automaton is unambiguous this is a MEM-UFA instance and the
/// Theorem 5 toolbox (exact counting, constant delay, exact sampling) applies;
/// otherwise the Theorem 2 toolbox (FPRAS, polynomial delay, PLVUG) does.
/// [`MemNfa::is_unambiguous`] decides which, and is cached — as are the
/// unrolled DAG and the exact count tables, so repeated calls on one instance
/// pay the preprocessing once.
///
/// ```
/// use lsc_automata::{families, Alphabet};
/// use lsc_core::MemNfa;
///
/// // (0|1)*1(0|1)^4 at length 9 — unambiguous, so everything is exact.
/// let inst = MemNfa::new(families::blowup_nfa(5), 9);
/// assert!(inst.is_unambiguous());
/// let count = inst.count_exact().unwrap();
/// assert_eq!(count.to_u64(), Some(256)); // 2^8 words
/// assert_eq!(inst.enumerate_constant_delay().unwrap().count(), 256);
/// ```
pub struct MemNfa {
    prepared: PreparedInstance,
}

impl MemNfa {
    /// Wraps an instance (nothing is compiled until the first query).
    pub fn new(nfa: Nfa, length: usize) -> Self {
        MemNfa {
            prepared: PreparedInstance::new(nfa, length),
        }
    }

    /// The underlying prepared instance, for engine-style access (shared
    /// tables, cached routing, seeded sampling).
    pub fn prepared(&self) -> &PreparedInstance {
        &self.prepared
    }

    /// The automaton `N`.
    pub fn nfa(&self) -> &Nfa {
        self.prepared.nfa()
    }

    /// The witness length `n` (the paper's unary `0^n`).
    pub fn length(&self) -> usize {
        self.prepared.length()
    }

    /// Is this a MEM-UFA instance? Cached after the first call.
    pub fn is_unambiguous(&self) -> bool {
        self.prepared.is_unambiguous()
    }

    /// The membership test `(x, y) ∈ R` of the p-relation (§2.1): polynomial
    /// time, as required.
    pub fn check_witness(&self, word: &[u32]) -> bool {
        self.prepared.check_witness(word)
    }

    /// Does any witness exist? (The existence problem used by \[Sch09\]'s
    /// flashlight argument; polynomial via the pruned unrolling, which is
    /// cached.)
    pub fn exists_witness(&self) -> bool {
        self.prepared.exists_witness()
    }

    // ---- COUNT ----

    /// Exact `|W|` in polynomial time — Theorem 5, MEM-UFA only. Served from
    /// the cached completion table after the first call.
    ///
    /// # Errors
    /// [`NotUnambiguousError`] on ambiguous instances.
    pub fn count_exact(&self) -> Result<BigNat, NotUnambiguousError> {
        self.prepared.count_exact()
    }

    /// Ground-truth `|W|` by determinization — exponential worst case, test
    /// oracle only.
    pub fn count_oracle(&self) -> BigNat {
        exact::count_nfa_via_determinization(self.nfa(), self.length())
    }

    /// FPRAS estimate of `|W|` — Theorem 2 / Theorem 22. The caller owns the
    /// randomness; only the unrolled DAG is shared with other calls.
    ///
    /// # Errors
    /// Propagates the (vanishing-probability) FPRAS failure events.
    pub fn count_approx<R: Rng + ?Sized>(
        &self,
        params: FprasParams,
        rng: &mut R,
    ) -> Result<BigFloat, FprasError> {
        self.prepared.run_fpras(params, rng).map(|s| s.estimate())
    }

    /// Runs Algorithm 5 and keeps the full sketch state (count + sample from
    /// one preprocessing pass).
    ///
    /// # Errors
    /// Propagates the FPRAS failure events.
    pub fn fpras_state<R: Rng + ?Sized>(
        &self,
        params: FprasParams,
        rng: &mut R,
    ) -> Result<FprasState, FprasError> {
        self.prepared.run_fpras(params, rng)
    }

    /// Routed `|W|`: exact where exactness is affordable, FPRAS otherwise
    /// (see [`crate::engine`]). The report says which route fired. The
    /// ambiguity probe and determinization are cached on this instance, so
    /// repeated routed counts re-decide nothing.
    ///
    /// # Errors
    /// Propagates the FPRAS failure events when the FPRAS route fires.
    pub fn count_routed<R: Rng + ?Sized>(
        &self,
        config: &RouterConfig,
        rng: &mut R,
    ) -> Result<RoutedCount, FprasError> {
        self.prepared.count_routed(config, rng)
    }

    // ---- ENUM ----

    /// Constant-delay enumeration — Theorem 5, MEM-UFA only. Shares the
    /// cached DAG.
    ///
    /// # Errors
    /// [`NotUnambiguousError`] on ambiguous instances.
    pub fn enumerate_constant_delay(&self) -> Result<ConstantDelayEnumerator, NotUnambiguousError> {
        self.prepared.enumerate_constant_delay()
    }

    /// Polynomial-delay enumeration — Theorem 2, any instance. Shares the
    /// cached DAG.
    pub fn enumerate(&self) -> PolyDelayEnumerator {
        self.prepared.enumerate()
    }

    // ---- GEN ----

    /// Exact uniform sampler — Theorem 5, MEM-UFA only. Returns a reusable
    /// sampler sharing the cached count table (one table, many draws).
    ///
    /// # Errors
    /// [`NotUnambiguousError`] on ambiguous instances.
    pub fn uniform_sampler(&self) -> Result<TableSampler, NotUnambiguousError> {
        self.prepared.uniform_sampler()
    }

    /// Las Vegas uniform generator — Theorem 2 / Corollary 23, any instance.
    ///
    /// # Errors
    /// Propagates the FPRAS failure events from preprocessing.
    pub fn las_vegas_generator<R: Rng + ?Sized>(
        &self,
        params: FprasParams,
        rng: &mut R,
    ) -> Result<Plvug, FprasError> {
        self.prepared.run_fpras(params, rng).map(Plvug::from_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::families::blowup_nfa;
    use lsc_automata::regex::Regex;
    use lsc_automata::{Alphabet, Word};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ufa_toolbox_end_to_end() {
        let inst = MemNfa::new(blowup_nfa(3), 8);
        assert!(inst.is_unambiguous());
        assert!(inst.exists_witness());
        let count = inst.count_exact().unwrap();
        assert_eq!(count, inst.count_oracle());
        let words: Vec<Word> = inst.enumerate_constant_delay().unwrap().collect();
        assert_eq!(words.len() as u64, count.to_u64().unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let sampler = inst.uniform_sampler().unwrap();
        let w = sampler.sample(&mut rng).unwrap();
        assert!(inst.check_witness(&w));
    }

    #[test]
    fn nfa_toolbox_end_to_end() {
        let ab = Alphabet::binary();
        let nfa = Regex::parse("(0|1)*11(0|1)*", &ab).unwrap().compile();
        let inst = MemNfa::new(nfa, 7);
        assert!(!inst.is_unambiguous());
        assert!(inst.count_exact().is_err());
        assert!(inst.enumerate_constant_delay().is_err());
        assert!(inst.uniform_sampler().is_err());
        let truth = inst.count_oracle().to_f64();
        let mut rng = StdRng::seed_from_u64(2);
        let est = inst.count_approx(FprasParams::quick(), &mut rng).unwrap();
        assert!((est.to_f64() - truth).abs() / truth < 0.2);
        let words: Vec<Word> = inst.enumerate().collect();
        assert_eq!(words.len() as u64, truth as u64);
        let gen = inst
            .las_vegas_generator(FprasParams::quick(), &mut rng)
            .unwrap();
        let w = gen.generate(&mut rng).witness().expect("witness");
        assert!(inst.check_witness(&w));
    }

    #[test]
    fn witness_checks() {
        let inst = MemNfa::new(blowup_nfa(2), 4);
        assert!(inst.check_witness(&[0, 0, 1, 0]));
        assert!(!inst.check_witness(&[0, 0, 1])); // wrong length
        assert!(!inst.check_witness(&[0, 0, 0, 0])); // not in language
    }

    #[test]
    fn empty_instance() {
        let ab = Alphabet::binary();
        let nfa = Regex::parse("000", &ab).unwrap().compile();
        let inst = MemNfa::new(nfa, 2);
        assert!(!inst.exists_witness());
        assert!(inst.count_exact().unwrap().is_zero());
        assert_eq!(inst.enumerate().count(), 0);
    }

    #[test]
    fn repeated_calls_share_the_artifact() {
        use std::sync::Arc;
        let inst = MemNfa::new(blowup_nfa(4), 10);
        let dag = Arc::as_ptr(inst.prepared().dag());
        let _ = inst.count_exact().unwrap();
        let _ = inst.enumerate_constant_delay().unwrap().count();
        assert_eq!(
            Arc::as_ptr(inst.prepared().dag()),
            dag,
            "one unrolling serves every query"
        );
    }
}
