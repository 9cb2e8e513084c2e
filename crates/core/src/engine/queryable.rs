//! The [`Queryable`] trait: one typed serving surface for every domain.
//!
//! The paper's applications (§3–§4) all work the same way — a
//! witness-preserving reduction onto the complete problem MEM-NFA
//! (Proposition 12), after which `ENUM` / `COUNT` / `GEN` answers transport
//! back untouched (Proposition 11). The pre-redesign API told that story only
//! halfway: each application crate exposed its own `to_mem_nfa`-style entry,
//! and callers hand-decoded raw [`Word`] witnesses back into assignments,
//! paths, or mappings. `Queryable` completes the round trip:
//!
//! * [`Queryable::to_instance`] is the reduction (an automaton and a witness
//!   length, behind an `Arc` so the engine never deep-copies it);
//! * [`Queryable::decode`] is the inverse witness map, turning each raw word
//!   into the domain's own value type ([`Queryable::Output`]);
//! * [`Queryable::domain_fingerprint`] names the instance stably, so the
//!   engine can skip re-running the reduction for a domain object it has
//!   already prepared (the session half of the redesign — see
//!   [`ShardedEngine::prepare`](crate::engine::ShardedEngine::prepare)).
//!
//! Every application type implements it — `DnfFormula` decodes to assignment
//! bitmasks, `RpqInstance` to graph paths, `SpannerInstance` to span
//! mappings, `RegularGrammar` and the raw identity instances to the words
//! themselves — and the generic engine entry points
//! ([`count`](crate::engine::ShardedEngine::count),
//! [`enumerate`](crate::engine::ShardedEngine::enumerate),
//! [`sample`](crate::engine::ShardedEngine::sample)) serve all of them from one
//! shared prepared-instance cache.

use std::sync::Arc;

use lsc_automata::{Nfa, Symbol, Word};

use crate::engine::PreparedInstance;
use crate::MemNfa;

/// A domain problem reducible to MEM-NFA with a typed witness decoding.
///
/// Implementations must keep the three methods consistent: `decode` must be
/// meaningful for every witness of the instance `to_instance` returns, and
/// `domain_fingerprint` must change whenever `to_instance` would (it may be —
/// and usually is — coarser than object identity: two equal formulas share a
/// fingerprint, which is exactly what lets the engine dedupe them).
///
/// Implementing the trait is all it takes to serve a new domain through the
/// engine:
///
/// ```
/// use std::sync::Arc;
/// use lsc_automata::regex::Regex;
/// use lsc_automata::{Alphabet, Nfa, Word};
/// use lsc_core::engine::{domain_fingerprint, Queryable, ShardedEngine};
///
/// /// Length-`n` bit strings ending in `11`, decoded to their popcount.
/// struct EndsIn11 {
///     length: usize,
/// }
///
/// impl Queryable for EndsIn11 {
///     type Output = u32;
///
///     fn to_instance(&self) -> (Arc<Nfa>, usize) {
///         let ab = Alphabet::binary();
///         let nfa = Regex::parse("(0|1)*11", &ab).unwrap().compile();
///         (Arc::new(nfa), self.length)
///     }
///
///     fn decode(&self, word: &[lsc_automata::Symbol]) -> u32 {
///         word.iter().filter(|&&s| s == 1).count() as u32
///     }
///
///     fn domain_fingerprint(&self) -> u64 {
///         domain_fingerprint("ends-in-11", [self.length as u64])
///     }
/// }
///
/// let engine = ShardedEngine::with_defaults();
/// let domain = EndsIn11 { length: 6 };
/// let popcounts: Vec<u32> = engine.enumerate(&domain).collect();
/// assert!(popcounts.iter().all(|&ones| ones >= 2));
/// // The reduction ran once; repeat queries reuse the session.
/// let again: Vec<u32> = engine.enumerate(&domain).collect();
/// assert_eq!(popcounts, again);
/// assert_eq!(engine.stats().aggregate.domains, 1);
/// ```
pub trait Queryable {
    /// The domain's witness type: what a raw word decodes to.
    type Output;

    /// The witness-preserving reduction: an automaton `N` and length `n`
    /// such that the domain's witnesses are in bijection with `L_n(N)`.
    /// May be expensive (it *is* the reduction); the engine memoizes it per
    /// [`Queryable::domain_fingerprint`], so it runs once per distinct
    /// domain object, not once per query.
    fn to_instance(&self) -> (Arc<Nfa>, usize);

    /// Decodes one witness word into the domain value it encodes. Takes a
    /// slice so streaming callers (cursor pages) can decode straight off a
    /// borrowed buffer without materializing a `Word` per witness.
    fn decode(&self, word: &[Symbol]) -> Self::Output;

    /// A stable 64-bit name for this instance: equal domain objects must
    /// agree, distinct ones should (with overwhelming probability) differ —
    /// use [`domain_fingerprint`] with a per-type tag to salt the hash so
    /// different domains never collide by construction. Must be cheap: the
    /// engine calls it on every generic entry point.
    fn domain_fingerprint(&self) -> u64;
}

/// FNV-1a over a type tag and a stream of 64-bit words — the helper every
/// [`Queryable::domain_fingerprint`] implementation is built from. The tag
/// keeps domains apart (a DNF formula and an nOBDD hashing the same payload
/// still get distinct fingerprints); the parts are whatever ordered data
/// determines the reduction. Stable across runs and platforms.
pub fn domain_fingerprint(tag: &str, parts: impl IntoIterator<Item = u64>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: &mut u64, v: u64) {
        for byte in v.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    for byte in tag.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(PRIME);
    }
    mix(&mut h, u64::MAX); // domain separator between tag and payload
    for part in parts {
        mix(&mut h, part);
    }
    h
}

/// The identity instance: a raw `(automaton, length)` pair whose witnesses
/// *are* the words. This is the `Queryable` the paper's complete problem
/// corresponds to; everything else reduces to it.
impl Queryable for (Arc<Nfa>, usize) {
    type Output = Word;

    fn to_instance(&self) -> (Arc<Nfa>, usize) {
        (self.0.clone(), self.1)
    }

    fn decode(&self, word: &[Symbol]) -> Word {
        word.to_vec()
    }

    fn domain_fingerprint(&self) -> u64 {
        domain_fingerprint(
            "mem-nfa",
            [PreparedInstance::instance_fingerprint(&self.0, self.1)],
        )
    }
}

/// A [`MemNfa`] façade is the same identity instance, already wrapped: the
/// engine serves it without re-fingerprinting the automaton (the prepared
/// instance inside already knows its key).
impl Queryable for MemNfa {
    type Output = Word;

    fn to_instance(&self) -> (Arc<Nfa>, usize) {
        (self.prepared().nfa_arc().clone(), self.length())
    }

    fn decode(&self, word: &[Symbol]) -> Word {
        word.to_vec()
    }

    fn domain_fingerprint(&self) -> u64 {
        domain_fingerprint("mem-nfa", [self.prepared().fingerprint()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsc_automata::families::blowup_nfa;

    #[test]
    fn raw_pair_and_memnfa_agree_on_fingerprints() {
        let nfa = blowup_nfa(3);
        let raw = (Arc::new(nfa.clone()), 8usize);
        let façade = MemNfa::new(nfa, 8);
        assert_eq!(raw.domain_fingerprint(), façade.domain_fingerprint());
        let (a, n) = raw.to_instance();
        assert_eq!(n, 8);
        assert_eq!(a.fingerprint(), façade.nfa().fingerprint());
    }

    #[test]
    fn tags_separate_domains() {
        assert_ne!(
            domain_fingerprint("dnf", [1, 2, 3]),
            domain_fingerprint("nobdd", [1, 2, 3])
        );
        assert_ne!(
            domain_fingerprint("dnf", [1, 2]),
            domain_fingerprint("dnf", [1, 2, 3])
        );
        assert_eq!(
            domain_fingerprint("dnf", [1, 2, 3]),
            domain_fingerprint("dnf", [1, 2, 3])
        );
    }
}
