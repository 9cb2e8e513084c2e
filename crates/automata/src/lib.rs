//! Finite automata substrate for the logspace-classes reproduction.
//!
//! The paper's complete problems — `MEM-NFA` for `RelationNL` and `MEM-UFA` for
//! `RelationUL` — are both phrased over nondeterministic finite automata, and every
//! algorithm in the paper (the #NFA FPRAS of §6, constant-delay enumeration via
//! Lemma 15, self-reducibility of §5.2) runs over either an NFA or its *unrolled*
//! layered DAG. This crate provides exactly those objects:
//!
//! * [`Nfa`] / [`Dfa`] / [`EpsNfa`] — automata with a shared [`Alphabet`];
//! * classic operations: ε-removal, trimming, product, union, reverse, subset
//!   construction ([`ops`]);
//! * the unambiguity check used to certify UFAs ([`ops::is_unambiguous`]);
//! * a regular-expression front end ([`regex`]) compiling to ε-free NFAs;
//! * the unrolled DAG `N_unroll` of §6.2 / Lemma 15 ([`unroll::UnrolledDag`]);
//! * workload families used throughout the test and benchmark suites
//!   ([`families`]).

#![forbid(unsafe_code)]

mod alphabet;
mod dfa;
mod eps;
pub mod families;
pub mod io;
mod nfa;
pub mod ops;
pub mod regex;
mod stateset;
pub mod unroll;
mod word;

pub use alphabet::Alphabet;
pub use dfa::Dfa;
pub use eps::EpsNfa;
pub use nfa::{Nfa, NfaBuilder, StateId};
pub use stateset::{bit_indices, StateSet};
pub use word::{format_word, parse_word, Symbol, Word};
