//! The #NFA FPRAS (paper §6, Theorem 22) and its sampling machinery.
//!
//! Given an NFA `N` with `m` states and a length `n` in unary, the algorithm
//! estimates `|L_n(N)|` within relative error `δ` with probability ≥ 3/4, in
//! time polynomial in `n`, `m`, `1/δ` — resolving the open problem that #NFA
//! (SpanL-complete) admits an FPRAS.
//!
//! Structure, following the paper:
//!
//! * [`FprasParams`] — the tunable sample budget `k`, retry budget, and
//!   rejection constant (the proof's own values are astronomically conservative;
//!   see [`FprasParams::theoretical_k`]).
//! * [`FprasState`] — the result of Algorithm 5: per-vertex sketches
//!   `(R(s), X(s))` over the unrolled DAG, where `R(s)` estimates `|U(s)|` (the
//!   set of strings labeling start→`s` paths) and `X(s)` is a multiset of
//!   near-uniform samples of `U(s)`. Small vertices are handled *exactly*
//!   (the base case of §6.4).
//! * `sampler` (internal) — Algorithm 4: the backward rejection sampler `Sample(T, w, φ)`
//!   that draws a uniform element of `⋃_{s∈T} U(s)` conditioned on not failing
//!   (Proposition 18).
//!
//! The same state powers both counting (`R` at the virtual final vertex) and
//! the Las Vegas uniform generator of Corollary 23 ([`crate::sample::nfa_plvug`]).

mod algorithm;
mod params;
pub(crate) mod sampler;
mod sketch;

pub use algorithm::{
    approx_count, run_fpras, run_fpras_on, FprasError, FprasState, SharedWitnessSampler,
    WitnessSampler,
};
pub use params::FprasParams;
pub(crate) use sketch::reach_all;
pub use sketch::{
    estimate_union_packed, estimate_union_quadratic, estimate_union_with_mask, reach_of, MaskArena,
    SampleEntry, VertexData,
};
