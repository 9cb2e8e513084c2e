//! Counting witnesses: `COUNT(R)` for the two complexity classes.
//!
//! * [`exact`] — polynomial-time exact counting for MEM-UFA (Theorem 5 /
//!   §5.3.2) plus the exponential determinization oracle used to validate the
//!   FPRAS on small instances.
//! * [`naive`] — the unbiased but exponential-variance Monte-Carlo estimator
//!   the paper rules out in §6.1 (baseline for experiment E8).
//! * [`stratified`] — MEM-UFA counts and exact uniform samples refined by
//!   occurrences of a marked symbol (the §4.2 path-histogram refinement).
//!
//! The FPRAS itself (Theorem 22) lives in [`crate::fpras`], and the
//! ambiguity-aware choice between the exact routes and the FPRAS in
//! [`crate::engine::count_routed`].

pub mod exact;
pub mod naive;
pub mod stratified;
