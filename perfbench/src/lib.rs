//! The repository benchmark: drives the release `nfa_tool serve` /
//! `nfa_tool route` binaries as a client would, checks every answer, and
//! reports end-to-end metrics per workload, or per-layer metrics from a
//! traced run. See `perfbench/README.md`.

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod gen;
pub mod load;
pub mod metrics;
pub mod oracle;
pub mod procs;
pub mod run;
pub mod stats;
pub mod trace;
