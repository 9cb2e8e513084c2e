//! Summaries of timing samples under the reporting rule: a median, and a
//! tail at the highest percentile (at most the 99th) that still has at
//! least ten samples beyond it, always reported with its sample count.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A percentile as reported: its value, which percentile it really is,
/// and how many samples it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile actually reported (e.g. 99.0, or lower when the
    /// sample is too small for p99).
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (any order). `None` when empty.
pub fn median(samples: &[f64]) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Quantile {
        value: nearest_rank(&sorted, 50.0),
        percentile: 50.0,
        samples: sorted.len(),
    })
}

/// The tail under the rule: p99 when at least ten samples lie beyond it,
/// otherwise the highest nearest-rank percentile that leaves ten beyond it.
/// With ten samples or fewer nothing can leave ten beyond, and the maximum
/// is reported as p100. `None` when empty.
pub fn tail(samples: &[f64]) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return Some(Quantile {
            value: sorted[n - 1],
            percentile: 100.0,
            samples: n,
        });
    }
    // Nearest rank of p99 is ceil(0.99 n); it leaves n - rank beyond it.
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - TAIL_BEYOND);
    Some(Quantile {
        value: sorted[rank - 1],
        percentile: if rank == p99_rank {
            99.0
        } else {
            100.0 * rank as f64 / n as f64
        },
        samples: n,
    })
}
