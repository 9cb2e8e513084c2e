//! The replayable generator: a seed becomes an instance universe and an op
//! log, and the program only ever sees the request lines built from them.
//!
//! Instances come from one injective selection function, in the style of
//! GenCheck's base enumerations: an index `i` is split into a block
//! (`i / 10`, which sets the instance's size), a route family (`i mod 10`:
//! five unambiguous, four determinizable, one FPRAS) and a within-family
//! sub-index that picks the literal and the form (regex or `nfa_text`).
//! Distinct indices give distinct `(automaton, length)` pairs, so distinct
//! engine fingerprints (pinned by the tests).
//!
//! Popularity is Zipf over *ranks*, and a seeded permutation that keeps
//! each rank in its block and family maps ranks to indices: every seed puts
//! instances of the same family and size at the same popularity rank and
//! varies only which concrete instance sits there. Ranks and verbs are
//! drawn in stratified batches, which keeps the cost mix of a run close to
//! its expectation: each batch holds every rank the whole number of times
//! its Zipf share of the batch allows, fills the remaining slots by
//! systematic sampling over the fractional parts (so every rank, however
//! rare, is drawn at exactly its Zipf rate on average), and holds a fixed
//! multiset of verbs; ranks and verbs are then shuffled.

use lsc_automata::regex::Regex;
use lsc_automata::{io as nfa_io, Alphabet, Nfa};

/// SplitMix64: the generator's only randomness.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream keyed by `seed` and a `salt` naming its purpose.
    pub fn new(seed: u64, salt: u64) -> SplitMix64 {
        let mut rng = SplitMix64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The count route an instance is built to take.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Unambiguous: exact `#L` dynamic program, constant-delay enumeration.
    Unambiguous,
    /// Ambiguous with a small subset construction: exact DFA count.
    Determinized,
    /// Ambiguous past the determinization cap: the FPRAS.
    Fpras,
}

/// How the `prepare` names the automaton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// `"regex"` over the server's default alphabet `01`.
    Regex,
    /// `"nfa_text"`: the compiled automaton in the text format.
    NfaText,
}

/// One instance of a universe.
#[derive(Clone, Debug)]
pub struct InstanceSpec {
    /// Its index in the universe (the selection function's argument).
    pub index: usize,
    /// The route family.
    pub family: Family,
    /// The wire form.
    pub form: Form,
    /// The regex (also the source of the `nfa_text` form).
    pub pattern: String,
    /// The witness length.
    pub length: usize,
}

/// Parameter ranges of one workload's universe.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Number of instances.
    pub size: usize,
    /// Whether every tenth index is an FPRAS instance (otherwise it is
    /// unambiguous).
    pub fpras: bool,
    /// Whether half the instances use the `nfa_text` form.
    pub nfa_text: bool,
    /// Unambiguous family: wildcard-suffix width range (drives automaton
    /// and `nfa_text` size).
    pub u_wild: (usize, usize),
    /// Unambiguous family: free positions before the suffix.
    pub u_free: (usize, usize),
    /// Determinized family: length range.
    pub d_len: (usize, usize),
    /// FPRAS family: length range.
    pub f_len: (usize, usize),
}

/// The binary literal with index `a` in the enumeration `0, 1, 00, 01, …`
/// restricted to lengths `min_len..`.
fn literal(a: usize, min_len: usize) -> String {
    let mut len = min_len;
    let mut a = a;
    while a >= 1 << len {
        a -= 1 << len;
        len += 1;
    }
    (0..len)
        .rev()
        .map(|bit| if a >> bit & 1 == 1 { '1' } else { '0' })
        .collect()
}

/// `lo..=hi` scaled by `block` out of `blocks` (monotone, so a block's
/// instances cost about the same under every seed).
fn scale(block: usize, blocks: usize, (lo, hi): (usize, usize)) -> usize {
    if blocks <= 1 {
        lo
    } else {
        lo + (hi - lo) * block / (blocks - 1)
    }
}

impl Shape {
    /// The route family of index (and popularity rank) `i`.
    pub fn family_of(&self, i: usize) -> Family {
        match i % 10 {
            0..=4 => Family::Unambiguous,
            5..=8 => Family::Determinized,
            _ if self.fpras => Family::Fpras,
            _ => Family::Unambiguous,
        }
    }

    fn blocks(&self) -> usize {
        self.size.div_ceil(10)
    }

    /// The injective selection function: index → instance. Index `i` lies
    /// in block `i / 10`; the block sets the instance's size (and so its
    /// cost), the slot `i mod 10` its family, and the within-family
    /// sub-index its literal and form.
    pub fn spec(&self, i: usize) -> InstanceSpec {
        let family = self.family_of(i);
        let (block, slot) = (i / 10, i % 10);
        let blocks = self.blocks();
        // Within-family sub-index: distinct for distinct `i` of one family.
        let sub = match family {
            Family::Unambiguous if slot == 9 => block * 6 + 5,
            Family::Unambiguous => block * 6 + slot,
            Family::Determinized => block * 4 + slot - 5,
            Family::Fpras => block,
        };
        let form = if self.nfa_text && sub % 2 == 1 {
            Form::NfaText
        } else {
            Form::Regex
        };
        let (pattern, length) = match family {
            Family::Unambiguous => {
                // `.*` + literal + `.{w}`: the literal's position is forced
                // by the length, so every witness has one accepting run.
                // Within a block the six literals differ; across blocks
                // the width does.
                let lit = literal(sub % 14, 1);
                let w = scale(block, blocks, self.u_wild);
                let free = self.u_free.0 + sub % (self.u_free.1 - self.u_free.0 + 1);
                (format!(".*{lit}{}", ".".repeat(w)), free + lit.len() + w)
            }
            Family::Determinized => {
                // Contains-a-literal: ambiguous (two occurrences, two
                // runs), but its subset construction stays tiny.
                let lit = literal(sub % 120, 3);
                (format!(".*{lit}.*"), scale(block, blocks, self.d_len))
            }
            Family::Fpras => {
                // "Some symbol c is followed, k >= 12 symbols later, by
                // anything": the subset construction tracks 2^k position
                // sets, past the server's 4096-state cap.
                let c = block % 2;
                let k = 12 + block / 2 % 3;
                let length = self.f_len.0 + (block / 6) % (self.f_len.1 - self.f_len.0 + 1);
                (format!(".*{c}{}.*", ".".repeat(k)), length)
            }
        };
        InstanceSpec {
            index: i,
            family,
            form,
            pattern,
            length,
        }
    }

    /// Every instance of the universe, by index.
    pub fn universe(&self) -> Vec<InstanceSpec> {
        (0..self.size).map(|i| self.spec(i)).collect()
    }
}

/// The alphabet every generated instance uses.
pub fn alphabet() -> Alphabet {
    Alphabet::from_chars(&['0', '1'])
}

impl InstanceSpec {
    /// The compiled automaton, exactly as the server builds it from either
    /// form.
    pub fn nfa(&self) -> Nfa {
        Regex::parse(&self.pattern, &alphabet())
            .expect("generated regexes parse")
            .compile()
    }

    /// The `nfa_text` payload (the text format of the compiled regex).
    pub fn nfa_text(&self) -> String {
        nfa_io::to_text(&self.nfa())
    }

    /// The `prepare` request line.
    pub fn prepare_line(&self) -> String {
        match self.form {
            Form::Regex => format!(
                r#"{{"op":"prepare","regex":"{}","length":{}}}"#,
                escape(&self.pattern),
                self.length
            ),
            Form::NfaText => format!(
                r#"{{"op":"prepare","nfa_text":"{}","length":{}}}"#,
                escape(&self.nfa_text()),
                self.length
            ),
        }
    }
}

/// JSON string escaping for the characters generated payloads contain.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// A request verb of the op log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Routed `count`.
    Count,
    /// `count_exact` (generated only on unambiguous instances).
    CountExact,
    /// `enumerate` continuing the session's live cursor.
    Enumerate {
        /// Witnesses per page.
        page: usize,
    },
    /// `enumerate` resumed from the token of an earlier page of the same
    /// session (`back` pages before the newest one).
    Resume {
        /// Witnesses per page.
        page: usize,
        /// How many pages back the token is taken from.
        back: usize,
    },
    /// `sample`.
    Sample {
        /// Witnesses per request.
        count: usize,
        /// Draw seed.
        seed: u64,
    },
    /// `prepare` + `count` on the instance (a cold-churn operation); the
    /// extra verbs run on the same session before it is closed.
    Churn {
        /// Also enumerate one page of this size.
        enumerate: Option<usize>,
        /// Also draw this many samples (unambiguous instances only).
        sample: Option<usize>,
    },
}

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// The universe index the op targets.
    pub inst: usize,
    /// What to do.
    pub verb: Verb,
    /// Open loop: when the op is due, in ns from the start of the run.
    pub due_ns: u64,
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, Zipf over resident instances, direct connections.
    WarmZipf,
    /// Closed loop, one client, prepare + count over a universe larger than
    /// the cache.
    ColdChurn,
    /// Closed loop, two clients, long enumerations through the router.
    RoutedStream,
}

impl Workload {
    /// Parses the command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm-zipf" => Some(Workload::WarmZipf),
            "cold-churn" => Some(Workload::ColdChurn),
            "routed-stream" => Some(Workload::RoutedStream),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmZipf => "warm-zipf",
            Workload::ColdChurn => "cold-churn",
            Workload::RoutedStream => "routed-stream",
        }
    }

    /// The universe shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::WarmZipf => Shape {
                size: 32,
                fpras: true,
                nfa_text: true,
                u_wild: (4, 40),
                u_free: (14, 22),
                d_len: (16, 22),
                f_len: (16, 19),
            },
            Workload::ColdChurn => Shape {
                size: COLD_UNIVERSE,
                fpras: true,
                nfa_text: true,
                u_wild: (12, 300),
                u_free: (10, 20),
                d_len: (16, 26),
                f_len: (16, 19),
            },
            Workload::RoutedStream => Shape {
                size: 8,
                fpras: false,
                nfa_text: false,
                u_wild: (2, 8),
                u_free: (22, 26),
                d_len: (24, 28),
                f_len: (24, 28),
            },
        }
    }

    /// Zipf exponent over the universe's ranks.
    pub fn zipf_s(self) -> f64 {
        match self {
            Workload::WarmZipf => 1.0,
            Workload::ColdChurn => 0.9,
            Workload::RoutedStream => 0.6,
        }
    }

    /// Client connections (each one thread of the load generator).
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdChurn => 1,
            Workload::WarmZipf | Workload::RoutedStream => 2,
        }
    }
}

/// Universe size of cold-churn (about ten times what its cache holds).
pub const COLD_UNIVERSE: usize = 240;

/// Ops per stratified block.
const BLOCK: usize = 400;

/// Fixed-point unit of a rank's share of a block.
const SHARE_UNIT: u64 = 1 << 20;

/// A seeded, replayable op stream for one client.
pub struct OpStream {
    workload: Workload,
    shape: Shape,
    rank_to_index: Vec<usize>,
    /// Each rank's Zipf share of a block, in `SHARE_UNIT`s (they sum to
    /// `BLOCK * SHARE_UNIT` exactly).
    rank_share: Vec<u64>,
    verb_quota: Vec<u8>,
    rng: SplitMix64,
    block: Vec<(usize, u8)>,
    /// Open-loop arrival rate per client (ops/s), 0 for closed loops.
    rate: f64,
    clock_ns: f64,
}

/// Verb slots per block, in per-mille of the block (each workload's mix).
fn verb_mix(workload: Workload) -> &'static [(u8, usize)] {
    match workload {
        // count 60%, enumerate 25%, sample 10%, count_exact 5%.
        Workload::WarmZipf => &[(0, 600), (1, 250), (2, 100), (3, 50)],
        // prepare+count always; 25% add a page, 20% add samples.
        Workload::ColdChurn => &[(4, 550), (5, 250), (6, 200)],
        // live page 65%, resumed page 10%, count 20%, sample 5%.
        Workload::RoutedStream => &[(1, 650), (7, 100), (0, 200), (2, 50)],
    }
}

impl OpStream {
    /// The op stream of `client` under `seed`. `rate` is the open-loop
    /// per-client arrival rate (0 for closed loops).
    pub fn new(workload: Workload, seed: u64, client: usize, rate: f64) -> OpStream {
        let shape = workload.shape();
        let rank_to_index = rank_permutation(&shape, seed);
        let weights: Vec<f64> = (0..shape.size)
            .map(|r| 1.0 / ((r + 1) as f64).powf(workload.zipf_s()))
            .collect();
        let rank_share = quotas(&weights, BLOCK * SHARE_UNIT as usize)
            .into_iter()
            .map(|q| q as u64)
            .collect();
        let mix = verb_mix(workload);
        let verb_weights: Vec<f64> = mix.iter().map(|&(_, w)| w as f64).collect();
        let verb_counts = quotas(&verb_weights, BLOCK);
        let verb_quota = mix
            .iter()
            .zip(&verb_counts)
            .flat_map(|(&(v, _), &n)| std::iter::repeat_n(v, n))
            .collect();
        OpStream {
            workload,
            shape,
            rank_to_index,
            rank_share,
            verb_quota,
            rng: SplitMix64::new(seed, 0x0b5 + client as u64),
            block: Vec::new(),
            rate,
            clock_ns: 0.0,
        }
    }

    fn refill(&mut self) {
        // Whole parts first; then the fractional parts, laid end to end,
        // are hit by the points `u, u + 1, u + 2, …` (in `SHARE_UNIT`s) for
        // one random offset `u`. A fraction below one unit holds at most
        // one point, and holds one with probability equal to itself.
        let offset = self.rng.next_u64() % SHARE_UNIT;
        let points_below = |x: u64| {
            if x <= offset {
                0
            } else {
                (x - offset - 1) / SHARE_UNIT + 1
            }
        };
        let mut ranks = Vec::with_capacity(BLOCK);
        let mut fractions = 0;
        for (r, &share) in self.rank_share.iter().enumerate() {
            let before = points_below(fractions);
            fractions += share % SHARE_UNIT;
            let n = share / SHARE_UNIT + points_below(fractions) - before;
            ranks.extend(std::iter::repeat_n(r, n as usize));
        }
        let mut verbs = self.verb_quota.clone();
        self.rng.shuffle(&mut ranks);
        self.rng.shuffle(&mut verbs);
        self.block = ranks.into_iter().zip(verbs).rev().collect();
    }

    /// The universe index of popularity rank `rank`.
    pub fn index_of_rank(&self, rank: usize) -> usize {
        self.rank_to_index[rank]
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.block.is_empty() {
            self.refill();
        }
        let (mut rank, verb) = self.block.pop().expect("refilled");
        let verb = match verb {
            0 => Verb::Count,
            1 => Verb::Enumerate {
                page: if self.workload == Workload::RoutedStream {
                    64
                } else {
                    16
                },
            },
            2 => Verb::Sample {
                count: 4,
                seed: self.rng.below(8) as u64,
            },
            3 => {
                // count_exact only on unambiguous ranks: step down to the
                // nearest one in the same block of ten.
                while self.shape.family_of(rank) != Family::Unambiguous {
                    rank -= 1;
                }
                Verb::CountExact
            }
            4 => Verb::Churn {
                enumerate: None,
                sample: None,
            },
            5 => Verb::Churn {
                enumerate: Some(16),
                sample: None,
            },
            6 => Verb::Churn {
                enumerate: None,
                sample: (self.shape.family_of(rank) == Family::Unambiguous).then_some(4),
            },
            _ => Verb::Resume {
                page: 64,
                back: 1 + self.rng.below(4),
            },
        };
        let due_ns = if self.rate > 0.0 {
            // Poisson arrivals: exponential gaps.
            self.clock_ns += -(1.0 - self.rng.next_f64()).ln() / self.rate * 1e9;
            self.clock_ns as u64
        } else {
            0
        };
        Some(Op {
            inst: self.rank_to_index[rank],
            verb,
            due_ns,
        })
    }
}

/// Rank → index: a seeded bijection that keeps each rank in its block and
/// its family, so the seed decides which instance of a block is hottest
/// but not how costly the hot ranks are.
fn rank_permutation(shape: &Shape, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, 0x9e4);
    let mut map: Vec<usize> = (0..shape.size).collect();
    for block in (0..shape.size).step_by(10) {
        let end = (block + 10).min(shape.size);
        for family in [Family::Unambiguous, Family::Determinized, Family::Fpras] {
            let members: Vec<usize> = (block..end)
                .filter(|&i| shape.family_of(i) == family)
                .collect();
            let mut shuffled = members.clone();
            rng.shuffle(&mut shuffled);
            for (rank, index) in members.into_iter().zip(shuffled) {
                map[rank] = index;
            }
        }
    }
    map
}

/// Integer counts summing to `total`, proportional to `weights` (largest
/// remainder).
pub fn quotas(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).expect("finite weights").then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

/// FNV-1a over the op log prefix every run prints, so two runs can be shown
/// to have used identical inputs.
pub fn digest(workload: Workload, seed: u64, rate: f64, ops: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for spec in workload.shape().universe() {
        eat(spec.prepare_line().as_bytes());
    }
    for client in 0..workload.clients() {
        for op in OpStream::new(workload, seed, client, rate).take(ops) {
            eat(format!("{client} {op:?}\n").as_bytes());
        }
    }
    h
}
