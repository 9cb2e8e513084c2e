//! The answer oracle. Every count, page and sample a server returned is
//! recomputed on an in-process `ShardedEngine` built with the servers'
//! `EngineConfig` and must match bit for bit; every witness must pass
//! `PreparedInstance::check_witness`; pages stitched along a cursor must be
//! strictly increasing (no duplicates); and every FPRAS estimate must lie
//! within [`FPRAS_TOLERANCE`] of an independent exact count
//! (`determinize_capped` with a large cap, then `Dfa::count_words`).
//!
//! A wrong answer is an error that fails the run. An `"ok":false` answer
//! or a timeout is not checked here; it counts as a failed operation.

use std::collections::HashMap;
use std::sync::Arc;

use lsc_automata::ops::determinize_capped;
use lsc_automata::{format_word, parse_word, Symbol};
use lsc_core::engine::{
    CountRoute, EngineConfig, InstanceHandle, QueryKind, QueryOutput, QueryRequest, ResumeToken,
    ShardedConfig, ShardedEngine, WordCursor,
};
use lsc_core::serve::json::{self, Json};

use crate::gen::{alphabet, InstanceSpec};
use crate::load::{Exchange, Req};

/// Largest accepted `|estimate / exact - 1|` of an FPRAS count.
pub const FPRAS_TOLERANCE: f64 = 0.5;

/// Subset-construction cap of the independent exact count.
const EXACT_CAP: usize = 1 << 20;

/// The engine configuration every server runs with.
pub fn engine_config(cache_mb: Option<usize>) -> EngineConfig {
    let mut config = EngineConfig {
        seed: crate::procs::ENGINE_SEED,
        ..EngineConfig::default()
    };
    if let Some(mb) = cache_mb {
        config.cache_bytes = mb << 20;
    }
    config
}

/// What the oracle verified.
#[derive(Clone, Debug, Default)]
pub struct Verified {
    /// Answers compared.
    pub answers: usize,
    /// Witnesses checked.
    pub witnesses: usize,
    /// Largest FPRAS relative error seen (0 with no FPRAS answer).
    pub fpras_rel_err_max: f64,
    /// Distinct FPRAS instances checked.
    pub fpras_instances: usize,
}

struct SessionState {
    cursor: Option<WordCursor>,
    last: Option<Vec<Symbol>>,
}

/// The oracle over one universe.
pub struct Oracle<'a> {
    specs: &'a [InstanceSpec],
    engine: ShardedEngine,
    handles: HashMap<usize, InstanceHandle>,
    counts: HashMap<usize, Vec<(String, Json)>>,
    samples: HashMap<(usize, usize, u64), Vec<String>>,
    /// Live sessions by (connection, instance): a client holds at most one
    /// session per instance at a time.
    sessions: HashMap<(usize, usize), SessionState>,
    verified: Verified,
}

fn field<'j>(value: &'j Json, name: &str) -> Result<&'j Json, String> {
    value
        .get(name)
        .ok_or_else(|| format!("response lacks {name:?}"))
}

fn expect_eq(what: &str, got: &Json, want: &Json) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {}, want {}",
            got.encode(),
            want.encode()
        ))
    }
}

impl<'a> Oracle<'a> {
    /// An oracle mirroring servers that run with `config`.
    pub fn new(specs: &'a [InstanceSpec], config: EngineConfig) -> Oracle<'a> {
        let mut config = config;
        // The oracle never evicts: answers do not depend on residency.
        config.cache_bytes = usize::MAX / 2;
        Oracle {
            specs,
            engine: ShardedEngine::new(ShardedConfig {
                engine: config,
                shards: 1,
                ..ShardedConfig::default()
            }),
            handles: HashMap::new(),
            counts: HashMap::new(),
            samples: HashMap::new(),
            sessions: HashMap::new(),
            verified: Verified::default(),
        }
    }

    fn handle(&mut self, inst: usize) -> InstanceHandle {
        let specs = self.specs;
        let engine = &self.engine;
        self.handles
            .entry(inst)
            .or_insert_with(|| {
                let spec = &specs[inst];
                engine.prepare_nfa(&Arc::new(spec.nfa()), spec.length)
            })
            .clone()
    }

    /// Checks every answered exchange, in order. Exchanges of one
    /// connection must appear in the order they were sent.
    ///
    /// # Errors
    /// A description of the first wrong answer.
    pub fn check_all(&mut self, log: &[Exchange]) -> Result<Verified, String> {
        for ex in log.iter().filter(|ex| ex.ok()) {
            self.check(ex).map_err(|e| {
                format!(
                    "wrong answer on connection {} to {:?}: {e}",
                    ex.conn, ex.req
                )
            })?;
        }
        Ok(self.verified.clone())
    }

    fn check(&mut self, ex: &Exchange) -> Result<(), String> {
        let value = json::parse(&ex.response).map_err(|e| format!("unparseable response: {e}"))?;
        self.verified.answers += 1;
        match &ex.req {
            Req::Prepare(inst) => {
                let handle = self.handle(*inst);
                let spec = &self.specs[*inst];
                expect_eq(
                    "fingerprint",
                    field(&value, "fingerprint")?,
                    &Json::str(format!("{:016x}", handle.fingerprint())),
                )?;
                expect_eq(
                    "unambiguous",
                    field(&value, "unambiguous")?,
                    &Json::Bool(handle.instance().is_unambiguous()),
                )?;
                expect_eq(
                    "length",
                    field(&value, "length")?,
                    &Json::num(spec.length as f64),
                )?;
                field(&value, "session")?
                    .as_str()
                    .ok_or("session is not a string")?;
                self.sessions.insert(
                    (ex.conn, *inst),
                    SessionState {
                        cursor: None,
                        last: None,
                    },
                );
            }
            Req::Count(inst) => {
                let want = self.expected_count(*inst)?;
                for (name, want) in &want {
                    expect_eq(name, field(&value, name)?, want)?;
                }
            }
            Req::CountExact(inst) => {
                let handle = self.handle(*inst);
                let count = handle
                    .instance()
                    .count_exact()
                    .map_err(|_| "count_exact answered on an ambiguous instance")?;
                expect_eq(
                    "count",
                    field(&value, "count")?,
                    &Json::str(count.to_string()),
                )?;
            }
            Req::Enumerate(inst, page) | Req::Resume(inst, page, _) => {
                self.check_page(ex, *inst, *page, &value)?;
            }
            Req::Sample(inst, count, seed) => {
                let want = self.expected_sample(*inst, *count, *seed)?;
                let got = field(&value, "words")?
                    .as_arr()
                    .ok_or("words is not an array")?;
                let want_json: Vec<Json> = want.iter().map(|w| Json::str(w.clone())).collect();
                expect_eq("words", &Json::Arr(got.to_vec()), &Json::Arr(want_json))?;
                self.check_witnesses(*inst, got)?;
            }
            Req::Close(_) => {}
        }
        Ok(())
    }

    fn check_witnesses(&mut self, inst: usize, words: &[Json]) -> Result<(), String> {
        let handle = self.handle(inst);
        let ab = alphabet();
        for w in words {
            let text = w.as_str().ok_or("witness is not a string")?;
            let word = parse_word(text, &ab).ok_or("witness outside the alphabet")?;
            if !handle.instance().check_witness(&word) {
                return Err(format!("{text:?} is not a witness"));
            }
            self.verified.witnesses += 1;
        }
        Ok(())
    }

    fn check_page(
        &mut self,
        ex: &Exchange,
        inst: usize,
        page: usize,
        value: &Json,
    ) -> Result<(), String> {
        let handle = self.handle(inst);
        let state = self
            .sessions
            .get_mut(&(ex.conn, inst))
            .ok_or("page on a session the oracle never saw prepared")?;
        let mut cursor = match &ex.req {
            Req::Resume(_, _, token) => {
                state.last = None;
                let token = ResumeToken::parse(token).map_err(|e| e.to_string())?;
                self.engine
                    .resume_cursor(&handle, &token)
                    .map_err(|e| e.to_string())?
            }
            _ => state
                .cursor
                .take()
                .unwrap_or_else(|| self.engine.cursor(&handle)),
        };
        let ab = alphabet();
        let mut want = Vec::with_capacity(page);
        while want.len() < page {
            match cursor.advance() {
                Some(w) => {
                    // Stitched pages must be strictly increasing.
                    if let Some(prev) = &state.last {
                        if prev.as_slice() >= w {
                            return Err(format!("page order broken at {:?}", format_word(w, &ab)));
                        }
                    }
                    state.last = Some(w.to_vec());
                    want.push(Json::str(format_word(w, &ab)));
                }
                None => break,
            }
        }
        let got = field(value, "words")?
            .as_arr()
            .ok_or("words is not an array")?;
        expect_eq("words", &Json::Arr(got.to_vec()), &Json::Arr(want))?;
        expect_eq(
            "rank",
            field(value, "rank")?,
            &Json::num(cursor.rank() as f64),
        )?;
        expect_eq("done", field(value, "done")?, &Json::Bool(cursor.is_done()))?;
        expect_eq(
            "token",
            field(value, "token")?,
            &Json::str(cursor.token().encode()),
        )?;
        state.cursor = Some(cursor);
        let got = got.to_vec();
        self.check_witnesses(inst, &got)
    }

    fn expected_count(&mut self, inst: usize) -> Result<Vec<(String, Json)>, String> {
        if let Some(want) = self.counts.get(&inst) {
            return Ok(want.clone());
        }
        let handle = self.handle(inst);
        let response = self
            .engine
            .query(&QueryRequest::on(&handle, QueryKind::Count, 0));
        let routed = match response.output.map_err(|e| e.to_string())? {
            QueryOutput::Count(routed) => routed,
            other => return Err(format!("engine answered count with {other:?}")),
        };
        let route = match routed.route {
            CountRoute::ExactUnambiguous => "exact-unambiguous".to_string(),
            CountRoute::ExactDeterminized { dfa_states } => {
                format!("exact-determinized({dfa_states})")
            }
            CountRoute::Fpras => {
                let inst_ref = handle.instance();
                let exact = determinize_capped(inst_ref.nfa(), EXACT_CAP)
                    .ok_or("independent exact count exceeded its cap")?
                    .count_words(inst_ref.length())
                    .to_f64();
                let rel = (routed.estimate.to_f64() / exact - 1.0).abs();
                if rel.is_nan() || rel > FPRAS_TOLERANCE {
                    return Err(format!(
                        "FPRAS estimate {} is {rel:.3} away from the exact count {exact}",
                        routed.estimate
                    ));
                }
                self.verified.fpras_rel_err_max = self.verified.fpras_rel_err_max.max(rel);
                self.verified.fpras_instances += 1;
                "fpras".to_string()
            }
        };
        let mut want = vec![
            ("route".to_string(), Json::str(route)),
            ("exact".to_string(), Json::Bool(routed.is_exact())),
            (
                "estimate".to_string(),
                Json::str(routed.estimate.to_string()),
            ),
        ];
        if let Some(exact) = &routed.exact {
            want.push(("count".to_string(), Json::str(exact.to_string())));
        }
        self.counts.insert(inst, want.clone());
        Ok(want)
    }

    fn expected_sample(
        &mut self,
        inst: usize,
        count: usize,
        seed: u64,
    ) -> Result<Vec<String>, String> {
        if let Some(want) = self.samples.get(&(inst, count, seed)) {
            return Ok(want.clone());
        }
        let handle = self.handle(inst);
        let response = self.engine.query(&QueryRequest::on(
            &handle,
            QueryKind::Sample { count },
            seed,
        ));
        let words = match response.output.map_err(|e| e.to_string())? {
            QueryOutput::Words(words) => words,
            other => return Err(format!("engine answered sample with {other:?}")),
        };
        let ab = alphabet();
        let want: Vec<String> = words.iter().map(|w| format_word(w, &ab)).collect();
        self.samples.insert((inst, count, seed), want.clone());
        Ok(want)
    }
}
