//! The traced run. End-to-end numbers come from untraced runs; this run
//! first repeats the workload's untraced window (for its counters and the
//! generator's lateness), then replays a sample of the workload's op log
//! through each layer boundary in turn, timing each call from outside the
//! program:
//!
//! 1. TCP through `nfa_tool route` over two `nfa_tool serve` backends;
//! 2. TCP straight to the home backend of each instance, on a second,
//!    identical pair of backends;
//! 3. in process, `Server::submit_and_wait`, then `Server::handle_line`,
//!    `protocol::parse_request` and the response `Json` re-encode;
//! 4. a `ShardedEngine` with the servers' `EngineConfig`;
//! 5. the `PreparedInstance` and kernel calls (compile phases, FPRAS
//!    sketch, cursor advances, sample draws, snapshot save and load).
//!
//! Every answer of passes 1–3 goes through the oracle, as the untraced
//! window's answers do; a wrong one fails the run.
//!
//! Every call becomes one span (name, start, end, parent, request id);
//! request ids are op-log positions, so spans of one request share an id
//! across passes. Spans stay in memory and are written out as JSON lines
//! when the run ends; [`Dump::layer_report`] derives every per-layer
//! metric from such a dump. Because the boundaries are timed in separate
//! passes, a layer's self time is its span minus the durations of its
//! child spans of the same request.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lsc_automata::ops::determinize_capped;
use lsc_automata::regex::Regex;
use lsc_automata::{io as nfa_io, Nfa};
use lsc_core::engine::{
    EngineConfig, InstanceHandle, QueryKind, QueryRequest, ResumeToken, ShardMap, ShardedConfig,
    ShardedEngine, SnapshotStore, WordCursor,
};
use lsc_core::fpras::SharedWitnessSampler;
use lsc_core::serve::json::{self, Json};
use lsc_core::serve::protocol::parse_request;
use lsc_core::serve::{RouteConfig, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{alphabet, Form, InstanceSpec, OpStream, Workload};
use crate::load::{requests, Exchange, LineConn, Req, Sessions};
use crate::metrics::Report;
use crate::oracle::{engine_config, Oracle};
use crate::procs::{self, Proc, WORKERS};
use crate::run::{self, Env};
use crate::stats;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span id (position in the dump).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (op-log position, or instance index for per-instance
    /// kernel spans) the call served.
    pub req: u64,
    /// Boundary name.
    pub name: String,
    /// Start, ns since the run's clock origin.
    pub start_ns: u64,
    /// End, ns since the run's clock origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// Spans and counters of a traced run, kept in memory until the end.
#[derive(Default)]
pub struct Dump {
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Counters measured where the work happens (name → value).
    pub counters: Vec<(String, f64)>,
}

/// Records spans against one clock.
pub struct Tracer {
    clock: Instant,
    /// What has been recorded.
    pub dump: Dump,
}

impl Tracer {
    /// A tracer on `clock`.
    pub fn new(clock: Instant) -> Tracer {
        Tracer {
            clock,
            dump: Dump::default(),
        }
    }

    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Times `f` as span `name` of request `req`; returns its result and
    /// the span id.
    pub fn span<T>(
        &mut self,
        name: &str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        (out, self.record(name, req, parent, start_ns, end_ns))
    }

    /// [`Tracer::span`] when `traced`, otherwise just runs `f`.
    pub fn span_if<T>(&mut self, traced: bool, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        if traced {
            self.span(name, req, None, f).0
        } else {
            f()
        }
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.dump.spans.len();
        self.dump.spans.push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Records a counter.
    pub fn counter(&mut self, name: &str, value: f64) {
        self.dump.counters.push((name.to_string(), value));
    }
}

impl Dump {
    /// JSON lines: one object per span, then one per counter.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{parent},\"req\":{},\"start\":{},\"end\":{}}}\n",
                s.name, s.id, s.req, s.start_ns, s.end_ns
            ));
        }
        for (name, value) in &self.counters {
            let value = if value.is_finite() { *value } else { -1.0 };
            out.push_str(&format!("{{\"counter\":\"{name}\",\"value\":{value}}}\n"));
        }
        out
    }

    /// Parses [`Dump::to_jsonl`] output.
    ///
    /// # Errors
    /// The first malformed line.
    pub fn parse(text: &str) -> Result<Dump, String> {
        let mut dump = Dump::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = |what: &str| format!("line {}: {what}", n + 1);
            let value = json::parse(line).map_err(|e| bad(&e.to_string()))?;
            let num = |key: &str| {
                value
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(key))
            };
            if let Some(name) = value.get("span").and_then(Json::as_str) {
                dump.spans.push(Span {
                    id: num("id")? as usize,
                    parent: value
                        .get("parent")
                        .and_then(Json::as_u64)
                        .map(|p| p as usize),
                    req: num("req")?,
                    name: name.to_string(),
                    start_ns: num("start")?,
                    end_ns: num("end")?,
                });
            } else if let Some(name) = value.get("counter").and_then(Json::as_str) {
                let v = match value.get("value") {
                    Some(Json::Num(v)) => *v,
                    _ => return Err(bad("counter value")),
                };
                dump.counters.push((name.to_string(), v));
            } else {
                return Err(bad("neither a span nor a counter"));
            }
        }
        Ok(dump)
    }

    /// Requests with at least one span.
    pub fn requests(&self) -> u64 {
        let mut reqs: Vec<u64> = self.spans.iter().map(|s| s.req).collect();
        reqs.sort_unstable();
        reqs.dedup();
        reqs.len() as u64
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Duration of span `name` per request (the first such span of each).
    fn by_req(&self, name: &str) -> HashMap<u64, f64> {
        let mut out = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.entry(s.req).or_insert_with(|| s.dur());
        }
        out
    }

    /// `outer - inner` per request present in both (ns).
    fn difference(&self, outer: &str, inner: &str) -> Vec<f64> {
        let inner = self.by_req(inner);
        let mut pairs: Vec<(u64, f64)> = self
            .by_req(outer)
            .into_iter()
            .filter_map(|(req, d)| inner.get(&req).map(|i| (req, d - i)))
            .collect();
        pairs.sort_by_key(|&(req, _)| req);
        pairs.into_iter().map(|(_, d)| d).collect()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }

    /// Every per-layer metric, derived from the spans and counters.
    pub fn layer_report(&self) -> Report {
        let mut r = Report::default();
        let counters = |r: &mut Report, names: &[(&str, &'static str)]| {
            for &(name, unit) in names {
                r.value(name, self.counter(name), unit);
            }
        };
        // (metric, span, scale from ns, unit): medians of span durations.
        let medians = |r: &mut Report, rows: &[(&str, &str, f64, &'static str)]| {
            for &(name, span, scale, unit) in rows {
                r.p50(name, &self.durations(span), scale, unit);
            }
        };
        r.p50_p99(
            "router.hop",
            &self.difference("tcp.router", "tcp.direct"),
            1e-3,
            "us",
        );
        counters(
            &mut r,
            &[("router.forwarded", "count"), ("router.failovers", "count")],
        );
        let transport = self.difference("tcp.direct", "server.submit");
        r.p50("transport.p50_us", &transport, 1e-3, "us");
        r.p99("transport.p99_us", &transport, 1e-3, "us");
        r.p50_p99(
            "pool.wait",
            &self.difference("server.submit", "server.handle"),
            1e-3,
            "us",
        );
        counters(
            &mut r,
            &[("pool.rejected", "count"), ("pool.expired", "count")],
        );
        medians(
            &mut r,
            &[
                ("codec.parse_p50_ns", "codec.parse", 1.0, "ns"),
                ("codec.encode_p50_ns", "codec.encode", 1.0, "ns"),
            ],
        );
        counters(
            &mut r,
            &[("codec.request_bytes", "B"), ("codec.response_bytes", "B")],
        );
        r.p50("server.self_p50_us", &self.server_self(), 1e-3, "us");
        medians(
            &mut r,
            &[("engine.resolve_p50_ns", "engine.resolve", 1.0, "ns")],
        );
        counters(
            &mut r,
            &[
                ("engine.hit_ratio", "ratio"),
                ("engine.lookups", "count"),
                ("engine.evictions", "count"),
                ("engine.resident_mb", "MB"),
                ("engine.resident_instances", "count"),
            ],
        );
        medians(
            &mut r,
            &[
                ("compile.regex_us", "compile.regex", 1e-3, "us"),
                ("compile.nfa_text_us", "compile.nfa_text", 1e-3, "us"),
                ("compile.unroll_us", "compile.unroll", 1e-3, "us"),
                ("compile.classify_us", "compile.classify", 1e-3, "us"),
                ("compile.det_probe_us", "compile.det_probe", 1e-3, "us"),
                (
                    "compile.completion_dp_us",
                    "compile.completion_dp",
                    1e-3,
                    "us",
                ),
            ],
        );
        r.p50_p99("fpras.sketch", &self.durations("fpras.sketch"), 1e-6, "ms");
        counters(&mut r, &[("fpras.rel_err_max", "ratio")]);
        r.p50_p99(
            "enumerate.delay",
            &self.durations("enumerate.advance"),
            1.0,
            "ns",
        );
        medians(
            &mut r,
            &[
                ("enumerate.resume_us", "enumerate.resume", 1e-3, "us"),
                ("sample.draw_p50_us", "sample.draw", 1e-3, "us"),
            ],
        );
        counters(&mut r, &[("sample.accept_ratio", "ratio")]);
        medians(
            &mut r,
            &[
                ("snapshot.save_p50_us", "snapshot.save", 1e-3, "us"),
                ("snapshot.load_p50_us", "snapshot.load", 1e-3, "us"),
            ],
        );
        counters(
            &mut r,
            &[
                ("snapshot.bytes_per_instance", "B"),
                ("loadgen.late_p99_us", "us"),
                ("trace.overhead_ratio", "ratio"),
            ],
        );
        r
    }

    /// `server.handle` minus its parse, encode and engine children, per
    /// request (ns).
    fn server_self(&self) -> Vec<f64> {
        let handles: HashMap<usize, &Span> = self
            .spans
            .iter()
            .filter(|s| s.name == "server.handle")
            .map(|s| (s.id, s))
            .collect();
        let mut children: HashMap<usize, f64> = HashMap::new();
        let engine = self.by_req("engine.call");
        for s in self.spans.iter().filter(|s| s.name.starts_with("codec.")) {
            if let Some(p) = s.parent.filter(|p| handles.contains_key(p)) {
                *children.entry(p).or_default() += s.dur();
            }
        }
        let mut out: Vec<(u64, f64)> = handles
            .values()
            .filter_map(|h| {
                let engine = engine.get(&h.req)?;
                Some((
                    h.req,
                    h.dur() - children.get(&h.id).copied().unwrap_or(0.0) - engine,
                ))
            })
            .collect();
        out.sort_by_key(|&(req, _)| req);
        out.into_iter().map(|(_, d)| d).collect()
    }
}

/// Op-log positions replayed per workload.
fn sample_ops(workload: Workload) -> usize {
    match workload {
        Workload::WarmZipf => 1500,
        Workload::ColdChurn => 160,
        Workload::RoutedStream => 600,
    }
}

/// Request ids of one op: its op-log position times this, plus the
/// request's position within the op.
const REQS_PER_OP: u64 = 8;

/// Request ids of per-instance kernel spans start here.
const INSTANCE_REQ: u64 = 1 << 40;

/// One replay step: the request id it serves and the request.
struct Step {
    req_id: u64,
    req: Req,
}

/// The replay script: set-up prepares (not traced), then the sampled ops'
/// requests. Requests that depend on earlier answers (resume tokens) are
/// built while replaying, from each pass's own session book.
struct Script {
    setup: Vec<usize>,
    ops: Vec<(u64, crate::gen::Op)>,
}

fn script(workload: Workload, seed: u64) -> Script {
    let ops: Vec<(u64, crate::gen::Op)> = OpStream::new(workload, seed, 0, 0.0)
        .take(sample_ops(workload))
        .enumerate()
        .map(|(n, op)| (n as u64, op))
        .collect();
    let mut setup: Vec<usize> = match workload {
        Workload::ColdChurn => Vec::new(),
        _ => ops.iter().map(|(_, op)| op.inst).collect(),
    };
    setup.sort_unstable();
    setup.dedup();
    Script { setup, ops }
}

/// A sink for one pass: sends a request line for a step and returns the
/// response line.
trait Boundary {
    fn call(&mut self, tracer: &mut Tracer, step: &Step, line: &str, traced: bool) -> String;
}

/// What one replay pass took and answered.
struct Pass {
    /// Wall time of the sampled ops (set-up prepares excluded), s.
    seconds: f64,
    /// Every request and its answer, set-up prepares included, as the
    /// oracle reads them (timestamps are not kept).
    log: Vec<Exchange>,
}

/// Replays the script through `boundary` with a fresh session book.
fn replay(
    specs: &[InstanceSpec],
    script: &Script,
    boundary: &mut dyn Boundary,
    tracer: &mut Tracer,
    traced: bool,
) -> Result<Pass, String> {
    let mut sessions = Sessions::default();
    let mut log = Vec::new();
    let mut keep = |op: u64, req: Req, response: String| {
        log.push(Exchange {
            conn: 0,
            op,
            req,
            due_ns: 0,
            sent_ns: 0,
            done_ns: Some(0),
            response,
        });
    };
    for &inst in &script.setup {
        let step = Step {
            req_id: u64::MAX,
            req: Req::Prepare(inst),
        };
        let response = boundary.call(tracer, &step, &specs[inst].prepare_line(), false);
        book(&mut sessions, &step.req, &response)?;
        keep(u64::MAX, step.req, response);
    }
    let started = Instant::now();
    for (pos, op) in &script.ops {
        for (k, req) in requests(op, &sessions).into_iter().enumerate() {
            let line = req.line(specs, sessions.name(req.inst()));
            let step = Step {
                req_id: pos * REQS_PER_OP + k as u64,
                req,
            };
            let response = boundary.call(tracer, &step, &line, traced);
            book(&mut sessions, &step.req, &response)?;
            keep(*pos, step.req, response);
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    Ok(Pass { seconds, log })
}

/// Checks a pass's answers with the oracle; `conn` keeps its sessions
/// apart from other passes'.
fn verify(oracle: &mut Oracle, pass: &Pass, conn: usize, what: &str) -> Result<(), String> {
    let mut log = pass.log.clone();
    for ex in &mut log {
        ex.conn = conn;
    }
    oracle
        .check_all(&log)
        .map(|_| ())
        .map_err(|wrong| format!("traced replay, {what}: {wrong}"))
}

/// Updates a session book from a replayed answer (the same bookkeeping the
/// load generator does); an error answer aborts the traced run.
fn book(sessions: &mut Sessions, req: &Req, response: &str) -> Result<(), String> {
    if !response.starts_with(r#"{"ok":true"#) {
        return Err(format!("traced replay: {req:?} answered {response:?}"));
    }
    crate::load::note(sessions, req, response);
    Ok(())
}

/// TCP through the router.
struct Routed {
    conn: LineConn,
}

impl Boundary for Routed {
    fn call(&mut self, tracer: &mut Tracer, step: &Step, line: &str, traced: bool) -> String {
        tracer
            .span_if(traced, "tcp.router", step.req_id, || self.conn.call(line))
            .unwrap_or_default()
    }
}

/// TCP straight to each instance's home backend.
struct Direct<'a> {
    conns: Vec<LineConn>,
    home: HashMap<usize, usize>,
    specs: &'a [InstanceSpec],
}

impl Boundary for Direct<'_> {
    fn call(&mut self, tracer: &mut Tracer, step: &Step, line: &str, traced: bool) -> String {
        let inst = step.req.inst();
        let backend = *self.home.entry(inst).or_insert_with(|| {
            let spec = &self.specs[inst];
            let fp =
                lsc_core::engine::PreparedInstance::instance_fingerprint(&spec.nfa(), spec.length);
            ShardMap::new(2, RouteConfig::default().ring_replicas).shard_for(fp)
        });
        let conn = &mut self.conns[backend];
        tracer
            .span_if(traced, "tcp.direct", step.req_id, || conn.call(line))
            .unwrap_or_default()
    }
}

/// In process: `Server::submit_and_wait`.
struct Submit<'a> {
    server: &'a Server,
    conn: u64,
}

impl Boundary for Submit<'_> {
    fn call(&mut self, tracer: &mut Tracer, step: &Step, line: &str, traced: bool) -> String {
        tracer
            .span_if(traced, "server.submit", step.req_id, || {
                self.server.submit_and_wait(self.conn, line)
            })
            .text
    }
}

/// In process: `Server::handle_line`, with `parse_request` and the
/// response re-encode timed beside it as its codec children.
struct Handle<'a> {
    server: &'a Server,
    conn: u64,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

impl Boundary for Handle<'_> {
    fn call(&mut self, tracer: &mut Tracer, step: &Step, line: &str, traced: bool) -> String {
        let (reply, handle) = tracer.span("server.handle", step.req_id, None, || {
            self.server.handle_line(self.conn, line)
        });
        if !traced {
            tracer.dump.spans.pop();
            return reply.text;
        }
        tracer.span("codec.parse", step.req_id, Some(handle), || {
            std::hint::black_box(parse_request(std::hint::black_box(line))).is_ok()
        });
        if let Ok(value) = json::parse(&reply.text) {
            tracer.span("codec.encode", step.req_id, Some(handle), || {
                std::hint::black_box(value.encode()).len()
            });
        }
        self.request_bytes.push(line.len() as f64 + 1.0);
        self.response_bytes.push(reply.text.len() as f64 + 1.0);
        reply.text
    }
}

/// The engine pass: each request's engine call on a `ShardedEngine`, with
/// cursor advances as child spans.
struct EnginePass<'a> {
    engine: &'a ShardedEngine,
    specs: &'a [InstanceSpec],
    nfas: HashMap<usize, Arc<Nfa>>,
    handles: HashMap<usize, InstanceHandle>,
    cursors: HashMap<usize, WordCursor>,
}

impl EnginePass<'_> {
    fn nfa(&mut self, inst: usize) -> Arc<Nfa> {
        let specs = self.specs;
        self.nfas
            .entry(inst)
            .or_insert_with(|| Arc::new(specs[inst].nfa()))
            .clone()
    }

    fn page(
        &mut self,
        tracer: &mut Tracer,
        step: &Step,
        parent: usize,
        mut cursor: WordCursor,
        page: usize,
        traced: bool,
    ) -> String {
        let mut words = 0;
        for _ in 0..page {
            let start = tracer.now();
            let more = cursor.advance().is_some();
            let end = tracer.now();
            if traced && more {
                tracer.record("enumerate.advance", step.req_id, Some(parent), start, end);
            }
            if !more {
                break;
            }
            words += 1;
        }
        let token = cursor.token();
        if traced {
            // What resuming at this page boundary costs (every workload
            // pages; only routed-stream also resumes on the wire).
            let handle = &self.handles[&step.req.inst()];
            let engine = self.engine;
            tracer.span("enumerate.resume", step.req_id, Some(parent), || {
                engine.resume_cursor(handle, &token).is_ok()
            });
        }
        let token = token.encode();
        self.cursors.insert(step.req.inst(), cursor);
        format!(r#"{{"ok":true,"returned":{words},"token":"{token}"}}"#)
    }
}

impl Boundary for EnginePass<'_> {
    fn call(&mut self, tracer: &mut Tracer, step: &Step, _line: &str, traced: bool) -> String {
        let inst = step.req.inst();
        let nfa = self.nfa(inst);
        let length = self.specs[inst].length;
        let engine = self.engine;
        if let Req::Prepare(_) = step.req {
            let (handle, _) = tracer.span("engine.call", step.req_id, None, || {
                let handle = engine.prepare_nfa(&nfa, length);
                handle.instance().is_unambiguous();
                handle
            });
            if traced {
                // Resolution of a resident instance: the same prepare again.
                tracer.span("engine.resolve", step.req_id, None, || {
                    engine.prepare_nfa(&nfa, length).fingerprint()
                });
            } else {
                tracer.dump.spans.pop();
            }
            self.handles.insert(inst, handle);
            self.cursors.remove(&inst);
            return r#"{"ok":true,"session":"e"}"#.to_string();
        }
        let handle = match self.handles.get(&inst) {
            Some(h) => h.clone(),
            None => return String::new(),
        };
        if traced {
            tracer.span("engine.resolve", step.req_id, None, || {
                engine.prepare_nfa(&nfa, length).fingerprint()
            });
        }
        let start = tracer.now();
        let call = tracer.record("engine.call", step.req_id, None, start, start);
        let response = match &step.req {
            Req::Count(_) => {
                let ok = engine
                    .query(&QueryRequest::on(&handle, QueryKind::Count, 0))
                    .output
                    .is_ok();
                format!(r#"{{"ok":{ok}}}"#)
            }
            Req::CountExact(_) => {
                let ok = engine
                    .query(&QueryRequest::on(&handle, QueryKind::CountExact, 0))
                    .output
                    .is_ok();
                format!(r#"{{"ok":{ok}}}"#)
            }
            Req::Sample(_, count, seed) => {
                let ok = engine
                    .query(&QueryRequest::on(
                        &handle,
                        QueryKind::Sample { count: *count },
                        *seed,
                    ))
                    .output
                    .is_ok();
                format!(r#"{{"ok":{ok}}}"#)
            }
            Req::Enumerate(_, page) => {
                let cursor = self
                    .cursors
                    .remove(&inst)
                    .unwrap_or_else(|| engine.cursor(&handle));
                self.page(tracer, step, call, cursor, *page, traced)
            }
            Req::Resume(_, page, token) => {
                let Ok(token) = ResumeToken::parse(token) else {
                    return String::new();
                };
                let (cursor, _) = tracer.span("enumerate.resume", step.req_id, Some(call), || {
                    engine.resume_cursor(&handle, &token)
                });
                let Ok(cursor) = cursor else {
                    return String::new();
                };
                self.page(tracer, step, call, cursor, *page, traced)
            }
            Req::Close(_) => {
                self.handles.remove(&inst);
                self.cursors.remove(&inst);
                r#"{"ok":true}"#.to_string()
            }
            Req::Prepare(_) => unreachable!("handled above"),
        };
        let end = tracer.now();
        if traced {
            tracer.dump.spans[call].end_ns = end;
        } else {
            tracer.dump.spans.truncate(call);
        }
        response
    }
}

/// Kernel pass: per distinct instance of the sample, the compile phases,
/// the FPRAS sketch (ambiguous instances), and snapshot save/load; per
/// sampled `sample` op, the individual draws.
fn kernel_pass(
    tracer: &mut Tracer,
    specs: &[InstanceSpec],
    script: &Script,
    config: &EngineConfig,
    store: &SnapshotStore,
) -> Result<(), String> {
    let mut insts: Vec<usize> = script.ops.iter().map(|(_, op)| op.inst).collect();
    insts.sort_unstable();
    insts.dedup();
    let ab = alphabet();
    let mut rel_err_max: f64 = 0.0;
    let mut snapshot_bytes = Vec::new();
    let mut prepared = HashMap::new();
    for &i in &insts {
        let spec = &specs[i];
        let req = INSTANCE_REQ + i as u64;
        let text = spec.nfa_text();
        let (regex_nfa, _) = tracer.span("compile.regex", req, None, || {
            Regex::parse(&spec.pattern, &ab).map(|r| r.compile())
        });
        let (text_nfa, _) = tracer.span("compile.nfa_text", req, None, || nfa_io::from_text(&text));
        let nfa = match spec.form {
            Form::Regex => regex_nfa.map_err(|e| e.to_string())?,
            Form::NfaText => text_nfa.map_err(|e| e.to_string())?,
        };
        let inst = Arc::new(lsc_core::engine::PreparedInstance::from_arc(
            Arc::new(nfa),
            spec.length,
        ));
        tracer.span("compile.unroll", req, None, || inst.dag().num_nodes());
        let (degree, _) = tracer.span("compile.classify", req, None, || inst.ambiguity());
        let ambiguous = degree != lsc_automata::ops::AmbiguityDegree::Unambiguous;
        if ambiguous {
            tracer.span("compile.det_probe", req, None, || {
                determinize_capped(inst.nfa(), config.router.determinization_cap).is_some()
            });
        }
        tracer.span("compile.completion_dp", req, None, || {
            inst.completion_table().len()
        });
        if ambiguous {
            let seed = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ inst.fingerprint();
            let (sketch, _) = tracer.span("fpras.sketch", req, None, || {
                inst.fpras_sketch(config.router.fpras, seed)
            });
            let sketch = sketch.map_err(|e| e.to_string())?;
            if let Some(dfa) = determinize_capped(inst.nfa(), 1 << 20) {
                let exact = dfa.count_words(inst.length()).to_f64();
                rel_err_max = rel_err_max.max((sketch.estimate().to_f64() / exact - 1.0).abs());
            }
        }
        let (saved, _) = tracer.span("snapshot.save", req, None, || store.save(&inst));
        saved.map_err(|e| e.to_string())?;
        let path = store.path_for(inst.fingerprint());
        let (loaded, _) = tracer.span("snapshot.load", req, None, || store.load(&path));
        loaded.map_err(|e| e.to_string())?;
        snapshot_bytes.push(std::fs::metadata(&path).map_or(0, |m| m.len()) as f64);
        prepared.insert(i, inst);
    }
    // Individual draws of the sampled `sample` ops, counting Las Vegas
    // attempts (an exact-table draw is one accepted attempt).
    let (mut accepted, mut attempts) = (0u64, 0u64);
    for (pos, op) in &script.ops {
        let req_id = &(pos * REQS_PER_OP);
        let (count, seed) = match op.verb {
            crate::gen::Verb::Sample { count, seed } => (count, seed),
            crate::gen::Verb::Churn {
                sample: Some(count),
                ..
            } => (count, 0),
            _ => continue,
        };
        let inst = &prepared[&op.inst];
        let mut rng = StdRng::seed_from_u64(seed);
        if inst.is_unambiguous() {
            let sampler = inst.uniform_sampler().map_err(|e| e.to_string())?;
            for _ in 0..count {
                let (w, _) = tracer.span("sample.draw", *req_id, None, || sampler.sample(&mut rng));
                attempts += 1;
                accepted += u64::from(w.is_some());
            }
        } else {
            let seed_k = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ inst.fingerprint();
            let sketch = inst
                .fpras_sketch(config.router.fpras, seed_k)
                .map_err(|e| e.to_string())?;
            let mut sampler = SharedWitnessSampler::new(sketch);
            for _ in 0..count {
                let (tries, _) = tracer.span("sample.draw", *req_id, None, || {
                    let mut tries = 0;
                    for _ in 0..config.retries.max(1) {
                        tries += 1;
                        if sampler.sample(&mut rng).is_some() {
                            return (tries, true);
                        }
                    }
                    (tries, false)
                });
                attempts += tries.0;
                accepted += u64::from(tries.1);
            }
        }
    }
    tracer.counter("fpras.rel_err_max", rel_err_max);
    tracer.counter(
        "sample.accept_ratio",
        if attempts == 0 {
            f64::NAN
        } else {
            accepted as f64 / attempts as f64
        },
    );
    tracer.counter(
        "snapshot.bytes_per_instance",
        snapshot_bytes.iter().sum::<f64>() / snapshot_bytes.len().max(1) as f64,
    );
    Ok(())
}

/// Sums a counter over `stats` answers: `section.key`.
fn stat_sum(stats: &[Json], section: &str, key: &str) -> f64 {
    stats
        .iter()
        .filter_map(|s| s.get(section)?.get(key).and_then(Json::as_u64))
        .sum::<u64>() as f64
}

/// Runs the traced run: the untraced window (for counters), then the
/// boundary-by-boundary replay; returns the per-layer report.
///
/// # Errors
/// As [`run::run`], plus replay failures.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<(run::Outcome, Option<Report>), String> {
    let clock = Instant::now();
    let mut tracer = Tracer::new(clock);
    let specs = workload.shape().universe();
    let config = engine_config(run::cache_mb(workload));

    // 1. The untraced window, for the counters and the generator's lateness.
    let mut outcome = run::run(workload, seed, seconds, env)?;
    if outcome.wrong.is_some() {
        return Ok((outcome, None));
    }
    let stats: Vec<Json> = outcome
        .stats
        .iter()
        .filter_map(|s| json::parse(s).ok())
        .collect();
    let (backends, routers): (Vec<Json>, Vec<Json>) =
        stats.into_iter().partition(|s| s.get("router").is_none());
    let hits = stat_sum(&backends, "engine", "hits");
    let misses = stat_sum(&backends, "engine", "misses");
    tracer.counter("engine.lookups", hits + misses);
    tracer.counter("engine.hit_ratio", hits / (hits + misses).max(1.0));
    tracer.counter(
        "engine.evictions",
        stat_sum(&backends, "engine", "evictions"),
    );
    tracer.counter(
        "engine.resident_mb",
        stat_sum(&backends, "engine", "bytes") / (1 << 20) as f64,
    );
    tracer.counter(
        "engine.resident_instances",
        stat_sum(&backends, "engine", "entries"),
    );
    tracer.counter("pool.rejected", stat_sum(&backends, "server", "rejected"));
    tracer.counter("pool.expired", stat_sum(&backends, "server", "expired"));
    if !routers.is_empty() {
        tracer.counter(
            "router.forwarded",
            stat_sum(&routers, "router", "forwarded"),
        );
        tracer.counter(
            "router.failovers",
            stat_sum(&routers, "router", "failovers"),
        );
    }
    tracer.counter(
        "loadgen.late_p99_us",
        stats::tail(&outcome.late_ns).map_or(f64::NAN, |q| q.value / 1e3),
    );

    // 2. TCP passes. The router fronts backends r0 and r1; the direct
    // passes go to a second, identical pair d0 and d1, to each instance's
    // home by the router's own ring. Both pairs see the same request
    // sequence per backend (warm-up, untraced, traced), so a routed
    // request and its direct twin meet the same cache state.
    let script = script(workload, seed);
    // Passes whose answers the oracle checks once the servers are gone.
    let mut checked: Vec<(&str, Pass)> = Vec::new();
    let dir = env.work.join("trace");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| e.to_string();
    {
        let serve = |name: &str| {
            procs::spawn_serve(&env.nfa_tool, &run::serve_opts(workload, &dir.join(name)))
        };
        let (r0, r1, d0, d1) = (
            serve("r0").map_err(io)?,
            serve("r1").map_err(io)?,
            serve("d0").map_err(io)?,
            serve("d1").map_err(io)?,
        );
        let router: Proc = procs::spawn_route(&env.nfa_tool, &[&r0, &r1]).map_err(io)?;
        let mut passes = Vec::new();
        for traced in [false, false, true] {
            let mut routed = Routed {
                conn: LineConn::connect(&router.addr).map_err(io)?,
            };
            passes.push((
                "routed",
                replay(&specs, &script, &mut routed, &mut tracer, traced)?,
            ));
            let mut direct = Direct {
                conns: vec![
                    LineConn::connect(&d0.addr).map_err(io)?,
                    LineConn::connect(&d1.addr).map_err(io)?,
                ],
                home: HashMap::new(),
                specs: &specs,
            };
            passes.push((
                "direct",
                replay(&specs, &script, &mut direct, &mut tracer, traced)?,
            ));
        }
        tracer.counter(
            "trace.overhead_ratio",
            passes[5].1.seconds / passes[3].1.seconds,
        );
        if routers.is_empty() {
            let stats: Vec<Json> = LineConn::connect(&router.addr)
                .and_then(|mut c| c.call(r#"{"op":"stats"}"#))
                .ok()
                .and_then(|s| json::parse(&s).ok())
                .into_iter()
                .collect();
            let failovers = stat_sum(&stats, "router", "failovers");
            if failovers > 0.0 {
                return Err(format!(
                    "the traced replay's router failed over {failovers} times"
                ));
            }
            tracer.counter("router.forwarded", stat_sum(&stats, "router", "forwarded"));
            tracer.counter("router.failovers", failovers);
        }
        checked.extend(passes);
    }

    // 3. In process: submit_and_wait, then handle_line with its codec.
    let serve_config = ServeConfig {
        engine: config,
        workers: WORKERS,
        snapshot_dir: run::serve_opts(workload, &dir.join("inproc")).snapshot_dir,
        ..ServeConfig::default()
    };
    let server = Server::new(serve_config).map_err(io)?;
    let warm_conn = server.open_conn();
    let warm = replay(
        &specs,
        &script,
        &mut Handle {
            server: &server,
            conn: warm_conn,
            request_bytes: Vec::new(),
            response_bytes: Vec::new(),
        },
        &mut tracer,
        false,
    )?;
    checked.push(("handle_line (warm-up)", warm));
    let mut submit = Submit {
        server: &server,
        conn: server.open_conn(),
    };
    checked.push((
        "submit_and_wait",
        replay(&specs, &script, &mut submit, &mut tracer, true)?,
    ));
    let mut handle = Handle {
        server: &server,
        conn: server.open_conn(),
        request_bytes: Vec::new(),
        response_bytes: Vec::new(),
    };
    checked.push((
        "handle_line",
        replay(&specs, &script, &mut handle, &mut tracer, true)?,
    ));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    tracer.counter("codec.request_bytes", mean(&handle.request_bytes));
    tracer.counter("codec.response_bytes", mean(&handle.response_bytes));
    server.shutdown();
    drop(server);
    let mut oracle = Oracle::new(&specs, config);
    for (conn, (what, pass)) in checked.iter().enumerate() {
        if let Err(wrong) = verify(&mut oracle, pass, conn, what) {
            outcome.wrong = Some(wrong);
            return Ok((outcome, None));
        }
    }

    // 4. The engine.
    let engine = ShardedEngine::new(ShardedConfig {
        engine: config,
        shards: 0,
        ..ShardedConfig::default()
    });
    for traced in [false, true] {
        let mut pass = EnginePass {
            engine: &engine,
            specs: &specs,
            nfas: HashMap::new(),
            handles: HashMap::new(),
            cursors: HashMap::new(),
        };
        replay(&specs, &script, &mut pass, &mut tracer, traced)?;
    }

    // 5. The kernels.
    let store = SnapshotStore::open(dir.join("kernel")).map_err(io)?;
    kernel_pass(&mut tracer, &specs, &script, &config, &store)?;

    // Spans are written out once, at the end; the report is derived from
    // the written dump.
    let text = tracer.dump.to_jsonl();
    let path = env
        .work
        .parent()
        .unwrap_or(&env.work)
        .join(format!("spans-{}-{seed}.jsonl", workload.name()));
    std::fs::write(&path, &text).map_err(io)?;
    println!(
        "# span dump: {} ({} spans)",
        path.display(),
        tracer.dump.spans.len()
    );
    let dump = Dump::parse(&text)?;
    Ok((outcome, Some(dump.layer_report())))
}
