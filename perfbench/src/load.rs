//! The load generator: line connections, the open-loop runner (one sender
//! and one receiver thread over two connections, every request timed from
//! when it was due) and the closed-loop runners (one thread per client).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lsc_reactor::{Interest, Poller, Token};

use crate::gen::{InstanceSpec, Op, Verb};

/// How long a response may take before the request counts as timed out.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// What a request asked, in the terms the oracle checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Req {
    /// `prepare` of a universe instance.
    Prepare(usize),
    /// `count`.
    Count(usize),
    /// `count_exact`.
    CountExact(usize),
    /// `enumerate` on the live cursor.
    Enumerate(usize, usize),
    /// `enumerate` resumed from a token.
    Resume(usize, usize, String),
    /// `sample` (count, seed).
    Sample(usize, usize, u64),
    /// `close`.
    Close(usize),
}

impl Req {
    /// The universe instance the request targets.
    pub fn inst(&self) -> usize {
        match self {
            Req::Prepare(i)
            | Req::Count(i)
            | Req::CountExact(i)
            | Req::Enumerate(i, _)
            | Req::Resume(i, _, _)
            | Req::Sample(i, _, _)
            | Req::Close(i) => *i,
        }
    }

    /// The request line for `session` (`prepare` ignores it).
    pub fn line(&self, specs: &[InstanceSpec], session: &str) -> String {
        match self {
            Req::Prepare(i) => specs[*i].prepare_line(),
            Req::Count(_) => format!(r#"{{"op":"count","session":"{session}"}}"#),
            Req::CountExact(_) => format!(r#"{{"op":"count_exact","session":"{session}"}}"#),
            Req::Enumerate(_, page) => {
                format!(r#"{{"op":"enumerate","session":"{session}","page_size":{page}}}"#)
            }
            Req::Resume(_, page, token) => format!(
                r#"{{"op":"enumerate","session":"{session}","page_size":{page},"resume":"{token}"}}"#
            ),
            Req::Sample(_, count, seed) => {
                format!(r#"{{"op":"sample","session":"{session}","count":{count},"seed":{seed}}}"#)
            }
            Req::Close(_) => format!(r#"{{"op":"close","session":"{session}"}}"#),
        }
    }
}

/// One request and its response, with its timestamps (ns since the run's
/// clock origin).
#[derive(Clone, Debug)]
pub struct Exchange {
    /// Connection index.
    pub conn: usize,
    /// Operation id: the exchanges of one cold-churn operation share it.
    pub op: u64,
    /// What was asked.
    pub req: Req,
    /// When it was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    /// When it was written.
    pub sent_ns: u64,
    /// When its response arrived (`None`: timed out or the connection died).
    pub done_ns: Option<u64>,
    /// The response line.
    pub response: String,
}

impl Exchange {
    /// True when the response is an `"ok":true` answer.
    pub fn ok(&self) -> bool {
        self.done_ns.is_some() && self.response.starts_with(r#"{"ok":true"#)
    }
}

/// Extracts the string field `"name":"…"` from a response line without a
/// full parse (session names and tokens hold no escapes).
pub fn string_field<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":\"");
    let start = response.find(&key)? + key.len();
    let len = response[start..].find('"')?;
    Some(&response[start..start + len])
}

/// A blocking request/response connection.
pub struct LineConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineConn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> std::io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(LineConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one line and waits for its response line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::other("connection closed"));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// A second handle on the raw stream (for the open-loop runner); the
    /// connection stays open while this `LineConn` lives.
    pub fn stream(&self) -> std::io::Result<TcpStream> {
        self.writer.try_clone()
    }
}

/// A client's view of the sessions it opened: instance → session name, and
/// the tokens of each session's pages, oldest first.
#[derive(Default)]
pub struct Sessions {
    names: HashMap<usize, String>,
    tokens: HashMap<usize, Vec<String>>,
}

impl Sessions {
    /// The session name of `inst` (empty if it was never prepared).
    pub fn name(&self, inst: usize) -> &str {
        self.names.get(&inst).map_or("", String::as_str)
    }
}

/// Runs `req` on `conn`, timing it against `clock` and recording it.
pub fn exchange(
    conn: &mut LineConn,
    conn_id: usize,
    op: u64,
    req: Req,
    specs: &[InstanceSpec],
    sessions: &mut Sessions,
    clock: Instant,
) -> Exchange {
    let line = req.line(specs, sessions.name(req.inst()));
    let sent_ns = clock.elapsed().as_nanos() as u64;
    let result = conn.call(&line);
    let done_ns = clock.elapsed().as_nanos() as u64;
    let (response, done_ns) = match result {
        Ok(text) => (text, Some(done_ns)),
        Err(_) => (String::new(), None),
    };
    let ex = Exchange {
        conn: conn_id,
        op,
        req,
        due_ns: sent_ns,
        sent_ns,
        done_ns,
        response,
    };
    note(sessions, &ex.req, &ex.response);
    ex
}

/// Updates a client's session book from one answer to `req`.
pub fn note(sessions: &mut Sessions, req: &Req, response: &str) {
    match req {
        Req::Prepare(inst) => {
            if let Some(name) = string_field(response, "session") {
                sessions.names.insert(*inst, name.to_string());
                sessions.tokens.remove(inst);
            }
        }
        Req::Enumerate(inst, _) | Req::Resume(inst, _, _) => {
            if let Some(token) = string_field(response, "token") {
                sessions
                    .tokens
                    .entry(*inst)
                    .or_default()
                    .push(token.to_string());
            }
        }
        Req::Close(inst) => {
            sessions.names.remove(inst);
            sessions.tokens.remove(inst);
        }
        _ => {}
    }
}

/// The requests of one generated op, given the client's session book.
pub fn requests(op: &Op, sessions: &Sessions) -> Vec<Req> {
    let i = op.inst;
    match op.verb {
        Verb::Count => vec![Req::Count(i)],
        Verb::CountExact => vec![Req::CountExact(i)],
        Verb::Enumerate { page } => vec![Req::Enumerate(i, page)],
        Verb::Resume { page, back } => {
            // The token `back` pages before the newest; a session with no
            // pages yet continues its live cursor instead.
            match sessions.tokens.get(&i) {
                Some(tokens) if !tokens.is_empty() => {
                    let at = tokens.len().saturating_sub(back + 1);
                    vec![Req::Resume(i, page, tokens[at].clone())]
                }
                _ => vec![Req::Enumerate(i, page)],
            }
        }
        Verb::Sample { count, seed } => vec![Req::Sample(i, count, seed)],
        Verb::Churn { enumerate, sample } => {
            let mut reqs = vec![Req::Prepare(i), Req::Count(i)];
            if let Some(page) = enumerate {
                reqs.push(Req::Enumerate(i, page));
            }
            if let Some(count) = sample {
                reqs.push(Req::Sample(i, count, 0));
            }
            reqs.push(Req::Close(i));
            reqs
        }
    }
}

/// Closed loop: one client sends its ops back to back until `deadline`.
pub fn closed_loop(
    conn: &mut LineConn,
    conn_id: usize,
    ops: impl Iterator<Item = Op>,
    specs: &[InstanceSpec],
    sessions: &mut Sessions,
    clock: Instant,
    deadline: Duration,
) -> Vec<Exchange> {
    let mut log = Vec::new();
    for (n, op) in ops.enumerate() {
        if clock.elapsed() >= deadline {
            break;
        }
        for req in requests(&op, sessions) {
            let ex = exchange(conn, conn_id, n as u64, req, specs, sessions, clock);
            let broken = ex.done_ns.is_none();
            log.push(ex);
            if broken {
                return log;
            }
        }
    }
    log
}

/// One scheduled open-loop request.
pub struct Scheduled {
    /// Connection index (0 or 1).
    pub conn: usize,
    /// Op id.
    pub op: u64,
    /// What it asks.
    pub req: Req,
    /// The request line.
    pub line: String,
    /// When it is due, ns since the clock origin.
    pub due_ns: u64,
}

/// Open loop over two connections: the calling thread sends every request
/// at its due time regardless of replies; one receiver thread matches
/// responses to requests in per-connection FIFO order. Latency is measured
/// from the due time, so a stall charges every request due during it.
pub fn open_loop(
    streams: Vec<TcpStream>,
    schedule: Vec<Scheduled>,
    clock: Instant,
) -> std::io::Result<Vec<Exchange>> {
    let conns = streams.len();
    let expected: Vec<usize> = (0..conns)
        .map(|c| schedule.iter().filter(|s| s.conn == c).count())
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, usize)>();
    let readers: Vec<TcpStream> = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<std::io::Result<_>>()?;
    let receiver = std::thread::spawn(move || receive(readers, expected, rx, clock));
    precise_sleep_setup();
    let mut streams = streams;
    let mut sent = vec![0u64; schedule.len()];
    let mut broken = vec![false; conns];
    for (k, s) in schedule.iter().enumerate() {
        let now = clock.elapsed().as_nanos() as u64;
        if s.due_ns > now {
            std::thread::sleep(Duration::from_nanos(s.due_ns - now));
        }
        // Announce before writing so the receiver never sees an answer
        // without its request.
        let _ = tx.send((s.conn, k));
        sent[k] = clock.elapsed().as_nanos() as u64;
        if !broken[s.conn] {
            let mut framed = String::with_capacity(s.line.len() + 1);
            framed.push_str(&s.line);
            framed.push('\n');
            broken[s.conn] = streams[s.conn].write_all(framed.as_bytes()).is_err();
        }
    }
    drop(tx);
    let answers = receiver
        .join()
        .map_err(|_| std::io::Error::other("receiver thread panicked"))?;
    Ok(schedule
        .into_iter()
        .zip(sent)
        .zip(answers)
        .map(|((s, sent_ns), answer)| {
            let (response, done_ns) = match answer {
                Some((text, at)) => (text, Some(at)),
                None => (String::new(), None),
            };
            Exchange {
                conn: s.conn,
                op: s.op,
                req: s.req,
                due_ns: s.due_ns,
                sent_ns,
                done_ns,
                response,
            }
        })
        .collect())
}

/// The receiver half of [`open_loop`]: waits on both sockets, splits lines,
/// and pairs the n-th line of a connection with its n-th request.
fn receive(
    mut readers: Vec<TcpStream>,
    expected: Vec<usize>,
    announced: mpsc::Receiver<(usize, usize)>,
    clock: Instant,
) -> Vec<Option<(String, u64)>> {
    let total: usize = expected.iter().sum();
    let mut answers: Vec<Option<(String, u64)>> = vec![None; total];
    let Ok(poller) = Poller::new() else {
        return answers;
    };
    for (c, r) in readers.iter().enumerate() {
        if poller.register(r, Token(c), Interest::READABLE).is_err() {
            return answers;
        }
    }
    let mut pending: Vec<std::collections::VecDeque<usize>> =
        vec![Default::default(); readers.len()];
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); readers.len()];
    let mut received = vec![0usize; readers.len()];
    let mut open = vec![true; readers.len()];
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_progress = Instant::now();
    while (0..readers.len()).any(|c| open[c] && received[c] < expected[c]) {
        if last_progress.elapsed() > RESPONSE_TIMEOUT {
            break;
        }
        if poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .is_err()
        {
            break;
        }
        for event in &events {
            let c = event.token.0;
            if !open[c] {
                continue;
            }
            let n = match readers[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    open[c] = false;
                    let _ = poller.deregister(&readers[c]);
                    continue;
                }
                Ok(n) => n,
            };
            let at = clock.elapsed().as_nanos() as u64;
            last_progress = Instant::now();
            buffers[c].extend_from_slice(&chunk[..n]);
            while let Some(end) = buffers[c].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buffers[c].drain(..=end).collect();
                // Requests are announced before they are written, so the
                // request of this answer is already in the channel.
                while pending[c].is_empty() {
                    match announced.recv() {
                        Ok((conn, k)) => pending[conn].push_back(k),
                        Err(_) => break,
                    }
                }
                let Some(k) = pending[c].pop_front() else {
                    break;
                };
                let text = String::from_utf8_lossy(&line).trim_end().to_string();
                answers[k] = Some((text, at));
                received[c] += 1;
            }
        }
    }
    answers
}

/// Lowers this thread's timer slack so `sleep` wakes within microseconds
/// of the due time instead of the default 50 µs slack.
#[cfg(target_os = "linux")]
fn precise_sleep_setup() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the slack
    // in ns) and touches no memory of ours; failure leaves the default.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_sleep_setup() {}
