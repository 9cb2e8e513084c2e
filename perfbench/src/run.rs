//! One untraced run of a workload: set up the servers several times (the
//! last set-up is driven), drive the measured window, stop the servers,
//! check every answer with the oracle, and derive the end-to-end metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lsc_core::serve::json;

use crate::gen::{self, InstanceSpec, OpStream, Workload};
use crate::load::{self, Exchange, LineConn, Req, Scheduled, Sessions};
use crate::metrics::Report;
use crate::oracle::{self, Oracle, Verified};
use crate::procs::{self, Proc, ServeOpts};

/// Set-ups per run; `setup_s` and `setup_wall_s` are their medians.
pub const SETUPS: usize = 9;

/// Open-loop offered rate of warm-zipf, ops/s over both connections.
pub const WARM_RATE: f64 = 4000.0;

/// Reduced cache cap of cold-churn, MiB.
pub const COLD_CACHE_MB: usize = 2;

/// Instances warmed by a cold-churn set-up: the hottest ranks, in whole
/// blocks of ten, so that every seed warms the same instances (the rank
/// permutation stays within a block) and set-up costs the same.
const COLD_WARM: usize = 20;

/// How far ahead of "now" the measured window starts, so both clients
/// (or the open-loop sender) are ready when the first op is due.
const LEAD_NS: u64 = 1_000_000;

/// Op-log prefix the digest covers.
pub const DIGEST_OPS: usize = 4096;

/// Where a run reads its binaries and keeps its scratch files.
pub struct Env {
    /// The release `nfa_tool`.
    pub nfa_tool: PathBuf,
    /// Scratch directory (snapshot stores, span dumps), inside the checkout.
    pub work: PathBuf,
}

/// A set-up: the server-side processes, the client connections with their
/// session books, and what the warm-up exchanged.
pub struct Cluster {
    /// Backends first, then the router (if any).
    pub procs: Vec<Proc>,
    /// Client connections.
    pub conns: Vec<LineConn>,
    /// One session book per connection.
    pub sessions: Vec<Sessions>,
    /// Warm-up exchanges.
    pub log: Vec<Exchange>,
    /// Wall time of the set-up, s.
    pub seconds: f64,
    /// CPU time the server-side processes spent from their start to the
    /// end of the warm-up, s.
    pub cpu_seconds: f64,
}

/// The `serve` options of a workload (`snapshot_dir` under `dir`).
pub fn serve_opts(workload: Workload, dir: &Path) -> ServeOpts {
    match workload {
        Workload::ColdChurn => ServeOpts {
            cache_mb: Some(COLD_CACHE_MB),
            snapshot_dir: Some(dir.join("snap")),
        },
        _ => ServeOpts::default(),
    }
}

/// The cache cap the servers of `workload` run with.
pub fn cache_mb(workload: Workload) -> Option<usize> {
    (workload == Workload::ColdChurn).then_some(COLD_CACHE_MB)
}

/// Starts the workload's processes and runs its warm-up. `conn_base`
/// offsets connection ids so several set-ups keep distinct ids.
pub fn setup(
    workload: Workload,
    seed: u64,
    specs: &[InstanceSpec],
    env: &Env,
    dir: &Path,
    conn_base: usize,
    clock: Instant,
) -> std::io::Result<Cluster> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let started = Instant::now();
    let opts = serve_opts(workload, dir);
    let mut procs = vec![procs::spawn_serve(&env.nfa_tool, &opts)?];
    if workload == Workload::RoutedStream {
        procs.push(procs::spawn_serve(&env.nfa_tool, &opts)?);
        let router = procs::spawn_route(&env.nfa_tool, &[&procs[0], &procs[1]])?;
        procs.push(router);
    }
    let front = procs.last().expect("at least one process").addr.clone();
    let clients = workload.clients();
    let mut conns = Vec::new();
    for _ in 0..clients {
        conns.push(LineConn::connect(&front)?);
    }
    let mut sessions: Vec<Sessions> = (0..clients).map(|_| Sessions::default()).collect();
    let mut log = Vec::new();
    let warm: Vec<usize> = match workload {
        Workload::ColdChurn => {
            let stream = OpStream::new(workload, seed, 0, 0.0);
            (0..COLD_WARM).map(|r| stream.index_of_rank(r)).collect()
        }
        _ => (0..specs.len()).collect(),
    };
    for c in 0..clients {
        for &inst in &warm {
            let mut reqs = vec![Req::Prepare(inst)];
            if c == 0 {
                // The first client compiles: first answer, then the
                // sampler (and the sketch, on ambiguous instances).
                reqs.push(Req::Count(inst));
                if workload == Workload::ColdChurn {
                    reqs.push(Req::Close(inst));
                } else {
                    reqs.push(Req::Sample(inst, 1, 0));
                }
            }
            for req in reqs {
                let ex = load::exchange(
                    &mut conns[c],
                    conn_base + c,
                    0,
                    req,
                    specs,
                    &mut sessions[c],
                    clock,
                );
                if !ex.ok() {
                    return Err(std::io::Error::other(format!(
                        "set-up request failed: {:?} -> {:?}",
                        ex.req, ex.response
                    )));
                }
                log.push(ex);
            }
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    let cpu_seconds = procs.iter().map(Proc::cpu_ns).sum::<u64>() as f64 / 1e9;
    Ok(Cluster {
        procs,
        conns,
        sessions,
        log,
        seconds,
        cpu_seconds,
    })
}

/// Drives the measured window on a set-up cluster; returns the exchanges
/// and the window start (ns on `clock`).
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    specs: &[InstanceSpec],
    cluster: &mut Cluster,
    conn_base: usize,
    clock: Instant,
) -> std::io::Result<(Vec<Exchange>, u64)> {
    let window_ns = (seconds * 1e9) as u64;
    match workload {
        Workload::WarmZipf => {
            // Build the whole schedule with due times relative to the
            // window, then start the window: building it must not make
            // the first requests late.
            let mut schedule = Vec::new();
            for c in 0..2 {
                let stream = OpStream::new(workload, seed, c, WARM_RATE / 2.0);
                for (n, op) in stream.enumerate() {
                    if op.due_ns >= window_ns {
                        break;
                    }
                    for req in load::requests(&op, &cluster.sessions[c]) {
                        schedule.push(Scheduled {
                            conn: c,
                            op: n as u64,
                            line: req.line(specs, cluster.sessions[c].name(req.inst())),
                            req,
                            due_ns: op.due_ns,
                        });
                    }
                }
            }
            schedule.sort_by_key(|s| s.due_ns);
            let start_ns = clock.elapsed().as_nanos() as u64 + LEAD_NS;
            for s in &mut schedule {
                s.due_ns += start_ns;
            }
            // The connections stay open past the window, so the server
            // threads serving them (and their CPU time) are still there
            // when the window's CPU time is read.
            let streams = cluster
                .conns
                .iter()
                .map(LineConn::stream)
                .collect::<std::io::Result<_>>()?;
            let mut log = load::open_loop(streams, schedule, clock)?;
            for ex in &mut log {
                ex.conn += conn_base;
            }
            Ok((log, start_ns))
        }
        Workload::ColdChurn | Workload::RoutedStream => {
            let start_ns = clock.elapsed().as_nanos() as u64 + LEAD_NS;
            let deadline = Duration::from_nanos(start_ns + window_ns);
            let mut logs: Vec<Vec<Exchange>> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = cluster
                    .conns
                    .iter_mut()
                    .zip(cluster.sessions.iter_mut())
                    .enumerate()
                    .map(|(c, (conn, sessions))| {
                        scope.spawn(move || {
                            while clock.elapsed() < Duration::from_nanos(start_ns) {
                                std::thread::yield_now();
                            }
                            let stream = OpStream::new(workload, seed, c, 0.0);
                            load::closed_loop(
                                conn,
                                conn_base + c,
                                stream,
                                specs,
                                sessions,
                                clock,
                                deadline,
                            )
                        })
                    })
                    .collect();
                for h in handles {
                    logs.push(h.join().unwrap_or_default());
                }
            });
            Ok((logs.into_iter().flatten().collect(), start_ns))
        }
    }
}

/// The op units of a log: every answer a client waits for, with a
/// cold-churn `prepare` folded into its `count` and `close` not counted.
struct Unit<'a> {
    ex: &'a Exchange,
    /// When the operation started (due time, or its `prepare`'s send).
    start_ns: u64,
    failed: bool,
}

fn units(log: &[Exchange]) -> Vec<Unit<'_>> {
    // Cold-churn groups: (conn, op) → (prepare send time, any failure in
    // its prepare/close).
    let mut groups: HashMap<(usize, u64), (u64, bool)> = HashMap::new();
    for ex in log {
        if matches!(ex.req, Req::Prepare(_) | Req::Close(_)) {
            let g = groups.entry((ex.conn, ex.op)).or_insert((ex.due_ns, false));
            if matches!(ex.req, Req::Prepare(_)) {
                g.0 = ex.due_ns;
            }
            g.1 |= !ex.ok();
        }
    }
    log.iter()
        .filter(|ex| !matches!(ex.req, Req::Prepare(_) | Req::Close(_)))
        .map(|ex| {
            let group = match ex.req {
                Req::Count(_) => groups.get(&(ex.conn, ex.op)).copied(),
                _ => None,
            };
            Unit {
                ex,
                start_ns: group.map_or(ex.due_ns, |g| g.0),
                failed: !ex.ok() || group.is_some_and(|g| g.1),
            }
        })
        .collect()
}

/// Time from each fresh `prepare` (engine miss: `"cached":false`) to the
/// first `count` answer on the same connection, in ns.
pub fn first_answers(log: &[Exchange]) -> Vec<f64> {
    let mut pending: HashMap<(usize, usize), u64> = HashMap::new();
    let mut out = Vec::new();
    for ex in log.iter().filter(|ex| ex.ok()) {
        match ex.req {
            Req::Prepare(inst) if ex.response.contains(r#""cached":false"#) => {
                pending.insert((ex.conn, inst), ex.sent_ns);
            }
            Req::Count(inst) => {
                if let (Some(sent), Some(done)) = (pending.remove(&(ex.conn, inst)), ex.done_ns) {
                    out.push((done - sent) as f64);
                }
            }
            _ => {}
        }
    }
    out
}

/// The `"returned"` count of a page answer.
fn returned(response: &str) -> u64 {
    response
        .find(r#""returned":"#)
        .map(|at| &response[at + 11..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// Outcome of an untraced run.
pub struct Outcome {
    /// The end-to-end metrics.
    pub report: Report,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Of which failed (error answer, overload, deadline, timeout).
    pub failed: u64,
    /// What the oracle verified.
    pub verified: Verified,
    /// How far sends ran behind schedule (open loop), ns.
    pub late_ns: Vec<f64>,
    /// Server-side `stats` answers collected after the window.
    pub stats: Vec<String>,
    /// The first wrong answer the oracle found, if any.
    pub wrong: Option<String>,
}

/// Runs the workload untraced: `SETUPS` set-ups, one measured window.
///
/// # Errors
/// Infrastructure failures (a process that does not start). Wrong answers
/// are reported in [`Outcome::wrong`].
pub fn run(workload: Workload, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    let specs = workload.shape().universe();
    let clock = Instant::now();
    let mut setup_cpu_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut setup_logs = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for r in 0..SETUPS {
        let dir = env.work.join(format!("setup{r}"));
        // Stop the previous set-up's processes before starting the next.
        if let Some(mut previous) = cluster.take() {
            setup_logs.push(std::mem::take(&mut previous.log));
        }
        let c =
            setup(workload, seed, &specs, env, &dir, 10 * r, clock).map_err(|e| e.to_string())?;
        setup_cpu_s.push(c.cpu_seconds);
        setup_wall_s.push(c.seconds);
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("SETUPS > 0");
    let conn_base = 10 * (SETUPS - 1);
    let cpu_before: u64 = cluster.procs.iter().map(Proc::cpu_ns).sum();
    let (log, start_ns) = measure(
        workload,
        seed,
        seconds,
        &specs,
        &mut cluster,
        conn_base,
        clock,
    )
    .map_err(|e| e.to_string())?;
    let cpu_s = cluster
        .procs
        .iter()
        .map(Proc::cpu_ns)
        .sum::<u64>()
        .saturating_sub(cpu_before) as f64
        / 1e9;
    let stats = collect_stats(&cluster);
    // The workloads assume a healthy fleet: a router that failed over
    // measured something else.
    let failovers: u64 = stats
        .iter()
        .filter_map(|s| json::parse(s).ok())
        .filter_map(|s| s.get("router")?.get("failovers")?.as_u64())
        .sum();
    if failovers > 0 {
        return Err(format!(
            "the router failed over {failovers} times during the window"
        ));
    }
    let rss_kib: u64 = cluster.procs.iter().map(Proc::peak_rss_kib).sum();
    setup_logs.push(std::mem::take(&mut cluster.log));
    drop(cluster);

    // Every answer of every set-up and of the window goes through the oracle.
    let mut oracle = Oracle::new(&specs, oracle::engine_config(cache_mb(workload)));
    let mut all: Vec<Exchange> = setup_logs.concat();
    let mut by_conn = log.clone();
    by_conn.sort_by_key(|ex| (ex.conn, ex.sent_ns));
    all.extend(by_conn);
    let (verified, wrong) = match oracle.check_all(&all) {
        Ok(verified) => (verified, None),
        Err(wrong) => (Verified::default(), Some(wrong)),
    };

    let units = units(&log);
    let attempted = units.len() as u64;
    let failed = units.iter().filter(|u| u.failed).count() as u64;
    let end_ns = log
        .iter()
        .filter_map(|ex| ex.done_ns)
        .max()
        .unwrap_or(start_ns + 1);
    let window_s = (end_ns.saturating_sub(start_ns)).max(1) as f64 / 1e9;
    let lat = |pred: &dyn Fn(&Req) -> bool| -> Vec<f64> {
        units
            .iter()
            .filter(|u| !u.failed && pred(&u.ex.req))
            .map(|u| (u.ex.done_ns.expect("ok") - u.ex.due_ns) as f64)
            .collect()
    };
    let all_lat: Vec<f64> = units
        .iter()
        .filter(|u| !u.failed)
        .map(|u| (u.ex.done_ns.expect("ok") - u.start_ns) as f64)
        .collect();
    // Fresh prepares in the window (cold-churn); workloads whose window
    // prepares nothing report the set-ups' first answers.
    let mut first = first_answers(&log);
    if first.is_empty() {
        first = first_answers(&all);
    }
    let witnesses: u64 = log
        .iter()
        .filter(|ex| ex.ok() && matches!(ex.req, Req::Enumerate(..) | Req::Resume(..)))
        .map(|ex| returned(&ex.response))
        .sum();

    let mut report = Report::default();
    report.value("setup_s", median(&mut setup_cpu_s), "s");
    report.value("setup_wall_s", median(&mut setup_wall_s), "s");
    report.value(
        "throughput_ops_s",
        (attempted - failed) as f64 / window_s,
        "1/s",
    );
    report.p50_p99("latency", &all_lat, 1e-3, "us");
    report.p50_p99("count", &lat(&|r| matches!(r, Req::Count(_))), 1e-3, "us");
    report.p50_p99(
        "enumerate",
        &lat(&|r| matches!(r, Req::Enumerate(..) | Req::Resume(..))),
        1e-3,
        "us",
    );
    report.p50_p99(
        "sample",
        &lat(&|r| matches!(r, Req::Sample(..))),
        1e-3,
        "us",
    );
    report.p50_p99("first_answer", &first, 1e-6, "ms");
    report.value("witnesses_per_s", witnesses as f64 / window_s, "1/s");
    report.value(
        "ok_ratio",
        if attempted == 0 {
            0.0
        } else {
            (attempted - failed) as f64 / attempted as f64
        },
        "ratio",
    );
    report.value(
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    report.value("rss_peak_mb", rss_kib as f64 / 1024.0, "MB");
    report.value(
        "server_cpu_us_per_op",
        cpu_s * 1e6 / (attempted - failed).max(1) as f64,
        "us",
    );
    let late_ns: Vec<f64> = log
        .iter()
        .map(|ex| ex.sent_ns.saturating_sub(ex.due_ns) as f64)
        .collect();
    Ok(Outcome {
        report,
        attempted,
        failed,
        verified,
        late_ns,
        stats,
        wrong,
    })
}

/// The median of a non-empty list (the upper one of an even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// `stats` answers from every process of a cluster (backends, then the
/// router), over fresh connections.
pub fn collect_stats(cluster: &Cluster) -> Vec<String> {
    cluster
        .procs
        .iter()
        .filter_map(|p| {
            LineConn::connect(&p.addr)
                .and_then(|mut c| c.call(r#"{"op":"stats"}"#))
                .ok()
        })
        .collect()
}

/// The op-log digest of a run.
pub fn digest(workload: Workload, seed: u64) -> u64 {
    let rate = if workload == Workload::WarmZipf {
        WARM_RATE / 2.0
    } else {
        0.0
    };
    gen::digest(workload, seed, rate, DIGEST_OPS)
}
