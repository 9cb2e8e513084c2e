//! Tests of the benchmark itself: the generator, the percentile rule, the
//! open-loop due-time accounting, and the oracle.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use lsc_core::engine::PreparedInstance;
use lsc_core::serve::{ServeConfig, Server};
use lsc_perfbench::gen::{self, Family, Form, OpStream, Workload};
use lsc_perfbench::load::{self, Exchange, Req, Scheduled};
use lsc_perfbench::oracle::{engine_config, Oracle};
use lsc_perfbench::stats;

const WORKLOADS: [Workload; 3] = [
    Workload::WarmZipf,
    Workload::ColdChurn,
    Workload::RoutedStream,
];

#[test]
fn same_seed_same_op_log_and_digest() {
    for w in WORKLOADS {
        let a: Vec<_> = OpStream::new(w, 11, 0, 100.0).take(2000).collect();
        let b: Vec<_> = OpStream::new(w, 11, 0, 100.0).take(2000).collect();
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(
            gen::digest(w, 11, 100.0, 500),
            gen::digest(w, 11, 100.0, 500)
        );
    }
}

#[test]
fn different_seeds_give_different_op_logs() {
    for w in WORKLOADS {
        let digests: HashSet<u64> = (0..8).map(|seed| gen::digest(w, seed, 0.0, 500)).collect();
        assert_eq!(digests.len(), 8, "{}", w.name());
        let a: Vec<_> = OpStream::new(w, 1, 0, 0.0).take(500).collect();
        let b: Vec<_> = OpStream::new(w, 2, 0, 0.0).take(500).collect();
        assert_ne!(a, b);
    }
}

#[test]
fn clients_of_one_run_get_different_streams() {
    let a: Vec<_> = OpStream::new(Workload::RoutedStream, 3, 0, 0.0)
        .take(200)
        .collect();
    let b: Vec<_> = OpStream::new(Workload::RoutedStream, 3, 1, 0.0)
        .take(200)
        .collect();
    assert_ne!(a, b);
}

#[test]
fn selection_function_is_injective() {
    for w in WORKLOADS {
        let specs = w.shape().universe();
        let fps: HashSet<u64> = specs
            .iter()
            .map(|s| PreparedInstance::instance_fingerprint(&s.nfa(), s.length))
            .collect();
        assert_eq!(fps.len(), specs.len(), "{}", w.name());
    }
}

#[test]
fn families_take_their_count_routes() {
    for w in WORKLOADS {
        for spec in w.shape().universe() {
            let inst = PreparedInstance::new(spec.nfa(), spec.length);
            let small_dfa = lsc_automata::ops::determinize_capped(inst.nfa(), 4096).is_some();
            match spec.family {
                Family::Unambiguous => assert!(inst.is_unambiguous(), "{spec:?}"),
                Family::Determinized => {
                    assert!(!inst.is_unambiguous() && small_dfa, "{spec:?}")
                }
                Family::Fpras => assert!(!inst.is_unambiguous() && !small_dfa, "{spec:?}"),
            }
        }
    }
}

#[test]
fn cold_churn_mixes_forms_and_text_sizes() {
    let specs = Workload::ColdChurn.shape().universe();
    let texts: Vec<usize> = specs
        .iter()
        .filter(|s| s.form == Form::NfaText)
        .map(|s| s.nfa_text().len())
        .collect();
    assert!(texts.len() * 3 > specs.len(), "about half use nfa_text");
    let (min, max) = (texts.iter().min().unwrap(), texts.iter().max().unwrap());
    assert!(*min < 600 && *max > 4000, "text sizes {min}..{max}");
    let fpras = specs.iter().filter(|s| s.family == Family::Fpras).count();
    assert_eq!(fpras * 10, specs.len());
}

#[test]
fn every_rank_is_drawn_at_its_zipf_rate() {
    // Cold-churn's rarest ranks have a share of well under one op per
    // stratified block; they must still be drawn, at their Zipf rate.
    let w = Workload::ColdChurn;
    let size = w.shape().size;
    let blocks = 200;
    let stream = OpStream::new(w, 9, 0, 0.0);
    let rank_of: std::collections::HashMap<usize, usize> =
        (0..size).map(|r| (stream.index_of_rank(r), r)).collect();
    let mut hits = vec![0usize; size];
    for op in stream.take(blocks * 400) {
        hits[rank_of[&op.inst]] += 1;
    }
    let weights: Vec<f64> = (0..size)
        .map(|r| 1.0 / ((r + 1) as f64).powf(w.zipf_s()))
        .collect();
    let total: f64 = weights.iter().sum();
    for (r, &n) in hits.iter().enumerate() {
        let expected = weights[r] / total * (blocks * 400) as f64;
        assert!(n > 0, "rank {r} never drawn");
        assert!(
            (n as f64 - expected).abs() <= 4.0 * expected.sqrt() + 1.0,
            "rank {r}: {n} draws, expected {expected:.1}"
        );
    }
}

#[test]
fn warm_zipf_schedule_is_poisson_at_the_offered_rate() {
    let ops: Vec<_> = OpStream::new(Workload::WarmZipf, 5, 0, 1000.0)
        .take(20_000)
        .collect();
    let span_s = ops.last().unwrap().due_ns as f64 / 1e9;
    let rate = ops.len() as f64 / span_s;
    assert!((rate / 1000.0 - 1.0).abs() < 0.05, "rate {rate}");
    assert!(ops.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    // count_exact only on unambiguous instances.
    let shape = Workload::WarmZipf.shape();
    for op in &ops {
        if op.verb == gen::Verb::CountExact {
            assert_eq!(shape.family_of(op.inst), Family::Unambiguous);
        }
    }
}

#[test]
fn median_and_tail_follow_the_rule() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let m = stats::median(&v).unwrap();
    assert_eq!((m.value, m.samples), (500.0, 1000));
    // n = 1000: p99 is rank 990 and leaves exactly 10 beyond it.
    let t = stats::tail(&v).unwrap();
    assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
    // n = 500: p99 would leave 5 beyond; the rule backs off to rank 490.
    let v: Vec<f64> = (1..=500).map(f64::from).collect();
    let t = stats::tail(&v).unwrap();
    assert_eq!(t.value, 490.0);
    assert!((t.percentile - 98.0).abs() < 1e-9);
    assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    // Ten samples or fewer cannot leave ten beyond: the maximum, as p100.
    let t = stats::tail(&[3.0, 1.0, 2.0]).unwrap();
    assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
    assert!(stats::tail(&[]).is_none());
    // Order of the input does not matter.
    let mut shuffled: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    shuffled.swap(3, 700);
    assert_eq!(stats::tail(&shuffled).unwrap().value, 990.0);
}

/// A stub server that answers every line with `{"ok":true}`, but holds
/// its first answer back for `stall`.
fn stalled_stub(stall: Duration) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        let mut first = true;
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if first {
                std::thread::sleep(stall);
                first = false;
            }
            if writer.write_all(b"{\"ok\":true}\n").is_err() {
                break;
            }
            line.clear();
        }
    });
    (addr, handle)
}

#[test]
fn open_loop_charges_a_stall_to_every_request_due_during_it() {
    let stall = Duration::from_millis(300);
    let (addr, stub) = stalled_stub(stall);
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let clock = Instant::now();
    let start = clock.elapsed().as_nanos() as u64 + 5_000_000;
    let gap = 20_000_000u64;
    let schedule: Vec<Scheduled> = (0..25)
        .map(|k| Scheduled {
            conn: 0,
            op: k,
            req: Req::Count(0),
            line: r#"{"op":"count","session":"s1"}"#.to_string(),
            due_ns: start + k * gap,
        })
        .collect();
    let log = load::open_loop(vec![stream], schedule, clock).unwrap();
    stub.join().unwrap();
    assert_eq!(log.len(), 25);
    let stall_end = log[0].sent_ns + stall.as_nanos() as u64;
    for ex in &log {
        assert!(ex.ok(), "{ex:?}");
        let done = ex.done_ns.unwrap();
        // Sends keep to the schedule while the server is stalled...
        assert!(
            ex.sent_ns - ex.due_ns < 50_000_000,
            "send {} ms late",
            (ex.sent_ns - ex.due_ns) / 1_000_000
        );
        // ...and every request due during the stall is charged the wait
        // from its due time, not from when a closed loop would have sent it.
        if ex.due_ns < stall_end {
            assert!(done >= stall_end, "answered before the stall ended");
            assert!(done - ex.due_ns >= stall_end - ex.due_ns);
        }
    }
    // The requests due early in the stall wait the longest.
    let first = log[0].done_ns.unwrap() - log[0].due_ns;
    let later = log[5].done_ns.unwrap() - log[5].due_ns;
    assert!(first > later + 4 * gap - 10_000_000);
}

/// Answers `reqs` with a real in-process server and wraps them as the load
/// generator would record them.
fn answered(server: &Server, specs: &[gen::InstanceSpec], reqs: Vec<Req>) -> Vec<Exchange> {
    let conn = server.open_conn();
    let mut sessions = load::Sessions::default();
    let mut log = Vec::new();
    for req in reqs {
        let line = req.line(specs, sessions.name(req.inst()));
        let reply = server.handle_line(conn, &line);
        let ex = Exchange {
            conn: 0,
            op: 0,
            req,
            due_ns: 0,
            sent_ns: 0,
            done_ns: Some(1),
            response: reply.text,
        };
        load::note(&mut sessions, &ex.req, &ex.response);
        log.push(ex);
    }
    log
}

fn oracle_fixture() -> (Vec<gen::InstanceSpec>, Vec<Exchange>) {
    let specs = Workload::WarmZipf.shape().universe();
    let server = Server::new(ServeConfig {
        engine: engine_config(None),
        ..ServeConfig::default()
    })
    .unwrap();
    // Instance 0 is unambiguous, 5 determinized, 9 FPRAS.
    let mut reqs = Vec::new();
    for inst in [0, 5, 9] {
        reqs.extend([
            Req::Prepare(inst),
            Req::Count(inst),
            Req::Enumerate(inst, 16),
            Req::Enumerate(inst, 16),
            Req::Sample(inst, 4, 3),
        ]);
    }
    reqs.push(Req::CountExact(0));
    let log = answered(&server, &specs, reqs);
    server.shutdown();
    (specs, log)
}

#[test]
fn oracle_accepts_genuine_answers() {
    let (specs, log) = oracle_fixture();
    let verified = Oracle::new(&specs, engine_config(None))
        .check_all(&log)
        .unwrap();
    assert_eq!(verified.answers, log.len());
    assert!(verified.witnesses >= 3 * (32 + 4));
    assert_eq!(verified.fpras_instances, 1);
}

#[test]
fn oracle_rejects_a_corrupted_count() {
    let (specs, mut log) = oracle_fixture();
    let count = log.iter_mut().find(|ex| ex.req == Req::Count(0)).unwrap();
    let value = load::string_field(&count.response, "count")
        .unwrap()
        .to_string();
    let wrong = (value.parse::<u128>().unwrap() + 1).to_string();
    count.response = count.response.replace(
        &format!("\"count\":\"{value}\""),
        &format!("\"count\":\"{wrong}\""),
    );
    let err = Oracle::new(&specs, engine_config(None))
        .check_all(&log)
        .unwrap_err();
    assert!(
        err.starts_with("wrong answer") && err.contains("count"),
        "{err}"
    );
}

#[test]
fn oracle_rejects_a_corrupted_page() {
    let (specs, mut log) = oracle_fixture();
    // Second page of the determinized instance: flip one witness bit.
    let page = log
        .iter_mut()
        .filter(|ex| ex.req == Req::Enumerate(5, 16))
        .nth(1)
        .unwrap();
    let at = page.response.find("\"words\":[\"").unwrap() + 10;
    let mut bytes = page.response.clone().into_bytes();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    page.response = String::from_utf8(bytes).unwrap();
    let err = Oracle::new(&specs, engine_config(None))
        .check_all(&log)
        .unwrap_err();
    assert!(
        err.starts_with("wrong answer") && err.contains("words"),
        "{err}"
    );
}

#[test]
fn oracle_rejects_a_repeated_page() {
    let (specs, mut log) = oracle_fixture();
    // A server that served the first page twice breaks the stitched order.
    let pages: Vec<usize> = log
        .iter()
        .enumerate()
        .filter(|(_, ex)| ex.req == Req::Enumerate(0, 16))
        .map(|(i, _)| i)
        .collect();
    log[pages[1]].response = log[pages[0]].response.clone();
    assert!(Oracle::new(&specs, engine_config(None))
        .check_all(&log)
        .is_err());
}
