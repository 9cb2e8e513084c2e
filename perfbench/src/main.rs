//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --nfa-tool <path> --work-dir <dir>`: one benchmark run. The last line of
//! standard output is the result object with every metric of the run
//! (end-to-end untraced, per-layer traced); the lines before it are the
//! metric tables. Exit status 1 on a wrong answer, 2 on a usage or set-up
//! error. `perfbench analyze <span dump>` recomputes the per-layer metrics
//! of a traced run from its span dump.

use std::path::PathBuf;
use std::process::ExitCode;

use lsc_perfbench::gen::Workload;
use lsc_perfbench::run::{self, Env};
use lsc_perfbench::trace;

/// A run must end well inside the 180 s a run is allowed.
const WATCHDOG_SECS: u64 = 170;

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload warm-zipf|cold-churn|routed-stream --seed N --seconds S \
         --trace 0|1 --nfa-tool PATH --work-dir DIR\n       perfbench analyze SPANS.jsonl"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("analyze") {
        let Some(path) = args.get(1) else {
            return usage("analyze needs a span dump");
        };
        return match std::fs::read_to_string(path) {
            Ok(text) => match trace::Dump::parse(&text) {
                Ok(dump) => {
                    let report = dump.layer_report();
                    report.print_table(&format!("per-layer metrics from {path}"));
                    println!("{}", report.result_line(true, dump.requests(), 0));
                    ExitCode::SUCCESS
                }
                Err(e) => usage(&format!("bad span dump: {e}")),
            },
            Err(e) => usage(&format!("cannot read {path}: {e}")),
        };
    }
    let mut opts = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return usage(&format!("unexpected argument {key:?}"));
        };
        let Some(value) = it.next() else {
            return usage(&format!("{key} needs a value"));
        };
        opts.insert(name.to_string(), value.clone());
    }
    let Some(workload) = opts.get("workload").and_then(|w| Workload::parse(w)) else {
        return usage("--workload must be warm-zipf, cold-churn or routed-stream");
    };
    let Some(seed) = opts.get("seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a whole number");
    };
    let Some(seconds) = opts
        .get("seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("--seconds must be positive");
    };
    let traced = match opts.get("trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return usage(&format!("--trace must be 0 or 1, got {other:?}")),
    };
    let Some(nfa_tool) = opts.get("nfa-tool").map(PathBuf::from) else {
        return usage("--nfa-tool is required");
    };
    let Some(work_root) = opts.get("work-dir").map(PathBuf::from) else {
        return usage("--work-dir is required");
    };
    if !nfa_tool.is_file() {
        return usage(&format!("no nfa_tool at {}", nfa_tool.display()));
    }
    let work = work_root.join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        return usage(&format!("cannot create {}: {e}", work.display()));
    }
    // The watchdog ends a wedged run. On the normal paths child processes
    // are stopped by their guards; `exit` runs no destructors, so it kills
    // them itself.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("perfbench: watchdog expired");
        lsc_perfbench::procs::kill_all();
        std::process::exit(3);
    });
    let env = Env {
        nfa_tool,
        work: work.clone(),
    };
    println!(
        "# workload {} seed {seed} seconds {seconds} trace {} oplog_digest {:016x}",
        workload.name(),
        u8::from(traced),
        run::digest(workload, seed)
    );
    let result = if traced {
        trace::run_traced(workload, seed, seconds, &env)
    } else {
        run::run(workload, seed, seconds, &env).map(|o| (o, None))
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok((outcome, layers)) => {
            println!(
                "# oracle: {} answers, {} witnesses checked, FPRAS max rel err {:.4} over {} instances",
                outcome.verified.answers,
                outcome.verified.witnesses,
                outcome.verified.fpras_rel_err_max,
                outcome.verified.fpras_instances
            );
            outcome
                .report
                .print_table(&format!("{} end-to-end metrics", workload.name()));
            // The result line carries every metric of the run's kind;
            // `run.py` keeps the ones `BENCHMARK.json` lists.
            let result = match &layers {
                Some(layers) => {
                    layers.print_table(&format!("{} per-layer metrics", workload.name()));
                    layers
                }
                None => &outcome.report,
            };
            let correct = outcome.wrong.is_none();
            println!(
                "{}",
                result.result_line(correct, outcome.attempted.max(1), outcome.failed)
            );
            match outcome.wrong {
                None => ExitCode::SUCCESS,
                Some(wrong) => {
                    eprintln!("perfbench: {wrong}");
                    ExitCode::from(1)
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
