//! The repository's one repeatable benchmark. See README.md.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--out <file>]
//! benchmark --all [--seed <u64>] [--seconds <s>] [--out <file>]
//! benchmark compare <base.jsonl> <change.jsonl>
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. A failed output
//! check makes the exit code non-zero.

mod config;
mod gen;
mod host;
mod layers;
mod levels;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::io::Write;
use std::process::ExitCode;

use serde::Value;

use config::{DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, QUICK_SECONDS, WORKLOADS};
use report::{Args, Outcome};
use stats::obj;

fn usage() -> String {
    format!(
        "usage: benchmark --workload <{}> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
       benchmark --all [--seed <u64>] [--seconds <s>] [--out <file>]
       benchmark compare <base.jsonl> <change.jsonl>
seeds: default {DEFAULT_SEED}; held out for later claims {HELD_OUT_SEED}",
        WORKLOADS.join("|")
    )
}

fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "serve_closed" => serve::run_closed(args),
        "serve_open" => serve::run_open(args),
        "train_net" => train::run_train_net(args),
        "train_cnn" => train::run_train_cnn(args),
        other => unreachable!("workload {other} was validated"),
    }
}

fn setup_probe(workload: &str, seed: u64) -> f64 {
    match workload {
        "serve_closed" | "serve_open" => serve::setup_probe(workload, seed),
        "train_net" => train::net_setup_probe(seed),
        _ => train::cnn_setup_probe(seed),
    }
}

fn metrics_value(outcome: &Outcome) -> Value {
    Value::Map(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", stats::num(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The names a run must report, in order.
fn expected_names(trace: bool) -> Vec<&'static str> {
    if trace {
        layers::PER_LAYER.iter().map(|(n, _, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    }
}

/// Puts the metrics in the order `BENCHMARK.json` declares them; a run
/// that reports another set than declared is a bug in the benchmark.
fn in_declared_order(mut outcome: Outcome, trace: bool) -> Outcome {
    let declared = expected_names(trace);
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "the run reported another number of metrics than declared"
    );
    outcome.metrics.sort_by_key(|m| {
        declared
            .iter()
            .position(|d| *d == m.name)
            .unwrap_or_else(|| panic!("{} is not a declared metric", m.name))
    });
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names, declared,
        "a declared metric was reported twice or not at all"
    );
    outcome
}

/// Prints every metric by name with its unit, the detail and host
/// blocks, and — last — the result line. Returns whether the run was
/// correct.
fn report(args: &Args, outcome: &Outcome, out_path: Option<&str>) -> bool {
    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("  {:<34} {:>16}", "ops_attempted", outcome.attempted);
    println!("  {:<34} {:>16}", "ops_failed", outcome.failed);
    let json = |v: &Value| serde_json::to_string(v).expect("result serializes");
    let host = host::host_block();
    println!("detail {}", json(&outcome.detail));
    println!("host {}", json(&host));
    let metrics = metrics_value(outcome);
    if let Some(path) = out_path {
        let full = obj(vec![
            ("workload", Value::Str(args.workload.clone())),
            ("seed", Value::U64(args.seed)),
            ("seconds", Value::F64(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            ("correct", Value::Bool(correct)),
            ("attempted", Value::U64(outcome.attempted)),
            ("failed", Value::U64(outcome.failed)),
            ("metrics", metrics.clone()),
            ("detail", outcome.detail.clone()),
            ("host", host),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open the --out file");
        writeln!(file, "{}", json(&full)).expect("append the result");
    }
    println!(
        "{}",
        json(&obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::U64(outcome.attempted.max(1))),
            ("failed", Value::U64(outcome.failed)),
            ("metrics", metrics),
        ]))
    );
    correct
}

/// `--all`: one fresh process per workload, in sequence.
fn run_all(seed: u64, seconds: f64, out_path: Option<&str>) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for workload in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
        if let Some(path) = out_path {
            cmd.args(["--out", path]);
        }
        let status = cmd.status().expect("spawn a workload");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(base: &str, change: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
    match stats::compare(&read(base), &read(change)) {
        Ok((table, breached)) => {
            print!("{table}");
            if breached {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return match argv.as_slice() {
            [_, base, change] => compare(base, change),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        quick: false,
        inject_wrong_answer: false,
    };
    let (mut all, mut probe, mut out_path) = (false, false, None);
    let mut it = argv.iter();
    let bad = |what: &str| -> ExitCode {
        eprintln!("{what}\n{}", usage());
        ExitCode::from(2)
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match flag.as_str() {
            "--workload" => match value() {
                Some(w) if WORKLOADS.contains(&w) => args.workload = w.to_string(),
                _ => return bad("--workload needs one of the four workload names"),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(s) => args.seed = s,
                None => return bad("--seed needs a u64"),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s <= 60.0 => args.seconds = s,
                _ => return bad("--seconds needs a number in (0, 60]"),
            },
            "--trace" => match value() {
                Some("0") => args.trace = false,
                Some("1") => args.trace = true,
                _ => return bad("--trace needs 0 or 1"),
            },
            "--out" => match value() {
                Some(p) => out_path = Some(p.to_string()),
                None => return bad("--out needs a path"),
            },
            "--quick" => args.quick = true,
            "--all" => all = true,
            "--setup-probe" => probe = true,
            "--inject-wrong-answer" => args.inject_wrong_answer = true,
            other => return bad(&format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    if all {
        return run_all(args.seed, args.seconds, out_path.as_deref());
    }
    if args.workload.is_empty() {
        return bad("no --workload given");
    }
    if probe {
        println!("{:?}", setup_probe(&args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    let outcome = in_declared_order(run_workload(&args), args.trace);
    if report(&args, &outcome, out_path.as_deref()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, trace: bool, inject_wrong_answer: bool) -> Outcome {
        let args = Args {
            workload: workload.into(),
            seed: DEFAULT_SEED,
            seconds: QUICK_SECONDS,
            trace,
            quick: true,
            inject_wrong_answer,
        };
        let outcome = in_declared_order(run_workload(&args), trace);
        assert!(
            outcome.metrics.iter().all(|m| m.value.is_finite()),
            "{workload}: a metric is not finite"
        );
        outcome
    }

    // The smoke runs drive every workload end to end on its real shapes;
    // run them with `cargo test --release` (debug crypto is ~25x slower).

    #[test]
    fn smoke_serve_closed() {
        let o = quick("serve_closed", false, false);
        assert!(
            o.attempted > 10 && o.failed == 0,
            "{} attempted, {} failed",
            o.attempted,
            o.failed
        );
    }

    #[test]
    fn smoke_serve_open() {
        let o = quick("serve_open", false, false);
        assert!(
            o.attempted > 100 && o.failed == 0,
            "{} attempted, {} failed",
            o.attempted,
            o.failed
        );
    }

    #[test]
    fn smoke_train_net() {
        let o = quick("train_net", false, false);
        assert_eq!((o.attempted, o.failed), (4, 0));
    }

    #[test]
    fn smoke_train_cnn() {
        let o = quick("train_cnn", false, false);
        assert!(
            o.attempted >= 2 && o.failed == 0,
            "{} attempted, {} failed",
            o.attempted,
            o.failed
        );
    }

    #[test]
    fn a_wrong_answer_is_counted_as_failed() {
        for workload in WORKLOADS {
            let o = quick(workload, false, true);
            assert!(
                o.failed >= 1,
                "{workload}: the flipped answer went unnoticed"
            );
        }
    }

    #[test]
    fn traced_serve_run_reports_every_layer() {
        let o = quick("serve_open", true, false);
        let get = |name: &str| o.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(get("trace.spans") > 0.0 && get("trace.transport_spans") > 0.0);
        assert!((get("trace.crypto_share") + get("trace.transport_share")) <= 1.0 + 1e-9);
        assert_eq!(o.failed, 0);
    }

    #[test]
    fn traced_cnn_run_touches_no_transport_layer() {
        let o = quick("train_cnn", true, false);
        let get = |name: &str| o.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("trace.transport_spans"), 0.0);
        assert_eq!(get("trace.transport_share"), 0.0);
        assert!(get("trace.group_self_ms") > 0.0);
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let map = v
            .as_map()
            .unwrap_or_else(|| panic!("{key}: not inside an object"));
        &map.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no key {key}"))
            .1
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` and the constants compiled into the binary say
    /// the same thing.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
                .expect("parse");
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            field(&v, "run_seconds"),
            &Value::U64(DEFAULT_SECONDS as u64)
        );
        let workloads: Vec<&str> = field(&v, "workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = field(&v, "end_to_end").as_seq().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (
                    text(field(j, "name")),
                    text(field(j, "unit")),
                    text(field(j, "better"))
                ),
                (d.name, d.unit, d.better)
            );
            assert_eq!(field(j, "bound"), &Value::F64(d.bound));
        }
        let per_layer = field(&v, "per_layer").as_seq().unwrap();
        assert_eq!(per_layer.len(), layers::PER_LAYER.len());
        for (j, d) in per_layer.iter().zip(&layers::PER_LAYER) {
            assert_eq!(
                (
                    text(field(j, "name")),
                    text(field(j, "unit")),
                    text(field(j, "better"))
                ),
                *d
            );
        }
    }
}
