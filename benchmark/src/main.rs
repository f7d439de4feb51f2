//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run [--seed N] [--seconds S] [--probes] [--smoke] [--out DIR]
//! benchmark run --workload NAME [--trace 0|1] [the options above]
//! benchmark check-repeat [--seed N] [--seconds S] [--smoke]
//! benchmark manifest
//! ```
//!
//! `run` without `--workload` runs every workload, each in a fresh child
//! process of this executable, untraced and then traced, one after the
//! other. With `--workload` it runs that one in this process and ends its
//! output with the benchmark contract's one-line JSON result.

mod catalogue;
mod harness;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::Value;

use catalogue::{END_TO_END, PER_LAYER};
use harness::{Config, Metric, TimeBox};
use spans::Tracer;
use workloads::WORKLOADS;

/// Default `--seconds`.
const DEFAULT_SECONDS: f64 = 12.0;
/// The traced run's box when `run` drives both runs itself.
const TRACED_SECONDS: f64 = 4.0;
/// Rows reported under this name in place of a workload's.
const PROBES: &str = "probes";

struct Options {
    cfg: Config,
    workload: Option<String>,
    probes: bool,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--probes] [--smoke] [--out DIR]\n       benchmark check-repeat [--seed N] \
         [--seconds S] [--smoke]\n       benchmark manifest\nworkloads: {}",
        WORKLOADS.map(|w| w.0).join(" ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Options> {
    let mut o = Options {
        cfg: Config {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        workload: None,
        probes: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--probes" => o.probes = true,
            "--smoke" => o.cfg.smoke = true,
            "--seed" => o.cfg.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                o.cfg.seconds = it.next()?.parse().ok().filter(|s: &f64| s.is_finite())?
            }
            "--trace" => {
                o.cfg.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--workload" => o.workload = Some(it.next()?.clone()),
            "--out" => o.out = PathBuf::from(it.next()?),
            _ => return None,
        }
    }
    Some(o)
}

/// `workload metric value unit`, the line format every number is printed
/// in (and parsed back from, by the parent of a child run).
fn print_metric(workload: &str, m: &Metric) {
    println!("{workload} {} {} {}", m.name, m.value, m.unit);
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents));
    match written {
        Ok(()) => println!("# wrote {}", path.display()),
        // Span and profile files are informational; the numbers are on stdout.
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}

fn print_probes(rows: &[probes::ProbeRow]) {
    for r in rows {
        println!(
            "{PROBES} {} {} {} ops_per_sample={} samples={}",
            r.metric.name, r.metric.value, r.metric.unit, r.ops_per_sample, r.samples
        );
    }
}

/// Run one workload in this process.
fn run_single(name: &str, o: &Options, process_start: Instant) -> ExitCode {
    let cfg = o.cfg;
    let live_at_start = netsim::profile::live_bytes();
    let mut tr = Tracer::new(cfg.trace);
    let Some(mut workload) = workloads::create(name, &cfg, &mut tr, process_start) else {
        return usage();
    };
    let time_box = TimeBox::for_config(&cfg);
    let outcome = harness::measure(&mut *workload, &mut tr, time_box, cfg.trace, live_at_start);

    let mut reported: Vec<Metric> = Vec::new();
    if cfg.trace {
        for m in &outcome.per_layer {
            print_metric(name, m);
        }
        for (span, calls, total_s, self_s) in tr.summary() {
            println!("# span {span} calls={calls} total_s={total_s:.6} self_s={self_s:.6}");
        }
        write_file(&o.out, &format!("trace-{name}.json"), &tr.chrome_trace());

        // The flight recorder rides along for one extra repetition, after
        // the measured ones, so its scopes cost the spans nothing.
        netsim::profile::set_enabled(true);
        workload.rep(&mut tr);
        let profile = netsim::profile::capture();
        netsim::profile::set_enabled(false);
        let text = format!("{}\n{}", profile.render_hot(20), profile.render_alloc(20));
        write_file(&o.out, &format!("profile-{name}.txt"), &text);

        reported.extend(outcome.per_layer);
        if o.probes {
            drop(workload);
            let rows = probes::run_all();
            print_probes(&rows);
            reported.extend(rows.into_iter().map(|r| r.metric));
        }
    } else {
        for m in &outcome.end_to_end {
            print_metric(name, m);
        }
        println!("{name} sim_digest 0x{:016x} hex", outcome.digest);
        reported.extend(outcome.end_to_end);
    }

    // The contract's result line: every end-to-end metric untraced, every
    // per-layer metric traced (0 where one does not apply to this workload).
    if cfg.trace {
        for m in &reported {
            let listed = PER_LAYER.iter().any(|p| p.0 == m.name && p.1 == m.unit);
            assert!(listed, "{} [{}] is not in the catalogue", m.name, m.unit);
        }
    }
    let listed: Vec<(&str, &str)> = if cfg.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let metrics = listed.into_iter().map(|(metric, unit)| {
        let value = reported
            .iter()
            .find(|m| m.name == metric)
            .map_or(0.0, |m| m.value);
        let fields = vec![
            ("value".to_string(), Value::F64(value)),
            ("unit".to_string(), Value::Str(unit.to_string())),
        ];
        (metric.to_string(), Value::Object(fields))
    });
    let correct = outcome.failed == 0;
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), Value::Object(metrics.collect())),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("rendering a value tree cannot fail")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: {name}: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// `workload → metric → (value, unit)`, as printed.
type Results = BTreeMap<String, BTreeMap<String, (String, String)>>;

fn record(results: &mut Results, workload: &str, metric: &str, value: &str, unit: &str) {
    let metrics = results.entry(workload.to_string()).or_default();
    metrics.insert(metric.to_string(), (value.to_string(), unit.to_string()));
}

fn record_line(line: &str, results: &mut Results) {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() >= 4 && WORKLOADS.iter().any(|w| w.0 == tokens[0]) {
        record(results, tokens[0], tokens[1], tokens[2], tokens[3]);
    }
}

/// Run `workload` in a fresh child process, echoing and recording its
/// metric lines. Returns whether every output was found correct.
fn spawn_child(
    workload: &str,
    cfg: &Config,
    out: &Path,
    results: &mut Results,
) -> std::io::Result<bool> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        // The child's contract result line is for the driver, not for people.
        if !line.starts_with('{') {
            println!("{line}");
            record_line(&line, results);
        }
    }
    Ok(child.wait()?.success())
}

/// [`spawn_child`], with a child that could not be run counted as failed.
fn run_child(workload: &str, cfg: &Config, out: &Path, results: &mut Results) -> bool {
    spawn_child(workload, cfg, out, results).unwrap_or_else(|e| {
        eprintln!("benchmark: cannot run {workload} in a child process: {e}");
        false
    })
}

/// Every workload untraced, each in its own child, one after the other.
fn untraced_set(cfg: &Config, out: &Path, results: &mut Results) -> bool {
    let cfg = Config {
        trace: false,
        ..*cfg
    };
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        ok &= run_child(workload, &cfg, out, results);
    }
    ok
}

fn results_json(o: &Options, results: &Results) -> String {
    let metric = |(name, (value, unit)): (&String, &(String, String))| {
        // Digests are hex strings; everything else is a number.
        let value = value
            .parse()
            .map_or_else(|_| Value::Str(value.clone()), Value::F64);
        let fields = vec![
            ("value".to_string(), value),
            ("unit".to_string(), Value::Str(unit.clone())),
        ];
        (name.clone(), Value::Object(fields))
    };
    let workloads = results.iter().map(|(workload, metrics)| {
        (
            workload.clone(),
            Value::Object(metrics.iter().map(metric).collect()),
        )
    });
    let doc = Value::Object(vec![
        ("seed".into(), Value::U64(o.cfg.seed)),
        ("seconds".into(), Value::F64(o.cfg.seconds)),
        ("smoke".into(), Value::Bool(o.cfg.smoke)),
        ("results".into(), Value::Object(workloads.collect())),
    ]);
    serde_json::to_string_pretty(&doc).expect("rendering a value tree cannot fail")
}

/// Run everything: each workload untraced then traced, then the probes.
fn run_all(o: &Options) -> ExitCode {
    let mut results = Results::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let untraced = Config {
            trace: false,
            ..o.cfg
        };
        let traced = Config {
            trace: true,
            seconds: o.cfg.seconds.min(TRACED_SECONDS),
            ..o.cfg
        };
        ok &= run_child(workload, &untraced, &o.out, &mut results);
        ok &= run_child(workload, &traced, &o.out, &mut results);
    }
    if o.probes {
        let rows = probes::run_all();
        print_probes(&rows);
        for r in rows {
            let m = r.metric;
            record(&mut results, PROBES, &m.name, &m.value.to_string(), m.unit);
        }
    }
    write_file(&o.out, "results.json", &results_json(o, &results));
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: a correctness check failed");
        ExitCode::FAILURE
    }
}

/// Run the untraced set twice and hold the two against each other.
fn check_repeat(o: &Options) -> ExitCode {
    let (mut first, mut second) = (Results::new(), Results::new());
    let mut ok = untraced_set(&o.cfg, &o.out, &mut first);
    ok &= untraced_set(&o.cfg, &o.out, &mut second);

    // Metrics that must repeat exactly; the bounded ones come from the catalogue.
    const EXACT: [&str; 5] = [
        "sim_digest",
        "allocs_per_op",
        "failed_ops_share",
        "events_per_rep",
        "ops_per_rep",
    ];
    println!(
        "\n{:<16} {:<18} {:>22} {:>22} {:>9}  verdict",
        "workload", "metric", "first", "second", "change"
    );
    for (workload, metrics) in &first {
        for (metric, (a, unit)) in metrics {
            // Exactness wins where a metric is both exact and bounded.
            let bound = if EXACT.contains(&metric.as_str()) {
                None
            } else if let Some(m) = END_TO_END.iter().find(|m| m.0 == metric) {
                Some(m.3)
            } else {
                continue;
            };
            let b = second.get(workload).and_then(|m| m.get(metric));
            let b = b.map_or("-", |v| v.0.as_str());
            let change = match (a.parse::<f64>(), b.parse::<f64>()) {
                (Ok(a), Ok(b)) if a != 0.0 => Some((b - a).abs() / a.abs()),
                _ => None,
            };
            let (holds, verdict) = match bound {
                None if a == b => (true, "identical".to_string()),
                None => (false, "DIFFERS".to_string()),
                Some(bound) if change.is_some_and(|c| c <= bound) => {
                    (true, format!("within {bound}"))
                }
                Some(bound) => (false, format!("OUTSIDE {bound}")),
            };
            ok &= holds;
            println!(
                "{workload:<16} {metric:<18} {a:>22} {b:>22} {:>8.2}%  {verdict} [{unit}]",
                change.unwrap_or(0.0) * 100.0,
            );
        }
    }
    if ok {
        println!("check-repeat: the two sets agree");
        ExitCode::SUCCESS
    } else {
        eprintln!("check-repeat: the two sets disagree, or a correctness check failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    if command == "manifest" {
        print!("{}", catalogue::manifest());
        return ExitCode::SUCCESS;
    }
    let Some(o) = parse(rest) else {
        return usage();
    };
    match (command.as_str(), &o.workload) {
        ("run", Some(name)) => run_single(name, &o, process_start),
        ("run", None) => run_all(&o),
        ("check-repeat", None) => check_repeat(&o),
        _ => usage(),
    }
}
