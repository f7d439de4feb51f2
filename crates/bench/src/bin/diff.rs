//! Run-report diff analyzer: compare two run-report JSONs (schema v3 or
//! v4) and render what changed — per-snapshot metric deltas, drop reasons
//! that appeared or vanished, and invariant-monitor regressions.
//!
//! ```text
//! cargo run --bin diff -- old.json new.json
//! cargo run --bin diff -- old.json new.json --threshold 5
//! cargo run --bin diff -- old.json new.json --fail-on-violations
//! ```
//!
//! `--threshold PCT` hides numeric deltas smaller than PCT percent
//! (absolute differences of 0 are always hidden). `--fail-on-violations`
//! exits non-zero when *either* report carries an invariant violation —
//! the CI smoke job's contract. `--fail-on-regressions` exits non-zero
//! when the second report violates an invariant the first satisfied.

use std::fs;
use std::process::ExitCode;

use serde::Value;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("diff: {e}");
            eprintln!();
            eprintln!("usage: diff <old.json> <new.json> [--threshold PCT]");
            eprintln!("       [--fail-on-violations] [--fail-on-regressions]");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = 0.0f64;
    let mut fail_on_violations = false;
    let mut fail_on_regressions = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a percentage")?;
                threshold = v
                    .parse()
                    .map_err(|_| format!("bad threshold {v:?} (want a number)"))?;
            }
            "--fail-on-violations" => fail_on_violations = true,
            "--fail-on-regressions" => fail_on_regressions = true,
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => paths.push(a),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err("expected exactly two report paths".into());
    };
    let old = load(old_path)?;
    let new = load(new_path)?;

    println!(
        "diff: {} ({}) vs {} ({})",
        old_path,
        schema(&old),
        new_path,
        schema(&new)
    );

    let mut deltas = Vec::new();
    collect_deltas(
        "",
        get(&old, "snapshots"),
        get(&new, "snapshots"),
        &mut deltas,
    );
    render_deltas(&deltas, threshold);
    render_drop_reasons(&old, &new);
    let (old_bad, new_bad, regressions) = render_invariants(&old, &new);

    if fail_on_violations && (!old_bad.is_empty() || !new_bad.is_empty()) {
        eprintln!("diff: invariant violations present — failing as requested");
        return Ok(ExitCode::FAILURE);
    }
    if fail_on_regressions && !regressions.is_empty() {
        eprintln!("diff: invariant regressions present — failing as requested");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn schema(doc: &Value) -> String {
    match get(doc, "schema") {
        Some(Value::Str(s)) => s.clone(),
        _ => "unknown schema".into(),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

/// One numeric leaf that differs: dotted path, old, new.
struct Delta {
    path: String,
    old: Option<f64>,
    new: Option<f64>,
}

/// Recursively align two values and collect differing numeric leaves.
/// Keys present on only one side surface as `None` on the other.
fn collect_deltas(path: &str, old: Option<&Value>, new: Option<&Value>, out: &mut Vec<Delta>) {
    match (old, new) {
        (Some(Value::Object(a)), Some(Value::Object(b))) => {
            let mut keys: Vec<&String> = a.iter().map(|(k, _)| k).collect();
            for (k, _) in b {
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            for k in keys {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                collect_deltas(
                    &sub,
                    a.iter().find(|(n, _)| n == k).map(|(_, v)| v),
                    b.iter().find(|(n, _)| n == k).map(|(_, v)| v),
                    out,
                );
            }
        }
        (Some(Value::Array(a)), Some(Value::Array(b))) => {
            for i in 0..a.len().max(b.len()) {
                collect_deltas(&format!("{path}[{i}]"), a.get(i), b.get(i), out);
            }
        }
        (a, b) => {
            let (oa, ob) = (a.and_then(as_f64), b.and_then(as_f64));
            if (oa.is_some() || ob.is_some()) && oa != ob {
                out.push(Delta {
                    path: path.to_string(),
                    old: oa,
                    new: ob,
                });
            }
        }
    }
}

fn render_deltas(deltas: &[Delta], threshold: f64) {
    let shown: Vec<&Delta> = deltas
        .iter()
        .filter(|d| match (d.old, d.new) {
            (Some(a), Some(b)) if a != 0.0 => ((b - a) / a * 100.0).abs() >= threshold,
            _ => true, // appeared, vanished, or changed from zero: always show
        })
        .collect();
    println!();
    if shown.is_empty() {
        println!("metric deltas: none (threshold {threshold}%)");
        return;
    }
    println!("metric deltas ({} shown):", shown.len());
    for d in &shown {
        let fmt = |v: Option<f64>| match v {
            Some(n) => format!("{n}"),
            None => "-".to_string(),
        };
        let pct = match (d.old, d.new) {
            (Some(a), Some(b)) if a != 0.0 => format!(" ({:+.1}%)", (b - a) / a * 100.0),
            _ => String::new(),
        };
        println!("  {:<70} {} -> {}{}", d.path, fmt(d.old), fmt(d.new), pct);
    }
}

/// Collect `(snapshot-path, reason)` pairs for every non-zero drop-reason
/// counter under a `total_drops` / `drops` object.
fn drop_reasons(path: &str, v: &Value, out: &mut Vec<(String, String)>) {
    if let Value::Object(fields) = v {
        for (k, sub) in fields {
            if k == "total_drops" || k == "drops" {
                if let Value::Object(reasons) = sub {
                    for (reason, count) in reasons {
                        if as_f64(count).unwrap_or(0.0) > 0.0 {
                            out.push((path.to_string(), reason.clone()));
                        }
                    }
                }
            } else {
                drop_reasons(&format!("{path}.{k}"), sub, out);
            }
        }
    }
}

fn render_drop_reasons(old: &Value, new: &Value) {
    let collect = |doc: &Value| {
        let mut v = Vec::new();
        if let Some(s) = get(doc, "snapshots") {
            drop_reasons("", s, &mut v);
        }
        v
    };
    let (a, b) = (collect(old), collect(new));
    let news: Vec<&(String, String)> = b.iter().filter(|x| !a.contains(x)).collect();
    let gone: Vec<&(String, String)> = a.iter().filter(|x| !b.contains(x)).collect();
    println!();
    if news.is_empty() && gone.is_empty() {
        println!("drop reasons: unchanged");
        return;
    }
    for (path, reason) in news {
        println!("drop reason appeared: {reason} at {path}");
    }
    for (path, reason) in gone {
        println!("drop reason vanished: {reason} at {path}");
    }
}

/// Collect `(snapshot-path, violation-count)` for every invariants section
/// that is not ok.
fn bad_invariants(path: &str, v: &Value, out: &mut Vec<(String, u64)>) {
    if let Value::Object(fields) = v {
        for (k, sub) in fields {
            if k == "invariants" {
                if let Some(Value::Bool(false)) = get(sub, "ok") {
                    let n = match get(sub, "violations") {
                        Some(Value::Array(vs)) => vs.len() as u64,
                        _ => 0,
                    };
                    out.push((path.to_string(), n.max(1)));
                }
            } else {
                bad_invariants(&format!("{path}.{k}"), sub, out);
            }
        }
    }
}

/// Render invariant status; returns (old violations, new violations,
/// regressions = snapshots clean in old but violating in new).
fn render_invariants(old: &Value, new: &Value) -> (Vec<String>, Vec<String>, Vec<String>) {
    let collect = |doc: &Value| {
        let mut v = Vec::new();
        if let Some(s) = get(doc, "snapshots") {
            bad_invariants("", s, &mut v);
        }
        v
    };
    let (a, b) = (collect(old), collect(new));
    let a_paths: Vec<String> = a.iter().map(|(p, _)| p.clone()).collect();
    let b_paths: Vec<String> = b.iter().map(|(p, _)| p.clone()).collect();
    let regressions: Vec<String> = b_paths
        .iter()
        .filter(|p| !a_paths.contains(p))
        .cloned()
        .collect();
    println!();
    if a.is_empty() && b.is_empty() {
        println!("invariants: ok in both reports");
    } else {
        for (p, n) in &a {
            println!("invariant violation in OLD at {p}: {n} violation(s)");
        }
        for (p, n) in &b {
            println!("invariant violation in NEW at {p}: {n} violation(s)");
        }
        for p in &regressions {
            println!("invariant REGRESSION (clean -> violating) at {p}");
        }
    }
    (a_paths, b_paths, regressions)
}
