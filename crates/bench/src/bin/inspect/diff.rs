//! `inspect diff`: compare two run reports (schema v3 or v4) and render
//! what changed — per-snapshot metric deltas, drop reasons that appeared or
//! vanished, and invariant-monitor regressions. `--threshold PCT` hides
//! numeric deltas smaller than PCT percent (absolute differences of 0 are
//! always hidden). `--fail-on-violations` exits 1 when *either* report
//! carries an invariant violation — the CI smoke job's contract.
//! `--fail-on-regressions` exits 1 when the second report violates an
//! invariant the first satisfied.

use std::process::ExitCode;

use serde::Value;

pub(crate) fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut threshold = 0.0f64;
    let mut fail_on_violations = false;
    let mut fail_on_regressions = false;
    let [old_path, new_path] = crate::parse(args, |flag| {
        match flag.name {
            "--threshold" => {
                let v = flag.value("a percentage")?;
                threshold = v
                    .parse()
                    .map_err(|_| format!("bad threshold {v:?} (want a number)"))?;
            }
            "--fail-on-violations" => fail_on_violations = true,
            "--fail-on-regressions" => fail_on_regressions = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let old = crate::load(old_path)?;
    let new = crate::load(new_path)?;

    println!(
        "diff: {} ({}) vs {} ({})",
        old_path,
        schema(&old),
        new_path,
        schema(&new)
    );

    let mut deltas = Vec::new();
    collect_deltas("", old.get("snapshots"), new.get("snapshots"), &mut deltas);
    render_deltas(&deltas, threshold);
    render_drop_reasons(&old, &new);
    let (violations, regressions) = render_invariants(&old, &new);

    if fail_on_violations && violations {
        eprintln!("inspect: invariant violations present — failing as requested");
        return Ok(ExitCode::FAILURE);
    }
    if fail_on_regressions && regressions {
        eprintln!("inspect: invariant regressions present — failing as requested");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn schema(doc: &Value) -> &str {
    doc.get("schema")
        .and_then(Value::as_str)
        .unwrap_or("unknown schema")
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
        (Some(old @ Value::Object(a)), Some(new @ Value::Object(b))) => {
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
                collect_deltas(&sub, old.get(k), new.get(k), out);
            }
        }
        (Some(Value::Array(a)), Some(Value::Array(b))) => {
            for i in 0..a.len().max(b.len()) {
                collect_deltas(&format!("{path}[{i}]"), a.get(i), b.get(i), out);
            }
        }
        (a, b) => {
            let (oa, ob) = (a.and_then(Value::as_f64), b.and_then(Value::as_f64));
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

/// Every member named one of `keys` in any object under `doc`'s
/// snapshots, depth first, with the dotted path of the object holding it;
/// such a member is not looked into.
fn sections<'a>(doc: &'a Value, keys: &[&str]) -> Vec<(String, &'a Value)> {
    fn walk<'a>(path: &str, v: &'a Value, keys: &[&str], out: &mut Vec<(String, &'a Value)>) {
        for (k, sub) in v.as_object().into_iter().flatten() {
            if keys.contains(&k.as_str()) {
                out.push((path.to_string(), sub));
            } else {
                walk(&format!("{path}.{k}"), sub, keys, out);
            }
        }
    }
    let mut out = Vec::new();
    if let Some(snapshots) = doc.get("snapshots") {
        walk("", snapshots, keys, &mut out);
    }
    out
}

/// `(path, reason)` for every non-zero counter of a `total_drops` /
/// `drops` object.
fn drop_reasons(doc: &Value) -> Vec<(String, &str)> {
    let mut out = Vec::new();
    for (path, drops) in sections(doc, &["total_drops", "drops"]) {
        for (reason, count) in drops.as_object().into_iter().flatten() {
            if count.as_f64().unwrap_or(0.0) > 0.0 {
                out.push((path.clone(), reason.as_str()));
            }
        }
    }
    out
}

fn render_drop_reasons(old: &Value, new: &Value) {
    let (a, b) = (drop_reasons(old), drop_reasons(new));
    let news: Vec<_> = b.iter().filter(|x| !a.contains(x)).collect();
    let gone: Vec<_> = a.iter().filter(|x| !b.contains(x)).collect();
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

/// `(path, violation count)` for every invariants section that is not ok.
fn bad_invariants(doc: &Value) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (path, inv) in sections(doc, &["invariants"]) {
        if inv.get("ok").and_then(Value::as_bool) == Some(false) {
            let violations = inv.get("violations").and_then(Value::as_array);
            out.push((path, violations.map_or(0, Vec::len).max(1)));
        }
    }
    out
}

/// Renders invariant status; returns whether either report violates an
/// invariant, and whether the new one violates one the old one kept.
fn render_invariants(old: &Value, new: &Value) -> (bool, bool) {
    let (a, b) = (bad_invariants(old), bad_invariants(new));
    let regressions: Vec<&String> = b
        .iter()
        .map(|(p, _)| p)
        .filter(|p| !a.iter().any(|(q, _)| q == *p))
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
    (!a.is_empty() || !b.is_empty(), !regressions.is_empty())
}
