//! Shared main-routine for the experiment binaries.
//!
//! Every experiment binary does the same four things: enable report
//! collection, run its experiment, print the tables, and emit the JSON
//! run report. [`run`] centralises that and layers the flight recorder on
//! top: setting `NETSIM_PROFILE=1` (any non-empty value other than `0`)
//! or passing `--profile` turns on `netsim::profile` for the process, so
//! the emitted report carries `profile` and per-snapshot gauge-sample
//! sections. `--profile-chrome <path>` additionally writes
//! the scope tree as a chrome://tracing / Perfetto file.
//!
//! Scale-ready telemetry is layered the same way: `--sample-flows N` /
//! `NETSIM_SAMPLE=N`, `--topk K`, and `--sketch-threshold N` (see
//! [`telemetry_requested`]) install a [`netsim::TelemetryConfig`] that
//! every observed world receives — head-based flow sampling, heavy-hitter
//! sketches, and the online invariant monitors' report section.
//!
//! `--shards N` / `NETSIM_SHARDS=N` selected an engine that no longer
//! exists. For one release they are still parsed (a malformed value is
//! still an error) and answered with one line on stderr; nothing below
//! this module learns the number (see `shards_notice`).

use std::path::Path;

use crate::report;
use crate::Table;
use netsim::TelemetryConfig;

/// Whether this process should record the flight recorder: the
/// `NETSIM_PROFILE` environment variable (non-empty, not `"0"`) or a
/// `--profile` argument.
pub fn profile_requested() -> bool {
    std::env::var("NETSIM_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0")
        || std::env::args().any(|a| a == "--profile")
}

/// The value following `flag` in `args`, as `parse` reads it: `Ok(None)`
/// when the flag is absent, the complaint when it is there without one — a
/// flag that was typed must never quietly run the default configuration.
fn flag_value<T>(
    args: &[String],
    flag: &str,
    wants: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(ix) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(ix + 1).map(String::as_str);
    match value.and_then(parse) {
        Some(v) => Ok(Some(v)),
        None => Err(format!(
            "{flag} needs {wants}, got {}",
            value.unwrap_or("nothing")
        )),
    }
}

fn flag_u64(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    flag_value(args, flag, "a non-negative integer", |v| v.parse().ok())
}

/// The next argument is a path unless it starts with `--`: that is the
/// next flag (`--json --profile`), not a file to write.
fn flag_path(args: &[String], flag: &str) -> Result<Option<String>, String> {
    flag_value(args, flag, "a path", |v| {
        (!v.starts_with("--")).then(|| v.to_string())
    })
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// An integer knob settable as `--flag N` — the pattern every scale/churn
/// size shares. A flag without a usable value ends the process with
/// `<bin>: <flag> needs a non-negative integer, got <value>` and status 2.
pub fn u64_knob(flag: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    or_exit(&args, flag_u64(&args, flag))
}

/// A path settable as `--flag PATH`; a flag without one ends the process
/// the way [`u64_knob`] does.
pub fn path_knob(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    or_exit(&args, flag_path(&args, flag))
}

/// What stderr lines are prefixed with: the file name of `argv[0]`.
fn bin_name(args: &[String]) -> String {
    let bin = args.first().map(Path::new).and_then(Path::file_name);
    bin.map_or("bench".into(), |b| b.to_string_lossy().into_owned())
}

/// The parsed value, or its complaint on stderr and exit status 2.
fn or_exit<T>(args: &[String], parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|complaint| {
        eprintln!("{}: {complaint}", bin_name(args));
        std::process::exit(2)
    })
}

/// Parse the scale-ready telemetry configuration from argv and the
/// environment. `None` when nothing was asked for — the full-fidelity
/// default. Knobs (flag wins over environment variable):
///
/// * `--sample-flows N` / `NETSIM_SAMPLE=N` — record 1-in-N flows fully
///   (anomalous flows always promoted to full capture)
/// * `--topk K` — heavy-hitter sketch slots
/// * `--sketch-threshold N` — node count above which per-node counters
///   collapse into sketches
/// * `NETSIM_TELEMETRY_SEED=S` — seed for every sampling decision
pub fn telemetry_requested() -> Option<TelemetryConfig> {
    let mut cfg = TelemetryConfig::default();
    let mut any = false;
    if let Some(n) = u64_knob("--sample-flows").or_else(|| env_u64("NETSIM_SAMPLE")) {
        cfg.sample_flows = Some(n);
        any = true;
    }
    if let Some(k) = u64_knob("--topk") {
        cfg.topk = k as usize;
        any = true;
    }
    if let Some(t) = u64_knob("--sketch-threshold") {
        cfg.sketch_node_threshold = t as usize;
        any = true;
    }
    if let Some(s) = env_u64("NETSIM_TELEMETRY_SEED") {
        cfg.seed = s;
    }
    any.then_some(cfg)
}

/// What a process that asks for shards is told, once, on stderr after
/// its `<bin>: ` prefix: `None` when it did not ask, the flag's complaint
/// when `--shards` has no usable value. The flag is named over the
/// `NETSIM_SHARDS` environment variable (`env_set`) when both are there.
fn shards_notice(args: &[String], env_set: bool) -> Result<Option<String>, String> {
    let knob = match flag_u64(args, "--shards")? {
        Some(_) => "--shards",
        None if env_set => "NETSIM_SHARDS",
        None => return Ok(None),
    };
    Ok(Some(format!(
        "{knob} is ignored: the sharded engine was removed (README, \"One engine\")"
    )))
}

/// Run an experiment binary body under the standard harness: report
/// collection on, profiling on when requested, the whole run wrapped in a
/// root scope called `name`, tables printed, and the run report
/// emitted. Returns the tables for callers that post-process them.
pub fn run(name: &'static str, f: impl FnOnce() -> Vec<Table>) -> Vec<Table> {
    report::enable();
    if let Some(cfg) = telemetry_requested() {
        report::set_telemetry_config(cfg);
    }
    let args: Vec<String> = std::env::args().collect();
    let env_set = std::env::var_os("NETSIM_SHARDS").is_some();
    if let Some(notice) = or_exit(&args, shards_notice(&args, env_set)) {
        eprintln!("{}: {notice}", bin_name(&args));
    }
    let profiling = profile_requested();
    if profiling {
        netsim::profile::set_enabled(true);
    }
    let tables = {
        let _prof = netsim::profile::scope(name);
        f()
    };
    for t in &tables {
        println!("{t}");
    }
    report::emit(name, &tables);
    if profiling {
        export_chrome_if_asked(name);
    }
    tables
}

/// Honour `--profile-chrome <path>`; with no path the trace lands next to
/// the run reports as `<name>-chrome.json`.
fn export_chrome_if_asked(name: &str) {
    let args: Vec<String> = std::env::args().collect();
    let Some(ix) = args.iter().position(|a| a == "--profile-chrome") else {
        return;
    };
    let path = args
        .get(ix + 1)
        .filter(|p| !p.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| format!("{name}-chrome.json"));
    let trace = netsim::profile::capture().chrome_trace();
    let json = serde_json::to_string_pretty(&trace)
        .unwrap_or_else(|e| format!("{{\"error\":\"serialization failed: {e:?}\"}}"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("chrome-trace: {path}"),
        Err(e) => eprintln!("chrome-trace: cannot write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::{flag_path, flag_u64, shards_notice};

    fn argv(s: &str) -> Vec<String> {
        s.split(' ').map(String::from).collect()
    }

    #[test]
    fn a_flag_without_a_usable_value_is_an_error_not_the_default() {
        assert_eq!(flag_u64(&argv("bin --shards 2"), "--shards"), Ok(Some(2)));
        assert_eq!(flag_u64(&argv("bin --profile"), "--shards"), Ok(None));
        for (line, got) in [
            ("bin --shards two", "two"),
            ("bin --profile --shards", "nothing"),
            ("bin --shards --profile", "--profile"),
            ("bin --shards -1", "-1"),
            ("bin --shards 1e5", "1e5"),
        ] {
            assert_eq!(
                flag_u64(&argv(line), "--shards"),
                Err(format!("--shards needs a non-negative integer, got {got}")),
                "{line}"
            );
        }
    }

    #[test]
    fn the_next_flag_is_not_a_path() {
        let path = |line| flag_path(&argv(line), "--json");
        assert_eq!(path("bin --profile"), Ok(None));
        assert_eq!(path("bin --json out.json"), Ok(Some("out.json".into())));
        assert_eq!(path("bin --json -"), Ok(Some("-".into())));
        for (line, got) in [
            ("bin --json --profile", "--profile"),
            ("bin --json --serial out.json", "--serial"),
            ("bin --profile --json", "nothing"),
        ] {
            let complaint = format!("--json needs a path, got {got}");
            assert_eq!(path(line), Err(complaint), "{line}");
        }
    }

    #[test]
    fn asking_for_shards_is_answered_with_a_notice_and_nothing_else() {
        let notice = |knob: &str| {
            Ok(Some(format!(
                "{knob} is ignored: the sharded engine was removed (README, \"One engine\")"
            )))
        };
        assert_eq!(shards_notice(&argv("bin --profile"), false), Ok(None));
        assert_eq!(
            shards_notice(&argv("bin --shards 4"), false),
            notice("--shards")
        );
        assert_eq!(
            shards_notice(&argv("bin --shards 0"), true),
            notice("--shards")
        );
        assert_eq!(shards_notice(&argv("bin"), true), notice("NETSIM_SHARDS"));
        assert_eq!(
            shards_notice(&argv("bin --shards two"), true),
            Err("--shards needs a non-negative integer, got two".into())
        );
    }
}
