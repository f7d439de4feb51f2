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
//! A bin hands [`run`] the flags it reads itself; an argument starting with
//! `--` that is neither one of those nor `--profile` / `--profile-chrome`
//! ends the process with `<bin>: unknown flag <flag>` and status 2: a
//! mistyped flag, or one of a feature that was removed, must not quietly
//! run the default configuration.

use std::path::Path;

use crate::report;
use crate::Table;

/// Whether this process should record the flight recorder: the
/// `NETSIM_PROFILE` environment variable (non-empty, not `"0"`) or a
/// `--profile` argument.
pub fn profile_requested() -> bool {
    std::env::var("NETSIM_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0")
        || std::env::args().any(|a| a == "--profile")
}

/// The integer following `flag` in `args`: `Ok(None)` when the flag is
/// absent, the complaint when it is there without one — a flag that was
/// typed must never quietly run the default configuration.
fn flag_u64(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    let Some(ix) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(ix + 1).map(String::as_str);
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => Ok(Some(v)),
        None => Err(format!(
            "{flag} needs a non-negative integer, got {}",
            value.unwrap_or("nothing")
        )),
    }
}

/// An integer knob settable as `--flag N` — the pattern every scale/churn
/// size shares. A flag without a usable value ends the process with
/// `<bin>: <flag> needs a non-negative integer, got <value>` and status 2.
pub fn u64_knob(flag: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    or_exit(&args, flag_u64(&args, flag))
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

/// The first argument starting with `--` that is neither a flag every bin
/// shares nor one of `own`, the flags the running bin reads itself.
fn unknown_flag<'a>(args: &'a [String], own: &[&str]) -> Option<&'a str> {
    let known = |a: &str| a == "--profile" || a == "--profile-chrome" || own.contains(&a);
    let mut flags = args.iter().skip(1).map(String::as_str);
    flags.find(|a| a.starts_with("--") && !known(a))
}

/// Where `--profile-chrome [PATH]` asks for the chrome trace: `None` when
/// the flag is absent, `Some(None)` when no path follows it.
fn chrome_path(args: &[String]) -> Option<Option<&str>> {
    let ix = args.iter().position(|a| a == "--profile-chrome")?;
    let next = args.get(ix + 1).map(String::as_str);
    Some(next.filter(|p| !p.starts_with("--")))
}

/// Run an experiment binary body under the standard harness: arguments
/// checked against `flags` (the ones this bin reads itself) and the shared
/// ones, report collection on, profiling on when requested, the whole run
/// wrapped in a root scope called `name`, tables printed, and the run
/// report emitted.
pub fn run(name: &'static str, flags: &[&str], f: impl FnOnce() -> Vec<Table>) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(flag) = unknown_flag(&args, flags) {
        or_exit(&args, Err(format!("unknown flag {flag}")))
    }
    report::enable();
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
    if let (true, Some(path)) = (profiling, chrome_path(&args)) {
        export_chrome(name, path);
    }
}

/// Write the scope tree as a chrome://tracing file; with no path it lands
/// in the working directory as `<name>-chrome.json`.
fn export_chrome(name: &str, path: Option<&str>) {
    let path = path.map_or_else(|| format!("{name}-chrome.json"), String::from);
    let report = netsim::profile::capture();
    let json = serde_json::to_string_pretty(&report.chrome_trace())
        .unwrap_or_else(|e| format!("{{\"error\":\"serialization failed: {e:?}\"}}"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("chrome-trace: {path}"),
        Err(e) => eprintln!("chrome-trace: cannot write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::{chrome_path, flag_u64, unknown_flag};

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
    fn a_flag_nobody_reads_is_named_not_ignored() {
        let own = ["--hosts", "--seed"];
        let unknown = |line| unknown_flag(&argv(line), &own).map(String::from);
        assert_eq!(unknown("bin"), None);
        assert_eq!(unknown("bin fig01_basic --hosts 5 --seed -1"), None);
        assert_eq!(unknown("bin --profile --profile-chrome out.json"), None);
        assert_eq!(unknown("bin --hosts 5 --shards 2"), Some("--shards".into()));
        assert_eq!(
            unknown("bin --sample-flows 64"),
            Some("--sample-flows".into())
        );
        assert_eq!(unknown("bin --hosts=5"), Some("--hosts=5".into()));
        assert_eq!(unknown("bin --"), Some("--".into()));
        // Another bin's flag is not this one's.
        assert_eq!(
            unknown_flag(&argv("bin --hosts 5"), &["--seed"]),
            Some("--hosts")
        );
        // argv[0] is a path, whatever it looks like.
        assert_eq!(unknown_flag(&argv("--odd-bin"), &[]), None);

        // `--profile-chrome` is known with and without its path.
        assert_eq!(chrome_path(&argv("bin --profile")), None);
        assert_eq!(chrome_path(&argv("bin --profile-chrome")), Some(None));
        assert_eq!(
            chrome_path(&argv("bin --profile-chrome --profile")),
            Some(None)
        );
        assert_eq!(
            chrome_path(&argv("bin --profile-chrome out.json --profile")),
            Some(Some("out.json"))
        );
    }
}
