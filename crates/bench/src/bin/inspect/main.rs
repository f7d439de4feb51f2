//! Report inspector: `inspect trace` renders the causal packet-lifecycle
//! spans a run report embeds, `inspect profile` the flight-recorder data of
//! a report recorded under `NETSIM_PROFILE=1`, and `inspect diff` what
//! changed between two reports; [`USAGE`] lists their flags. A complaint —
//! a missing or unknown subcommand or flag, a report that cannot be read or
//! lacks the asked-for section — prints `inspect: <complaint>` and the
//! usage on stderr and exits 2; `diff`'s `--fail-on-*` verdicts exit 1.

mod diff;
mod profile;
mod trace;

use std::iter::Peekable;
use std::process::ExitCode;
use std::slice::Iter;

use serde::Value;

const USAGE: &str = "\
usage: inspect trace <report> [--snapshot LABEL] [--drops | --flow | --packet N |
                               --export-chrome OUT.json | --export-pcap OUT.pcapng]
       inspect profile <report> [--tree | --hot [N] | --alloc [N] | --export-chrome OUT.json]
       inspect diff <old> <new> [--threshold PCT] [--fail-on-violations] [--fail-on-regressions]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("trace") => trace::run,
        Some("profile") => profile::run,
        Some("diff") => diff::run,
        Some(other) => return usage_error(format!("unknown subcommand {other:?}")),
        None => return usage_error("no subcommand given".into()),
    };
    run(&args[1..]).unwrap_or_else(usage_error)
}

fn usage_error(complaint: String) -> ExitCode {
    eprintln!("inspect: {complaint}");
    eprintln!();
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// The flag being read, and the arguments after it.
struct Flag<'a> {
    name: &'a str,
    rest: Peekable<Iter<'a, String>>,
}

impl Flag<'_> {
    /// The argument after the flag, which it needs (`what` names it).
    fn value(&mut self, what: &str) -> Result<String, String> {
        let name = self.name;
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("{name} needs {what}"))
    }

    /// The argument after the flag if it is a count (`--hot 15`).
    fn count(&mut self) -> Option<usize> {
        let n = self.rest.peek()?.parse().ok()?;
        self.rest.next();
        Some(n)
    }
}

/// The one argument loop: every argument starting with `-` is a flag
/// `on_flag` must know (it returns `false` for one it does not) and may
/// read values after; the others are the `N` report paths.
fn parse<const N: usize>(
    args: &[String],
    mut on_flag: impl FnMut(&mut Flag) -> Result<bool, String>,
) -> Result<[&str; N], String> {
    let mut paths = Vec::new();
    let mut flag = Flag {
        name: "",
        rest: args.iter().peekable(),
    };
    while let Some(a) = flag.rest.next() {
        if !a.starts_with('-') {
            paths.push(a.as_str());
            continue;
        }
        flag.name = a;
        if !on_flag(&mut flag)? {
            return Err(format!("unknown flag {a}"));
        }
    }
    let given = paths.len();
    paths
        .try_into()
        .map_err(|_| format!("expected {N} report path(s), got {given}"))
}

/// The one report loader: a JSON file, parsed.
fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}
