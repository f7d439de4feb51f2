//! The `inspect` bin end to end: it reads back a report `bench::report`
//! wrote, and every usage error exits 2 with nothing on stdout.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

/// `exp fig02_filtering`'s run report, written once into a directory of
/// this test's own through `RUN_REPORT_DIR`.
fn fig02_report() -> &'static str {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("inspect-reports");
        std::env::set_var("RUN_REPORT_DIR", &dir);
        bench::report::enable();
        let (name, run) = bench::experiments::lookup(Some("fig02_filtering")).expect("listed");
        let path = bench::report::emit(name, &run()).expect("report written");
        path.to_string_lossy().into_owned()
    })
}

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inspect"))
        .args(args)
        .output()
        .expect("inspect runs")
}

#[test]
fn trace_drops_end_in_the_source_address_filter() {
    let out = inspect(&["trace", fig02_report(), "--drops"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("source-address-filter"), "{stdout}");
}

#[test]
fn usage_errors_exit_2_with_nothing_on_stdout() {
    for args in [&[][..], &["trace"], &["trace", fig02_report(), "--bogus"]] {
        let out = inspect(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(stderr.starts_with("inspect: "), "{args:?}: {stderr}");
    }
}
