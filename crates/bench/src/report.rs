//! Structured run reports: machine-readable JSON alongside every
//! experiment's human tables.
//!
//! [`crate::runbin::run`] calls [`emit`] after printing the tables; the
//! report lands in `target/run-reports/<name>.json` (override the
//! directory with `RUN_REPORT_DIR`). The schema is documented in
//! `EXPERIMENTS.md` ("Observability").
//!
//! While an experiment runs it may attach labelled simulator snapshots —
//! [`record_world`] captures a [`World`]'s metrics registry,
//! [`record_value`] attaches any serializable value (an audit trail, a
//! parameter sweep point). Each is rendered to compact JSON text on the
//! spot, while the world it describes is still warm in cache, and kept as
//! text; [`build`] splices the fragments into the report. The collector is
//! process-global but **disabled by default**: library and test callers of
//! the experiment functions pay nothing and accumulate nothing. Binaries
//! opt in with [`enable`].

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use netsim::{Lifecycle, World};
use serde::{JsonWriter, Serialize};

use crate::Table;

/// Per-snapshot cap on the packet spans a report embeds; drop chains are
/// always kept in full (see [`Lifecycle::report`]).
const LIFECYCLE_SPAN_CAP: usize = 512;

struct Collector {
    enabled: bool,
    /// Label and compact JSON text of each snapshot.
    snapshots: Vec<(String, String)>,
}

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    enabled: false,
    snapshots: Vec::new(),
});

/// Lock the collector, taking the guard of a poisoned lock too:
/// `paper_suite` runs experiments under `catch_unwind`, every update below
/// leaves it whole at each step, and so one panicking experiment must not
/// wedge the collector for the rest.
fn collector() -> MutexGuard<'static, Collector> {
    COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turn snapshot collection on for this process (binaries call this first).
pub fn enable() {
    collector().enabled = true;
}

/// Whether collection is on for this process.
pub fn enabled() -> bool {
    collector().enabled
}

/// Sim-time interval between flight-recorder gauge samples when profiling
/// is on (10 ms of simulated time), and the sample cap the reservoir
/// doubles the stride at.
const SAMPLE_INTERVAL_US: u64 = 10_000;
const SAMPLE_CAP: usize = 256;

/// Enable a world's metrics registry — but only when report collection is
/// on, so experiment functions stay zero-cost under tests.
/// Call right after building a scenario, before running it. When the
/// flight recorder is on this also starts the world's gauge sampler.
pub fn observe_world(world: &mut World) {
    if enabled() {
        world.enable_metrics();
        // Invariant monitors ride along with every observed world: they
        // cost one branch and a hash-set op per trace event, and turn
        // conservation bugs into report sections instead of silence.
        world.enable_invariants();
    }
    if netsim::profile::enabled() {
        world.enable_sampling(netsim::SimDuration(SAMPLE_INTERVAL_US), SAMPLE_CAP);
    }
}

fn render(value: &(impl Serialize + ?Sized)) -> String {
    serde_json::to_string(value).expect("rendering is infallible")
}

/// Attach a labelled snapshot of `world` to the next emitted report: its
/// metrics registry plus the reconstructed packet-lifecycle spans and flow
/// summaries of its trace (when the trace recorded anything). No-op unless
/// [`enable`] was called and the world's metrics are enabled.
pub fn record_world(label: &str, world: &World) {
    if !enabled() || !world.metrics.enabled() {
        return;
    }
    let snap = world_snapshot(world);
    collector().snapshots.push((label.to_string(), snap));
}

/// The report snapshot for one world, as the compact JSON text
/// [`record_world`] embeds. Pure (no collector involved) so tests can
/// assert on report bytes — in particular that a clean monitored run
/// carries no section an unmonitored one lacks.
pub fn world_snapshot(world: &World) -> String {
    let names = world.node_names();
    render(&serde::from_fn(|w| {
        w.object(|w| {
            w.field("metrics", &world.metrics.snapshot(&names, world.now()));
            if !world.trace.events().is_empty() {
                let lc = Lifecycle::reconstruct(&world.trace, &names);
                w.field("lifecycle", &lc.report(LIFECYCLE_SPAN_CAP));
            }
            // Only a violation earns the section: clean runs keep the bytes
            // they had before worlds were monitored.
            if world.has_invariant_violations() {
                w.field("invariants", &world.invariant_report());
            }
            // Flight-recorder extras are wall-clock derived and so
            // nondeterministic; they only appear when profiling was explicitly
            // switched on, keeping default reports byte-identical run to run.
            if netsim::profile::enabled() {
                w.key("scheduler");
                w.object(|w| {
                    w.field("stats", &world.scheduler_stats());
                    w.field("telemetry", &world.scheduler_telemetry());
                });
                if let Some(sampler) = world.sampler() {
                    w.field("profile_samples", sampler);
                }
            }
        });
    }))
}

/// Attach any serializable value (audit trails, sweep parameters, …) to
/// the next emitted report. No-op unless [`enable`] was called.
pub fn record_value(label: &str, value: &impl Serialize) {
    if enabled() {
        let json = render(value);
        collector().snapshots.push((label.to_string(), json));
    }
}

fn report_dir() -> PathBuf {
    match std::env::var_os("RUN_REPORT_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from("target").join("run-reports"),
    }
}

/// Scope cap on the profile section a report embeds; the hottest scopes
/// (by inclusive time) are kept, the tail is summarised.
const PROFILE_SCOPE_CAP: usize = 96;

/// A run report ready to render. Every section but the name is already
/// compact JSON text, so serializing one is concatenation.
#[derive(Debug)]
pub struct Report {
    name: String,
    tables: String,
    /// Label and text of each snapshot, sorted by label.
    snapshots: Vec<(String, String)>,
    /// The flight recorder's sections, when it is on.
    recorder: Vec<(&'static str, String)>,
}

impl Serialize for Report {
    fn serialize(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("name", &self.name);
            w.field("schema", "run-report/v4");
            w.key("tables");
            w.raw(&self.tables);
            w.key("snapshots");
            w.object(|w| {
                for (label, json) in &self.snapshots {
                    w.key(label);
                    w.raw(json);
                }
            });
            for (section, json) in &self.recorder {
                w.key(section);
                w.raw(json);
            }
        });
    }
}

/// Build the report for `name` from the given tables plus every snapshot
/// recorded since the last emit (which this call drains). Snapshots are
/// emitted sorted by label so report bytes are stable run to run
/// regardless of the order an experiment recorded them in.
pub fn build(name: &str, tables: &[Table]) -> Report {
    let mut snapshots = std::mem::take(&mut collector().snapshots);
    snapshots.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut recorder = Vec::new();
    // The flight-recorder sections are wall-clock derived, so they are only
    // present when profiling was explicitly enabled — default reports stay
    // deterministic.
    if netsim::profile::enabled() {
        let profile = netsim::profile::capture();
        recorder.push(("profile", render(&profile.capped(PROFILE_SCOPE_CAP))));
    }
    Report {
        name: name.to_string(),
        tables: render(tables),
        snapshots,
        recorder,
    }
}

/// Write the JSON run report for `name`, returning its path. Errors are
/// reported to stderr, never fatal: the human tables already printed.
pub fn emit(name: &str, tables: &[Table]) -> Option<PathBuf> {
    let report = build(name, tables);
    let dir = report_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("run-report: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| format!("{{\"error\":\"serialization failed: {e:?}\"}}"));
    match fs::write(&path, json) {
        Ok(()) => {
            eprintln!("run-report: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("run-report: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, because the collector is process-global and [`build`]
    /// drains it: as three tests on the harness's threads these steps stole
    /// each other's snapshots. Once it is on, the experiments' own unit
    /// tests record into it too, so from there on only this test's labels
    /// are looked at.
    #[test]
    fn collector_is_off_until_enabled_then_drains_sorted_by_label() {
        let mut w = World::new(1);
        w.enable_metrics();
        record_world("ignored", &w);
        record_value("ignored", &0u64);
        let mut t = Table::new("demo", &["a"]);
        t.row(&["1"]);
        let json = serde_json::to_string(&build("demo", &[t])).unwrap();
        assert!(json.contains("\"name\":\"demo\""));
        assert!(json.contains("\"schema\":\"run-report/v4\""));
        assert!(json.contains("\"tables\":["));
        assert!(json.contains("\"snapshots\":{}"), "off by default: {json}");

        enable();
        record_world("zz-world", &w);
        record_value("param", &42u64);
        record_value("aa-first", &2u64);
        let json = serde_json::to_string(&build("snap-test", &[])).unwrap();
        assert!(json.contains("\"zz-world\":{\"metrics\":{"), "{json}");
        assert!(json.contains("\"param\":42"), "{json}");
        let at = |label: &str| {
            json.find(label)
                .unwrap_or_else(|| panic!("{label}: {json}"))
        };
        assert!(
            at("\"aa-first\"") < at("\"param\"") && at("\"param\"") < at("\"zz-world\""),
            "labels sorted regardless of recording order: {json}"
        );
        // Drained: a second build has none of them.
        let json = serde_json::to_string(&build("snap-test", &[])).unwrap();
        for label in ["\"aa-first\"", "\"param\"", "\"zz-world\""] {
            assert!(!json.contains(label), "{label}: {json}");
        }
    }
}
