//! The metric catalogue: every name the benchmark can print, with its
//! unit and direction, and `BENCHMARK.json` generated from it. A test
//! keeps the committed file equal to what this module renders.

use serde::Value;

use crate::workloads::WORKLOADS;

/// `(name, unit, better, bound)`: the end-to-end metrics a user of the
/// simulator sees. `bound` is the share of the parent's median by which a
/// metric may worsen before a change counts as a regression.
///
/// `failed_ops_share` is printed with these but not listed: the contract
/// wants metrics that are never 0 and carries failures in the result's
/// `attempted` / `failed` / `correct` keys, where any failure at all makes
/// a run incorrect.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("allocs_per_op", "allocs/op", "lower", 0.02),
    ("live_mib", "MiB", "lower", 0.02),
    ("setup_s", "s", "lower", 0.25),
];

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// `(name, unit, better)`: spans and counts, probes, and the tracing
/// overhead. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 95] = [
    // scale: measured around build_world and one run_churn call per phase.
    ("scale.build_world_s", "s", LOWER),
    ("scale.build_bytes_per_host", "B/host", LOWER),
    ("scale.handoff_storm_s", "s", LOWER),
    ("scale.flash_crowd_s", "s", LOWER),
    ("scale.rereg_stampede_s", "s", LOWER),
    ("scale.live_bytes_per_host", "B/host", LOWER),
    // metrics: read from world.metrics after churn.
    ("metrics.nodes_touched", "count", LOWER),
    ("metrics.bytes_per_touched_node", "B/node", LOWER),
    ("metrics.totals_s", "s", LOWER),
    // report: observe_world / build / serde_json::to_string.
    ("report.observe_world_s", "s", LOWER),
    ("report.build_s", "s", LOWER),
    ("report.json_s", "s", LOWER),
    ("report.json_bytes", "B", LOWER),
    // experiments: each experiment's run().
    ("experiments.fig01_basic_s", "s", LOWER),
    ("experiments.fig02_filtering_s", "s", LOWER),
    ("experiments.fig03_bitunnel_s", "s", LOWER),
    ("experiments.fig04_triangle_s", "s", LOWER),
    ("experiments.fig05_smart_ch_s", "s", LOWER),
    ("experiments.fig06_formats_s", "s", LOWER),
    ("experiments.fig10_grid_s", "s", LOWER),
    ("experiments.probing_s", "s", LOWER),
    ("experiments.http_s", "s", LOWER),
    ("experiments.handoff_s", "s", LOWER),
    ("experiments.multicast_s", "s", LOWER),
    ("experiments.feedback_s", "s", LOWER),
    ("experiments.foreign_agent_s", "s", LOWER),
    ("experiments.encap_s", "s", LOWER),
    ("experiments.decap_risk_s", "s", LOWER),
    ("experiments.lsr_s", "s", LOWER),
    ("experiments.observer_cost_ratio", "ratio", LOWER),
    // world / event: run_until_idle, run_for, host_do, scheduler_stats().
    ("world.run_s", "s", LOWER),
    ("world.inject_s", "s", LOWER),
    ("world.events_per_op", "events/op", LOWER),
    ("world.ns_per_event", "ns/event", LOWER),
    ("world.drop_s", "s", LOWER),
    ("event.pushed_per_op", "events/op", LOWER),
    ("event.cancelled_per_op", "events/op", LOWER),
    // shard: World::shard_stats() and the serial reference run.
    ("shard.windows_per_op", "count", LOWER),
    ("shard.stalls_per_op", "count", LOWER),
    ("shard.border_msgs_per_op", "count", LOWER),
    ("shard.busiest_share", "ratio", LOWER),
    ("shard.serial_ref_s", "s", LOWER),
    ("shard.speedup_vs_serial", "ratio", HIGHER),
    // scenario / grid: build + roam + register; per-cell measured phase.
    ("scenario.build_s", "s", LOWER),
    ("grid.In-IE_Out-IE.ns_per_op", "ns/op", LOWER),
    ("grid.In-IE_Out-DE.ns_per_op", "ns/op", LOWER),
    ("grid.In-IE_Out-DH.ns_per_op", "ns/op", LOWER),
    ("grid.In-DE_Out-DE.ns_per_op", "ns/op", LOWER),
    ("grid.In-DE_Out-DH.ns_per_op", "ns/op", LOWER),
    ("grid.In-DH_Out-DH.ns_per_op", "ns/op", LOWER),
    ("grid.In-DT_Out-DT.ns_per_op", "ns/op", LOWER),
    // udp / tcp: sub-phase spans and tcp::stats.
    ("udp.echo_ns.4B", "ns/op", LOWER),
    ("udp.echo_ns.512B", "ns/op", LOWER),
    ("udp.echo_ns.1400B", "ns/op", LOWER),
    ("tcp.bulk_s", "s", LOWER),
    ("tcp.segs_per_kib", "segs/KiB", LOWER),
    ("tcp.retransmitted", "count", LOWER),
    ("tcp.sim_goodput_mib_s", "MiB/s", HIGHER),
    // mobility: Policy::cache_stats, HaStats, MhStats.
    ("policy.decisions_per_op", "count", LOWER),
    ("policy.hit_ratio", "ratio", HIGHER),
    ("home_agent.tunneled_per_op", "count", LOWER),
    ("mobile_host.mode_purity", "ratio", HIGHER),
    // Probes, per operation.
    ("event.push_pop_ns", "ns", LOWER),
    ("event.cancel_ns", "ns", LOWER),
    ("route.lookup_cached_ns", "ns", LOWER),
    ("route.lookup_uncached_ns", "ns", LOWER),
    ("route.compute_routes_ms", "ms", LOWER),
    ("wire.frame_parse_ns.64B", "ns", LOWER),
    ("wire.frame_parse_ns.1400B", "ns", LOWER),
    ("wire.frame_emit_ns.64B", "ns", LOWER),
    ("wire.frame_emit_ns.1400B", "ns", LOWER),
    ("wire.encap_ns.ipip", "ns", LOWER),
    ("wire.encap_ns.minimal", "ns", LOWER),
    ("wire.encap_ns.gre", "ns", LOWER),
    ("wire.decap_ns.ipip", "ns", LOWER),
    ("wire.tcpseg_roundtrip_ns.1400B", "ns", LOWER),
    ("wire.udp_roundtrip_ns.64B", "ns", LOWER),
    ("router.patch_forward_ns.64B", "ns", LOWER),
    ("router.patch_forward_ns.1400B", "ns", LOWER),
    ("policy.hit_ns", "ns", LOWER),
    ("policy.miss_evict_ns", "ns", LOWER),
    ("policy.rule_match_ns.1024", "ns", LOWER),
    ("registration.emit_parse_ns", "ns", LOWER),
    ("metrics.first_touch_ns", "ns", LOWER),
    ("metrics.first_touch_bytes", "B", LOWER),
    ("metrics.record_hot_ns", "ns", LOWER),
    ("trace.record_ns", "ns", LOWER),
    ("lifecycle.reconstruct_ns_per_event", "ns", LOWER),
    ("telemetry.space_saving_offer_ns", "ns", LOWER),
    ("telemetry.reservoir_offer_ns", "ns", LOWER),
    ("profile.scope_off_ns", "ns", LOWER),
    ("profile.scope_on_ns", "ns", LOWER),
    ("arena.intern_hit_ns", "ns", LOWER),
    ("serde_json.write_mib_s", "MiB/s", HIGHER),
    // 1 − traced ÷ untraced repetition rate.
    ("trace.overhead_share", "ratio", LOWER),
];

/// What the driver appends `--workload … --seed … --seconds … --trace …` to.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
    "--probes",
];

/// Measured-phase seconds per driver run. The driver makes 4 + 22 × 5
/// runs inside 3 420 s. At 10 s a run of the slowest workloads
/// (`churn_observed`, with its cold repetition and a world build per
/// repetition, and `churn_shards2`, whose every repetition also builds and
/// runs a serial reference) takes about 16 s of wall, a sweep of all five
/// about 65 s, and the probes add 5 s to a traced run: about 1 600 s in
/// all, which leaves a slower driver room. A lower cap would shrink this
/// number, never the world sizes.
pub const RUN_SECONDS: u64 = 10;

fn object(fields: &[(&str, Value)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `BENCHMARK.json`, pretty-printed.
pub fn manifest() -> String {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| text(s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| object(&[("name", text(name)), ("why", text(why))]));
    let end_to_end = END_TO_END.iter().map(|(name, unit, better, bound)| {
        object(&[
            ("name", text(name)),
            ("unit", text(unit)),
            ("better", text(better)),
            ("bound", Value::F64(*bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|(name, unit, better)| {
        object(&[
            ("name", text(name)),
            ("unit", text(unit)),
            ("better", text(better)),
        ])
    });
    let doc = object(&[
        ("command", strings(&COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        ("workloads", Value::Array(workloads.collect())),
        ("end_to_end", Value::Array(end_to_end.collect())),
        ("per_layer", Value::Array(per_layer.collect())),
    ]);
    let mut json = serde_json::to_string_pretty(&doc).expect("rendering a value tree cannot fail");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn well_formed_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(well_formed_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");

        for (_, unit, better, bound) in END_TO_END {
            assert!(well_formed_unit(unit), "{unit}");
            assert!(better == "higher" || better == "lower");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (_, unit, _) in PER_LAYER {
            assert!(well_formed_unit(unit), "{unit}");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        let largest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
        assert_eq!(END_TO_END[3].3, largest, "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with: cargo run --release --offline --manifest-path \
             benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
