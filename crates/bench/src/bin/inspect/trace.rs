//! `inspect trace`: the causal packet-lifecycle spans a run report (or a
//! bare lifecycle JSON file) embeds. With no mode flag it prints an
//! overview of every snapshot. A run report can hold several labelled
//! snapshots; `--snapshot` picks one, otherwise the first snapshot
//! containing drops (falling back to the first with a lifecycle) is used.

use std::fs;
use std::process::ExitCode;

use netsim::{DropReason, Lifecycle, PacketId, PacketOutcome};
use serde::Value;

pub(crate) fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut snapshot = None;
    let mut mode = Mode::Overview;
    let [path] = crate::parse(args, |flag| {
        match flag.name {
            "--snapshot" => snapshot = Some(flag.value("a label")?),
            "--drops" => mode = Mode::Drops,
            "--flow" | "--flows" => mode = Mode::Flows,
            "--packet" => {
                let n = flag.value("a packet id")?;
                let n = n.trim_start_matches('p');
                mode = Mode::Packet(PacketId(
                    n.parse().map_err(|_| format!("bad packet id {n:?}"))?,
                ));
            }
            "--export-chrome" => mode = Mode::ExportChrome(flag.value("an output path")?),
            "--export-pcap" => mode = Mode::ExportPcap(flag.value("an output path")?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let doc = crate::load(path)?;

    let lifecycles = extract_lifecycles(&doc);
    if lifecycles.is_empty() {
        return Err(format!(
            "{path}: no lifecycle data (is this a run-report/v2+ file from a \
             metrics-enabled run?)"
        ));
    }
    let (label, lc) = pick_snapshot(&lifecycles, snapshot.as_deref())?;
    eprintln!(
        "inspect: {path}: snapshot {label:?} ({} packets, {} flows)",
        lc.packets.len(),
        lc.flows.len(),
    );

    match mode {
        Mode::Overview => overview(&lifecycles),
        Mode::Drops => drops(lc),
        Mode::Flows => flows(lc),
        Mode::Packet(id) => packet(lc, id)?,
        Mode::ExportChrome(out) => {
            let json =
                serde_json::to_string_pretty(&lc.chrome_trace()).map_err(|e| e.to_string())?;
            fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote Chrome trace to {out} (load in chrome://tracing or Perfetto)");
        }
        Mode::ExportPcap(out) => {
            let f = fs::File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
            let n = lc
                .write_pcapng(std::io::BufWriter::new(f))
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {n} packet records to {out}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

enum Mode {
    Overview,
    Drops,
    Flows,
    Packet(PacketId),
    ExportChrome(String),
    ExportPcap(String),
}

/// Pull every lifecycle out of the document: either snapshots of a run
/// report (`snapshots.<label>.lifecycle`) or a bare lifecycle object.
fn extract_lifecycles(doc: &Value) -> Vec<(String, Lifecycle)> {
    if let Some(lc) = Lifecycle::from_value(doc) {
        return vec![("<file>".into(), lc)];
    }
    let snapshots = doc.get("snapshots").and_then(Value::as_object);
    let mut out = Vec::new();
    for (label, snap) in snapshots.into_iter().flatten() {
        if let Some(lc) = snap.get("lifecycle").and_then(Lifecycle::from_value) {
            out.push((label.clone(), lc));
        }
    }
    out
}

fn pick_snapshot<'a>(
    all: &'a [(String, Lifecycle)],
    wanted: Option<&str>,
) -> Result<&'a (String, Lifecycle), String> {
    let Some(w) = wanted else {
        let dropping = all.iter().find(|(_, lc)| lc.dropped().next().is_some());
        return Ok(dropping.unwrap_or(&all[0]));
    };
    all.iter().find(|(l, _)| l == w).ok_or_else(|| {
        let labels: Vec<&str> = all.iter().map(|(l, _)| l.as_str()).collect();
        format!("no snapshot {w:?}; have {labels:?}")
    })
}

fn overview(all: &[(String, Lifecycle)]) {
    for (label, lc) in all {
        let drops = lc.dropped().count();
        println!(
            "snapshot {label:>12}: {:3} packets, {:2} flows, {drops} dropped",
            lc.packets.len(),
            lc.flows.len(),
        );
    }
    println!();
    println!("pick a view: --drops, --flow, --packet N, --export-chrome, --export-pcap");
}

/// Print every drop's full causal chain, root packet first.
fn drops(lc: &Lifecycle) {
    let dropped: Vec<_> = lc.dropped().collect();
    if dropped.is_empty() {
        println!("no drops recorded");
        return;
    }
    for p in dropped {
        let PacketOutcome::Dropped(node, reason) = p.outcome else {
            unreachable!("dropped() filters on the outcome");
        };
        println!(
            "{} {} dropped at {} — {}",
            p.id,
            p.flow,
            lc.node_name(node),
            reason.tag()
        );
        let chain = lc.chain(p.id);
        if lc.packet(chain[0]).is_none() {
            // `record_transform` identifies a parent it never saw an event of.
            println!(
                "  {} (no events recorded: known only as a parent)",
                chain[0]
            );
        }
        for id in chain {
            if let Some(span) = lc.packet(id) {
                print_span(lc, span, "  ");
            }
        }
        println!();
    }
}

fn flows(lc: &Lifecycle) {
    println!(
        "{:>4} {:>18} {:>18} {:>5} {:>4} {:>5} {:>8} {:>4} {:>5} {:>6}  drops",
        "flow", "src", "dst", "proto", "pkts", "wire", "bytes", "dlvr", "retx", "encap+"
    );
    for f in &lc.flows {
        let drops = DropReason::ALL
            .into_iter()
            .filter(|r| f.counts.drops[r.index()] > 0)
            .map(|r| format!("{}×{}", f.counts.drops[r.index()], r.tag()))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{:>4} {:>18} {:>18} {:>5} {:>4} {:>5} {:>8} {:>4} {:>5} {:>6}  {}",
            f.flow.to_string(),
            f.src.to_string(),
            f.dst.to_string(),
            f.protocol.number(),
            f.packets,
            f.counts.wire_events,
            f.counts.bytes_on_wire,
            f.counts.deliveries,
            f.retransmissions,
            f.encap_overhead_bytes,
            drops
        );
    }
}

fn packet(lc: &Lifecycle, id: PacketId) -> Result<(), String> {
    if lc.packet(id).is_none() {
        return Err(format!(
            "no span for {id} (it may have been omitted by the report cap)"
        ));
    }
    // Show the whole chain for context, highlighting the requested span.
    for cid in lc.chain(id) {
        match lc.packet(cid) {
            Some(s) => print_span(lc, s, if cid == id { "* " } else { "  " }),
            None => println!("  {cid} (no span in this report)"),
        }
    }
    Ok(())
}

/// One span, one line per event, with per-hop latency annotations.
fn print_span(lc: &Lifecycle, p: &netsim::PacketLifecycle, indent: &str) {
    let head = p.events.first().map(|e| &e.packet);
    let what = match head {
        Some(s) => format!(
            "{} → {} proto {} len {}",
            s.src,
            s.dst,
            s.protocol.number(),
            s.wire_len
        ),
        None => "(no events)".into(),
    };
    let parent = match p.parent {
        Some(par) => format!(" (from {par})"),
        None => String::new(),
    };
    let truncated = if p.truncated { " [truncated]" } else { "" };
    println!("{indent}{} {}{parent}{truncated}: {what}", p.id, p.flow);
    for e in &p.events {
        let note = match e.kind {
            netsim::TraceEventKind::Dropped(r) => format!(" — {}", r.tag()),
            netsim::TraceEventKind::Transformed(t) => format!(" — {t}"),
            _ => String::new(),
        };
        println!(
            "{indent}  {:>8}µs {:<10} @ {}{note}",
            e.at.0,
            e.kind.tag(),
            lc.node_name(e.node)
        );
    }
    for h in &p.hops {
        println!(
            "{indent}  hop {} → {}: {}µs",
            lc.node_name(h.from),
            lc.node_name(h.to),
            h.latency.as_micros()
        );
    }
}
