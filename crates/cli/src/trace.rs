//! `dlb trace` — inspect, verify, and export recorded frame logs.
//!
//! A `trace=frames:FILE` scenario writes a binary frame log; this
//! module is its operator surface:
//!
//! * `dlb trace show FILE` — render the event stream as an aligned
//!   table (the `dlb report` renderer), filterable by participant
//!   (`--node`), event kind or family (`--kind`), and virtual-time
//!   window (`--from`/`--to` ms), with `--limit` to cap the rows.
//! * `dlb trace replay FILE` — re-derive the recorded run from the
//!   log's own scenario header and prove bit-exactness: the event
//!   stream, the event hash, and the trailer outcomes must all match.
//!   A divergence is an error (non-zero exit) naming the first
//!   disagreement.
//! * `dlb trace chrome FILE` — export Chrome trace-event JSON
//!   (`chrome://tracing`, Perfetto) to `--out` or stdout.

use crate::args::{ArgError, Args};
use dlb_bench::report::render_report;
use dlb_bench::results::Record;
use dlb_obs::{tag_label, Compact, FrameLog, TraceEvent, NODE_COORD};
use dlb_scenario::replay_frame_log;

/// The `--node`/`--kind`/`--from`/`--to` filter, parsed once.
struct Filter {
    node: Option<u32>,
    kind: Option<String>,
    from_ms: f64,
    to_ms: f64,
}

impl Filter {
    fn parse(args: &Args) -> Result<Filter, ArgError> {
        let node = match args.get("node") {
            None => None,
            Some("coord") => Some(NODE_COORD),
            Some(v) => Some(v.parse::<u32>().map_err(|_| {
                ArgError(format!(
                    "--node: '{v}' is not an organization id or 'coord'"
                ))
            })?),
        };
        Ok(Filter {
            node,
            kind: args.get("kind").map(str::to_string),
            from_ms: parse_ms(args, "from", f64::NEG_INFINITY)?,
            to_ms: parse_ms(args, "to", f64::INFINITY)?,
        })
    }

    /// Whether the event survives the filter. `--node` matches either
    /// participant; `--kind` matches the exact label
    /// (`frame_delivered`) or the whole family (`frame`).
    fn admits(&self, e: &TraceEvent) -> bool {
        if let Some(node) = self.node {
            if e.node != node && e.peer != node {
                return false;
            }
        }
        if let Some(kind) = &self.kind {
            if e.kind.label() != kind && e.kind.family() != kind {
                return false;
            }
        }
        e.at_ms >= self.from_ms && e.at_ms <= self.to_ms
    }
}

fn parse_ms(args: &Args, key: &str, default: f64) -> Result<f64, ArgError> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v
            .trim_end_matches("ms")
            .parse::<f64>()
            .map_err(|_| ArgError(format!("--{key}: '{v}' is not a virtual time in ms"))),
    }
}

fn decode(path: &str, bytes: &[u8]) -> Result<FrameLog, ArgError> {
    FrameLog::decode(bytes).map_err(|e| ArgError(format!("{path}: not a frame log ({e})")))
}

fn cmd_show(args: &Args, path: &str, bytes: &[u8]) -> Result<(), ArgError> {
    let log = decode(path, bytes)?;
    let filter = Filter::parse(args)?;
    let limit = args.get_usize("limit", usize::MAX)?;
    let total = log.events.len();
    let matched: Vec<&TraceEvent> = log.events.iter().filter(|e| filter.admits(e)).collect();
    println!("scenario: {}", log.spec);
    println!(
        "recorded: {} events, event_hash {:#018x}, {} rounds, final ΣC = {:.1}, {:.1} virtual ms",
        total,
        log.trailer.event_hash,
        log.trailer.rounds,
        log.trailer.final_cost,
        log.trailer.virtual_ms
    );
    if matched.is_empty() {
        println!("no events match the filter");
        return Ok(());
    }
    let mut jsonl = String::new();
    for e in matched.iter().take(limit) {
        let row = Record::new("trace")
            .num("at_ms", e.at_ms)
            .str("event", e.kind.label())
            .str("node", &TraceEvent::node_label(e.node))
            .str("peer", &TraceEvent::node_label(e.peer))
            .int("round", e.round as i64)
            .str("tag", tag_label(e.tag))
            .num("detail", e.detail);
        jsonl.push_str(&row.to_json());
        jsonl.push('\n');
    }
    println!("{}", render_report(&jsonl).map_err(ArgError)?);
    if matched.len() > limit {
        println!(
            "... ({} more matching events; raise --limit)",
            matched.len() - limit
        );
    }
    Ok(())
}

fn cmd_replay(path: &str, bytes: &[u8]) -> Result<(), ArgError> {
    let report = replay_frame_log(bytes).map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!("scenario: {}", report.spec);
    println!(
        "recorded: event_hash {:#018x}, {} rounds, {} exchanges, final ΣC = {:.1}",
        report.recorded.event_hash,
        report.recorded.rounds,
        report.recorded.exchanges,
        Compact(report.recorded.final_cost)
    );
    println!(
        "replayed: event_hash {:#018x}, {} events",
        report.replayed_hash, report.replayed_events
    );
    match &report.divergence {
        None => {
            println!("replay is bit-exact");
            Ok(())
        }
        Some(d) => Err(ArgError(format!("{path}: replay diverged — {d}"))),
    }
}

fn cmd_chrome(args: &Args, path: &str, bytes: &[u8]) -> Result<(), ArgError> {
    let log = decode(path, bytes)?;
    let json = dlb_obs::chrome::render(&log);
    match args.get("out") {
        Some(out) => {
            std::fs::write(out, &json)
                .map_err(|e| ArgError(format!("--out {out}: cannot write ({e})")))?;
            println!(
                "wrote {} events as Chrome trace JSON to {out} (load in chrome://tracing or Perfetto)",
                log.events.len()
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// Entry point for `dlb trace ACTION FILE`.
pub fn cmd_trace(args: &Args) -> Result<(), ArgError> {
    let (action, path) = match args.positionals.as_slice() {
        [action, path] => (action.as_str(), path.as_str()),
        _ => {
            return Err(ArgError(
                "trace needs an action and a file: dlb trace show|replay|chrome FILE".into(),
            ))
        }
    };
    let bytes = std::fs::read(path).map_err(|e| ArgError(format!("{path}: cannot read ({e})")))?;
    match action {
        "show" => cmd_show(args, path, &bytes),
        "replay" => cmd_replay(path, &bytes),
        "chrome" => cmd_chrome(args, path, &bytes),
        other => Err(ArgError(format!(
            "unknown trace action '{other}' (expected show, replay, or chrome)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_obs::TraceKind;

    fn event(kind: TraceKind, at_ms: f64, node: u32, peer: u32) -> TraceEvent {
        TraceEvent {
            kind,
            at_ms,
            node,
            peer,
            round: 1,
            tag: 0,
            detail: 0.0,
        }
    }

    #[test]
    fn filter_matches_either_participant_kind_or_family_and_window() {
        let args = Args::parse(
            [
                "trace", "show", "log", "--node", "3", "--kind", "frame", "--from", "10", "--to",
                "20ms",
            ],
            &["node", "kind", "from", "to"],
        )
        .unwrap();
        let f = Filter::parse(&args).unwrap();
        assert!(f.admits(&event(TraceKind::FrameDelivered, 15.0, 3, 7)));
        assert!(f.admits(&event(TraceKind::FrameDropped, 10.0, 7, 3)));
        assert!(!f.admits(&event(TraceKind::FrameDelivered, 15.0, 4, 7))); // wrong node
        assert!(!f.admits(&event(TraceKind::TimerFired, 15.0, 3, 3))); // wrong family
        assert!(!f.admits(&event(TraceKind::FrameDelivered, 25.0, 3, 7))); // outside window
    }

    #[test]
    fn filter_accepts_coord_and_exact_labels() {
        let args = Args::parse(
            [
                "trace",
                "show",
                "log",
                "--node",
                "coord",
                "--kind",
                "round_end",
            ],
            &["node", "kind", "from", "to"],
        )
        .unwrap();
        let f = Filter::parse(&args).unwrap();
        assert!(f.admits(&event(TraceKind::RoundEnd, 5.0, NODE_COORD, 0)));
        assert!(!f.admits(&event(TraceKind::RoundBegin, 5.0, NODE_COORD, 0)));
    }

    #[test]
    fn bad_filter_values_error() {
        let args =
            Args::parse(["trace", "show", "log", "--node", "xyz"], &["node", "kind"]).unwrap();
        assert!(Filter::parse(&args).is_err());
        let args = Args::parse(["trace", "show", "log", "--from", "abc"], &["from"]).unwrap();
        assert!(parse_ms(&args, "from", 0.0).is_err());
    }
}
