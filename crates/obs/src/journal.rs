//! The structured event journal: engine lifecycle events (reclaim
//! demotions/purges, compaction runs, recovery and quarantine outcomes,
//! drift flags, plan-choice flips) persisted as JSONL alongside the metric
//! timeline.
//!
//! Each event is stamped with `snap_seq` — the sequence number of the metric
//! snapshot it was flushed with — so an operator can line an event up with
//! the exact metric deltas that surrounded it (see [`crate::timeline`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{push_json_string, JsonValue};

/// One engine lifecycle event.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineEvent {
    /// Sequence number of the metric snapshot this event landed in.
    pub snap_seq: u64,
    /// Unix timestamp in milliseconds.
    pub t_ms: u64,
    /// Event kind, dot-namespaced like metrics (e.g. `reclaim.demote`,
    /// `reclaim.purge`, `compaction`, `recovery`, `quarantine`,
    /// `drift.flagged`, `plan.flip`, `qcache.storm`).
    pub kind: String,
    /// The intermediate the event concerns, when there is one.
    pub intermediate: Option<String>,
    /// Free-form key=value detail payload (`from`/`to`/`bytes`/`gamma`…).
    pub details: BTreeMap<String, String>,
}

impl EngineEvent {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"k\":\"ev\",\"seq\":{},\"t_ms\":{},\"kind\":",
            self.snap_seq, self.t_ms
        );
        push_json_string(&mut out, &self.kind);
        out.push_str(",\"interm\":");
        match &self.intermediate {
            Some(i) => push_json_string(&mut out, i),
            None => out.push_str("null"),
        }
        out.push_str(",\"details\":{");
        for (i, (k, v)) in self.details.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            push_json_string(&mut out, v);
        }
        out.push_str("}}");
        out
    }

    /// Parse a JSONL line previously produced by [`EngineEvent::to_json_line`].
    /// Returns `None` for lines that are not event records (torn tails,
    /// foreign content).
    pub fn from_json(v: &JsonValue) -> Option<EngineEvent> {
        if v.get("k")?.as_str()? != "ev" {
            return None;
        }
        let details = v
            .get("details")?
            .as_obj()?
            .iter()
            .filter_map(|(k, d)| Some((k.clone(), d.as_str()?.to_string())))
            .collect();
        Some(EngineEvent {
            snap_seq: v.get("seq")?.as_u64()?,
            t_ms: v.get("t_ms")?.as_u64()?,
            kind: v.get("kind")?.as_str()?.to_string(),
            intermediate: v.get("interm").and_then(|i| i.as_str()).map(str::to_string),
            details,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> EngineEvent {
        EngineEvent {
            snap_seq: 7,
            t_ms: 1_700_000_000_123,
            kind: "reclaim.demote".into(),
            intermediate: Some("m1.stage3".into()),
            details: [
                ("from".to_string(), "FULL".to_string()),
                ("to".to_string(), "LP_QT".to_string()),
                ("gamma".to_string(), "0.0013".to_string()),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let ev = sample();
        let line = ev.to_json_line();
        let parsed = EngineEvent::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, ev);
    }

    #[test]
    fn missing_intermediate_round_trips_as_none() {
        let mut ev = sample();
        ev.intermediate = None;
        ev.details.clear();
        let parsed = EngineEvent::from_json(&json::parse(&ev.to_json_line()).unwrap()).unwrap();
        assert_eq!(parsed.intermediate, None);
        assert!(parsed.details.is_empty());
    }

    #[test]
    fn foreign_records_are_rejected() {
        let v = json::parse("{\"k\":\"pt\",\"seq\":1}").unwrap();
        assert!(EngineEvent::from_json(&v).is_none());
        let v = json::parse("{\"seq\":1}").unwrap();
        assert!(EngineEvent::from_json(&v).is_none());
    }
}
