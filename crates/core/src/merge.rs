//! Cross-process trace merging: `pdc-trace/2` in, `pdc-trace/3` out.
//!
//! When an MPI world runs its ranks as separate OS processes (see
//! `pdc-mpi`'s `WireTransport`), there is no shared [`TraceSession`]:
//! each rank process records into its own session and writes an
//! ordinary `pdc-trace/2` snapshot to disk before exiting. The parent
//! then parses those per-process documents with [`parse_trace`] and
//! combines them with [`MergedTrace::merge`] into one **`pdc-trace/3`**
//! snapshot:
//!
//! ```json
//! {"schema":"pdc-trace/3",
//!  "meta":{...},
//!  "counters":{"mpi.msgs":12,...},          // summed across processes
//!  "per_process":[{"process":0,"dropped":0,"counters":{...}},...],
//!  "events":[{"ts":3,"process":1,"actor":1,"kind":"send",...},...],
//!  "dropped":0}
//! ```
//!
//! Schema 3 extends schema 2 with exactly one concept: the `process`
//! field. Top-level `counters` are the **cross-process sums** (so
//! `mpi.msgs` means the same thing it means in a single-process traced
//! world), `per_process` keeps the unsummed originals, and every event
//! carries the process that recorded it. Timestamps are each process's
//! *local* logical clock — they order events within a process but not
//! across processes; consumers that need a causally consistent global
//! order (e.g. `pdc-analyze`'s process-aware MPI lint) rebuild one from
//! the send/recv structure.
//!
//! The parser reads the JSON this workspace writes (see
//! [`TraceSession::to_json`]) through [`crate::json`], a real
//! tokenizer, so field order and unknown keys don't break it.
//!
//! [`TraceSession`]: crate::trace::TraceSession
//! [`TraceSession::to_json`]: crate::trace::TraceSession::to_json

use crate::json::{self, Value};
use crate::report::json_escape;
use crate::trace::{Event, EventKind};
use std::collections::BTreeMap;

/// One process's contribution to a merged trace: the parsed body of a
/// `pdc-trace/2` snapshot plus the process id it ran as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessTrace {
    /// Which OS process recorded this slice (for MPI worlds, the rank).
    pub process: u32,
    /// Counter totals as recorded by this process (unsummed).
    pub counters: BTreeMap<String, u64>,
    /// Events in this process's local logical-clock order.
    pub events: Vec<Event>,
    /// Events this process discarded because a buffer filled.
    pub dropped: u64,
}

/// A multi-process trace: every process's slice, ready to export as
/// `pdc-trace/3` or feed to process-aware analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergedTrace {
    /// Per-process slices, sorted by process id.
    pub processes: Vec<ProcessTrace>,
}

impl MergedTrace {
    /// Combine per-process slices (sorts them by process id).
    pub fn merge(mut parts: Vec<ProcessTrace>) -> MergedTrace {
        parts.sort_by_key(|p| p.process);
        MergedTrace { processes: parts }
    }

    /// Cross-process counter sums: the schema-3 top-level `counters`
    /// object. Summing is the right combination for monotone counters —
    /// `mpi.msgs` over all rank processes is total messages sent, just
    /// as it is when the ranks share one registry.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for p in &self.processes {
            for (k, v) in &p.counters {
                *out.entry(k.clone()).or_insert(0) += v;
            }
        }
        out
    }

    /// One summed counter (0 when absent from every process).
    pub fn counter(&self, name: &str) -> u64 {
        self.processes
            .iter()
            .filter_map(|p| p.counters.get(name))
            .sum()
    }

    /// Total events dropped across all processes.
    pub fn dropped(&self) -> u64 {
        self.processes.iter().map(|p| p.dropped).sum()
    }

    /// All events as `(process, event)` pairs, concatenated in process
    /// order (each process's slice keeps its local order).
    pub fn events(&self) -> Vec<(u32, Event)> {
        let mut out = Vec::new();
        for p in &self.processes {
            out.extend(p.events.iter().map(|e| (p.process, *e)));
        }
        out
    }

    /// Export as one `pdc-trace/3` JSON document.
    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"schema\":\"pdc-trace/3\"");
        if !meta.is_empty() {
            out.push_str(",\"meta\":{");
            for (i, (k, v)) in meta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push('}');
        }
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), value));
        }
        out.push_str("},\"per_process\":[");
        for (i, p) in self.processes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"process\":{},\"dropped\":{},\"counters\":{{",
                p.process, p.dropped
            ));
            for (j, (name, value)) in p.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", json_escape(name), value));
            }
            out.push_str("}}");
        }
        out.push_str("],\"events\":[");
        let mut first = true;
        for p in &self.processes {
            for e in &p.events {
                if !first {
                    out.push(',');
                }
                first = false;
                // An ordinary schema-2 event object with the process
                // id spliced in after ts.
                let body = e.to_json();
                let rest = body
                    .strip_prefix(&format!("{{\"ts\":{},", e.ts))
                    .expect("event json starts with ts");
                out.push_str(&format!(
                    "{{\"ts\":{},\"process\":{},{rest}",
                    e.ts, p.process
                ));
            }
        }
        out.push_str(&format!("],\"dropped\":{}}}", self.dropped()));
        out
    }

    /// Parse a `pdc-trace/3` document written by [`MergedTrace::to_json`]
    /// back into per-process slices.
    pub fn parse(json: &str) -> Result<MergedTrace, String> {
        let doc = json::parse(json)?;
        let obj = doc.as_object().ok_or("top level is not an object")?;
        match obj.get("schema").and_then(Value::as_str) {
            Some("pdc-trace/3") => {}
            other => return Err(format!("not a pdc-trace/3 document: {other:?}")),
        }
        let mut slices: BTreeMap<u32, ProcessTrace> = BTreeMap::new();
        if let Some(Value::Array(pp)) = obj.get("per_process") {
            for p in pp {
                let po = p.as_object().ok_or("per_process entry not an object")?;
                let id = get_u64(po, "process")? as u32;
                slices.insert(
                    id,
                    ProcessTrace {
                        process: id,
                        counters: parse_counters(po.get("counters"))?,
                        events: Vec::new(),
                        dropped: get_u64(po, "dropped").unwrap_or(0),
                    },
                );
            }
        }
        if let Some(Value::Array(events)) = obj.get("events") {
            for e in events {
                let eo = e.as_object().ok_or("event not an object")?;
                let process = get_u64(eo, "process")? as u32;
                let ev = parse_event(eo)?;
                slices
                    .entry(process)
                    .or_insert_with(|| ProcessTrace {
                        process,
                        counters: BTreeMap::new(),
                        events: Vec::new(),
                        dropped: 0,
                    })
                    .events
                    .push(ev);
            }
        }
        Ok(MergedTrace {
            processes: slices.into_values().collect(),
        })
    }
}

/// Parse one `pdc-trace/2` snapshot (as written by
/// [`TraceSession::to_json`](crate::trace::TraceSession::to_json)) into
/// a [`ProcessTrace`] recorded as `process`.
pub fn parse_trace(json: &str, process: u32) -> Result<ProcessTrace, String> {
    let doc = json::parse(json)?;
    let obj = doc.as_object().ok_or("top level is not an object")?;
    match obj.get("schema").and_then(Value::as_str) {
        Some("pdc-trace/1") | Some("pdc-trace/2") => {}
        other => return Err(format!("not a pdc-trace/1|2 document: {other:?}")),
    }
    let mut events = Vec::new();
    if let Some(Value::Array(evs)) = obj.get("events") {
        for e in evs {
            let eo = e.as_object().ok_or("event not an object")?;
            events.push(parse_event(eo)?);
        }
    }
    Ok(ProcessTrace {
        process,
        counters: parse_counters(obj.get("counters"))?,
        events,
        dropped: get_u64(obj, "dropped").unwrap_or(0),
    })
}

fn parse_counters(v: Option<&Value>) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    if let Some(Value::Object(fields)) = v {
        for (k, v) in fields {
            out.insert(
                k.clone(),
                v.as_u64().ok_or_else(|| format!("counter {k} not a u64"))?,
            );
        }
    }
    Ok(out)
}

/// Rebuild an [`Event`] from a parsed object. The payload fields are
/// matched by the kind's schema names, falling back to positional `a`/`b`
/// for forward compatibility.
fn parse_event(eo: &BTreeMap<String, Value>) -> Result<Event, String> {
    let kind_name = eo
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("event has no kind")?;
    let kind = EventKind::parse_name(kind_name)
        .ok_or_else(|| format!("unknown event kind {kind_name:?}"))?;
    let (fa, fb) = kind.field_names();
    Ok(Event {
        ts: get_u64(eo, "ts")?,
        actor: get_u64(eo, "actor")? as u32,
        kind,
        a: get_u64(eo, fa).or_else(|_| get_u64(eo, "a"))?,
        b: get_u64(eo, fb).or_else(|_| get_u64(eo, "b"))?,
    })
}

fn get_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSession;

    fn session_with(process_hint: u32, n_events: u64) -> (TraceSession, String) {
        let s = TraceSession::new();
        s.counter("mpi.msgs").add(n_events);
        s.counter("mpi.bytes").add(8 * n_events);
        let t = s.thread(process_hint);
        for i in 0..n_events {
            t.record(EventKind::Send, (process_hint as u64 + 1) % 2, 8 + i);
        }
        let json = s.to_json_with_meta(&[("process", process_hint.to_string())]);
        (s, json)
    }

    #[test]
    fn roundtrip_trace2_through_parser() {
        let (session, json) = session_with(0, 3);
        let parsed = parse_trace(&json, 0).unwrap();
        assert_eq!(parsed.process, 0);
        assert_eq!(parsed.counters.get("mpi.msgs"), Some(&3));
        assert_eq!(parsed.counters.get("mpi.bytes"), Some(&24));
        assert_eq!(parsed.events.len(), 3);
        assert_eq!(parsed.events, session.events());
        assert_eq!(parsed.dropped, 0);
    }

    #[test]
    fn parser_survives_meta_tables_and_escapes() {
        let s = TraceSession::new();
        s.counter("kv.conn_errors").inc();
        let json = s.to_json_with_tables(
            &[("note", "a \"quoted\"\nline\twith\\stuff".to_string())],
            &["{\"title\":\"T\",\"headers\":[\"x\"],\"rows\":[[\"1\"]]}".to_string()],
        );
        let parsed = parse_trace(&json, 7).unwrap();
        assert_eq!(parsed.process, 7);
        assert_eq!(parsed.counters.get("kv.conn_errors"), Some(&1));
        assert!(parsed.events.is_empty());
    }

    #[test]
    fn merged_counters_sum_across_processes() {
        let (_, j0) = session_with(0, 2);
        let (_, j1) = session_with(1, 5);
        let merged = MergedTrace::merge(vec![
            parse_trace(&j1, 1).unwrap(),
            parse_trace(&j0, 0).unwrap(),
        ]);
        assert_eq!(merged.processes[0].process, 0, "sorted by process id");
        assert_eq!(merged.counter("mpi.msgs"), 7);
        assert_eq!(merged.counters().get("mpi.bytes"), Some(&56));
        assert_eq!(merged.events().len(), 7);
        // Per-process slices keep their own unsummed view.
        assert_eq!(merged.processes[1].counters.get("mpi.msgs"), Some(&5));
    }

    #[test]
    fn trace3_json_roundtrips_and_carries_process_field() {
        let (_, j0) = session_with(0, 2);
        let (_, j1) = session_with(1, 1);
        let merged = MergedTrace::merge(vec![
            parse_trace(&j0, 0).unwrap(),
            parse_trace(&j1, 1).unwrap(),
        ]);
        let json = merged.to_json(&[("source", "test".to_string())]);
        assert!(json.starts_with("{\"schema\":\"pdc-trace/3\""));
        assert!(json.contains("\"per_process\":[{\"process\":0,"));
        assert!(json.contains("\"process\":1"));
        assert!(json.contains("\"mpi.msgs\":3"), "{json}");
        let back = MergedTrace::parse(&json).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn schema2_rejected_by_trace3_parser_and_vice_versa() {
        let (_, j0) = session_with(0, 1);
        assert!(MergedTrace::parse(&j0).is_err());
        let merged = MergedTrace::merge(vec![parse_trace(&j0, 0).unwrap()]);
        assert!(parse_trace(&merged.to_json(&[]), 0).is_err());
    }

    #[test]
    fn u64_payloads_above_2_pow_53_roundtrip_exactly() {
        let s = TraceSession::new();
        s.thread(0)
            .record(EventKind::Mark, crate::trace::MARK_STEPS, 1000);
        s.thread(1).record(EventKind::Mark, u64::MAX, u64::MAX);
        let parsed = parse_trace(&s.to_json(), 0).unwrap();
        assert_eq!(parsed.events, s.events());
        assert_eq!(parsed.events[0].a, u64::MAX - 1);
    }

    #[test]
    fn event_payload_fields_roundtrip_by_schema_name() {
        // A kind whose field names differ from a/b must still parse.
        let s = TraceSession::new();
        s.thread(2).record(EventKind::Kernel, 4, 900);
        s.thread(2).record(EventKind::CollBegin, 3, 1);
        let parsed = parse_trace(&s.to_json(), 0).unwrap();
        assert_eq!(parsed.events[0].kind, EventKind::Kernel);
        assert_eq!((parsed.events[0].a, parsed.events[0].b), (4, 900));
        assert_eq!(parsed.events[1].kind, EventKind::CollBegin);
        assert_eq!((parsed.events[1].a, parsed.events[1].b), (3, 1));
    }
}
