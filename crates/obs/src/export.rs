//! Chrome `trace_event` export for flight-recorder contents.
//!
//! [`chrome_trace`] renders a slice of [`TraceEvent`]s as the JSON-array
//! flavour of the Trace Event Format, which `chrome://tracing` and
//! Perfetto open directly:
//!
//! * span-opening/closing kinds (`invoke_start`/`invoke_end`,
//!   `fed_op_start`/`fed_op_end`) become `B`/`E` duration events, so an
//!   invocation tower renders as a nested flame;
//! * every other kind becomes an `i` instant event;
//! * timestamps are the **virtual-time** stamps on the event envelope
//!   (microseconds — exactly the unit the format expects), so a seeded
//!   simulation exports the same trace every run;
//! * every event sits on one track, `tid` 0, announced by a `thread_name`
//!   metadata event naming it `main` (one recorder records one
//!   single-threaded world).
//!
//! [`validate_chrome_trace`] is the minimal checker the CLI smoke test
//! uses: structural JSON-array sanity plus the per-event required keys
//! and balanced `B`/`E` pairs. It is not a JSON parser — just enough to
//! catch a malformed export before a human pastes it into a viewer.

use mrom_value::Value;

use crate::event::{EventKind, TraceEvent};
use crate::json::to_json;

/// Renders events as a Chrome `trace_event` JSON array (see module docs).
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut records: Vec<Value> = Vec::with_capacity(events.len() + 1);
    if !events.is_empty() {
        records.push(Value::map([
            ("ph", Value::from("M")),
            ("pid", Value::Int(1)),
            ("tid", Value::Int(0)),
            ("name", Value::from("thread_name")),
            ("args", Value::map([("name", Value::from("main"))])),
        ]));
    }
    for te in events {
        let (ph, name) = phase_and_name(&te.kind);
        let ts = i64::try_from(te.event.at_us).unwrap_or(i64::MAX);
        let mut fields = vec![
            ("ph", Value::from(ph)),
            ("pid", Value::Int(1)),
            ("tid", Value::Int(0)),
            ("ts", Value::Int(ts)),
            ("name", Value::from(name)),
            (
                "args",
                Value::map([
                    ("seq", int(te.event.seq)),
                    ("trace", int(te.event.trace)),
                    ("span", int(te.event.span)),
                    ("parent", int(te.event.parent)),
                    ("text", Value::from(te.to_string())),
                ]),
            ),
        ];
        if ph == "i" {
            // Thread-scoped instant, so it renders on its track.
            fields.push(("s", Value::from("t")));
        }
        records.push(Value::Map(
            fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        ));
    }
    to_json(&Value::List(records))
}

/// Phase letter and display name for one event kind.
fn phase_and_name(kind: &EventKind) -> (&'static str, String) {
    match kind {
        EventKind::InvokeStart { method, .. } => ("B", format!("invoke {method}")),
        EventKind::InvokeEnd { method, .. } => ("E", format!("invoke {method}")),
        EventKind::FedOpStart { op, .. } => ("B", format!("fed {op}")),
        EventKind::FedOpEnd { op, .. } => ("E", format!("fed {op}")),
        other => ("i", other.tag().to_owned()),
    }
}

fn int(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Minimal structural check of a Chrome `trace_event` JSON array:
/// array-shaped, every record an object carrying `ph`/`pid`/`tid`/`name`
/// (plus `ts` for non-metadata phases), only known phase letters, and
/// balanced `B`/`E` counts. Returns the number of records.
///
/// # Errors
///
/// A human-readable description of the first structural violation.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let trimmed = json.trim();
    if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
        return Err("trace must be a JSON array".to_owned());
    }
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut object_start: Option<usize> = None;
    let mut records = 0usize;
    let mut begins = 0usize;
    let mut ends = 0usize;
    for (i, c) in trimmed.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                depth += 1;
                if depth == 2 && object_start.is_none() {
                    object_start = Some(i);
                }
            }
            '}' => {
                if depth == 0 {
                    return Err(format!("unbalanced '}}' at byte {i}"));
                }
                depth -= 1;
                if depth == 1 {
                    let start = object_start.take().ok_or("record closed before opening")?;
                    let record = &trimmed[start..=i];
                    let ph = check_record(record, records)?;
                    match ph {
                        'B' => begins += 1,
                        'E' => ends += 1,
                        _ => {}
                    }
                    records += 1;
                }
            }
            '[' => depth += 1,
            ']' => {
                if depth == 0 {
                    return Err(format!("unbalanced ']' at byte {i}"));
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("unterminated structure".to_owned());
    }
    if begins != ends {
        return Err(format!("unbalanced spans: {begins} B vs {ends} E"));
    }
    Ok(records)
}

/// Checks one record's required keys; returns its phase letter.
fn check_record(record: &str, index: usize) -> Result<char, String> {
    let ph = record
        .split("\"ph\":\"")
        .nth(1)
        .and_then(|rest| rest.chars().next())
        .ok_or(format!("record {index}: missing \"ph\""))?;
    if !matches!(ph, 'B' | 'E' | 'i' | 'M' | 'X' | 'C') {
        return Err(format!("record {index}: unknown phase {ph:?}"));
    }
    for key in ["\"pid\":", "\"tid\":", "\"name\":"] {
        if !record.contains(key) {
            return Err(format!("record {index}: missing {key}"));
        }
    }
    if ph != 'M' && !record.contains("\"ts\":") {
        return Err(format!("record {index}: missing \"ts\""));
    }
    Ok(ph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use mrom_value::ObjectId;

    fn start(seq: u64, at_us: u64) -> TraceEvent {
        TraceEvent {
            event: Event {
                seq,
                trace: 1,
                span: seq + 1,
                parent: 0,
                at_us,
            },
            kind: EventKind::InvokeStart {
                object: ObjectId::SYSTEM,
                method: "work".into(),
                caller: ObjectId::SYSTEM,
                level: 0,
            },
        }
    }

    fn end(seq: u64, at_us: u64) -> TraceEvent {
        TraceEvent {
            event: Event {
                seq,
                trace: 1,
                span: seq,
                parent: 0,
                at_us,
            },
            kind: EventKind::InvokeEnd {
                object: ObjectId::SYSTEM,
                method: "work".into(),
                outcome: "ok",
                fuel_used: 9,
            },
        }
    }

    #[test]
    fn exports_spans_and_instants_that_validate() {
        let mut lookup = start(1, 10);
        lookup.kind = EventKind::Lookup {
            object: ObjectId::SYSTEM,
            method: "work".into(),
            cache_hit: true,
            found: true,
        };
        let events = vec![start(0, 10), lookup, end(2, 250)];
        let json = chrome_trace(&events);
        assert!(json.starts_with('['));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":250"));
        assert!(json.contains("\"name\":\"invoke work\""));
        // One thread_name metadata record plus the three events.
        assert_eq!(validate_chrome_trace(&json), Ok(4));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[{\"ph\":\"B\",\"pid\":1}]").is_err());
        assert!(
            validate_chrome_trace("[{\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"x\"}]")
                .is_err(),
            "unbalanced B without E must fail"
        );
        assert!(validate_chrome_trace(
            "[{\"ph\":\"?\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"x\"}]"
        )
        .is_err());
        assert_eq!(validate_chrome_trace("[]"), Ok(0));
    }

    #[test]
    fn deterministic_for_identical_input() {
        let events = vec![start(0, 1), end(1, 2)];
        assert_eq!(chrome_trace(&events), chrome_trace(&events));
    }
}
