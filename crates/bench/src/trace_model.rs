//! Typed model of `apf-trace` JSONL files: the one trace-line parser behind
//! every `trace-report` mode, single-file report and multi-process merger
//! alike.
//!
//! A distributed run produces one trace file per process (`apf-server
//! --trace-file`, `apf-client --trace-file`), each opening with a
//! `{"t":"header",...}` record naming the run id, the emitter's role and
//! pid, and the run's canonical spec. Every span/event after it carries
//! the same `run`/`role`/`pid` stamp. This module parses files into typed
//! records and regroups them into per-process streams — by *stamp*, not by
//! file, so a single file holding several roles (the in-process parity
//! harness traces server and client threads into one `MemorySink`) splits
//! correctly.

use apf_fedsim::json::{self, Value};
use apf_trace::Role;

/// The `{"t":"header",...}` record `apf_trace::emit_header` writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Run id as the 16-hex-digit stamp string.
    pub run: String,
    /// Emitting process's role.
    pub role: Role,
    /// Emitting process's OS pid.
    pub pid: u64,
    /// The run's canonical `RunSpec` string.
    pub spec: String,
    /// Emission time, µs since the process's trace epoch.
    pub ts_us: u64,
}

/// One `{"t":"span",...}` record.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span target (e.g. `net.client`).
    pub target: String,
    /// Span name (e.g. `round`).
    pub name: String,
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span id (0 = root).
    pub parent: u64,
    /// Start, µs since the process's trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Emitting thread ordinal (0 for traces predating the field).
    pub thread: u64,
    /// Context stamp: run id, if stamped.
    pub run: Option<String>,
    /// Context stamp: role, if stamped.
    pub role: Option<Role>,
    /// Structured fields (`{}` when absent).
    pub fields: Value,
}

impl SpanRec {
    /// A `u64` field by name.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Value::as_u64)
    }
}

/// One `{"t":"event",...}` record.
#[derive(Debug, Clone)]
pub struct EventRec {
    /// Event target (e.g. `net.comm`).
    pub target: String,
    /// Event message (e.g. `transfer`).
    pub msg: String,
    /// Emission time, µs since the process's trace epoch.
    pub ts_us: u64,
    /// Context stamp: run id, if stamped.
    pub run: Option<String>,
    /// Context stamp: role, if stamped.
    pub role: Option<Role>,
    /// Structured fields (`{}` when absent).
    pub fields: Value,
}

impl EventRec {
    /// A `u64` field by name.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Value::as_u64)
    }

    /// An `f64` field by name.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Value::as_f64)
    }

    /// A string field by name.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Value::as_str)
    }
}

/// One parsed trace file (or any other JSONL record stream).
#[derive(Debug, Default)]
pub struct TraceFile {
    /// Where it came from, for messages.
    pub label: String,
    /// Header records, in order of appearance (one per role the stream
    /// carries; exactly one for a real per-process file).
    pub headers: Vec<Header>,
    /// All span records, file order.
    pub spans: Vec<SpanRec>,
    /// All event records, file order.
    pub events: Vec<EventRec>,
    /// Non-empty lines seen.
    pub lines: u64,
    /// Lines that were not parsable records.
    pub skipped: u64,
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn stamp_of(v: &Value) -> (Option<String>, Option<Role>) {
    let run = get_str(v, "run").map(str::to_owned);
    let role = get_str(v, "role").and_then(Role::parse);
    (run, role)
}

fn fields_of(v: &Value) -> Value {
    v.get("fields")
        .cloned()
        .unwrap_or(Value::Obj(Default::default()))
}

impl TraceFile {
    /// Parses one JSONL stream. Unparsable lines are counted, not fatal —
    /// a trace cut off mid-write must still merge.
    pub fn parse(label: &str, text: &str) -> TraceFile {
        let mut out = TraceFile {
            label: label.to_owned(),
            ..TraceFile::default()
        };
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            out.lines += 1;
            let Ok(v) = json::parse(trimmed) else {
                out.skipped += 1;
                continue;
            };
            match get_str(&v, "t") {
                Some("header") => out.ingest_header(&v),
                Some("span") => out.ingest_span(&v),
                Some("event") => out.ingest_event(&v),
                _ => out.skipped += 1,
            }
        }
        out
    }

    /// Reads and parses a trace file from disk.
    ///
    /// # Errors
    /// Returns the I/O error text; parse problems only bump `skipped`.
    pub fn load(path: &str) -> Result<TraceFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(TraceFile::parse(path, &text))
    }

    fn ingest_header(&mut self, v: &Value) {
        let (Some(run), Some(role), Some(pid), Some(spec)) = (
            get_str(v, "run"),
            get_str(v, "role").and_then(Role::parse),
            get_u64(v, "pid"),
            get_str(v, "spec"),
        ) else {
            self.skipped += 1;
            return;
        };
        self.headers.push(Header {
            run: run.to_owned(),
            role,
            pid,
            spec: spec.to_owned(),
            ts_us: get_u64(v, "ts_us").unwrap_or(0),
        });
    }

    fn ingest_span(&mut self, v: &Value) {
        let (Some(id), Some(dur_us)) = (get_u64(v, "id"), get_u64(v, "dur_us")) else {
            self.skipped += 1;
            return;
        };
        let (run, role) = stamp_of(v);
        self.spans.push(SpanRec {
            target: get_str(v, "target").unwrap_or("?").to_owned(),
            name: get_str(v, "name").unwrap_or("?").to_owned(),
            id,
            parent: get_u64(v, "parent").unwrap_or(0),
            start_us: get_u64(v, "start_us").unwrap_or(0),
            dur_us,
            thread: get_u64(v, "thread").unwrap_or(0),
            run,
            role,
            fields: fields_of(v),
        });
    }

    fn ingest_event(&mut self, v: &Value) {
        let (run, role) = stamp_of(v);
        self.events.push(EventRec {
            target: get_str(v, "target").unwrap_or("?").to_owned(),
            msg: get_str(v, "msg").unwrap_or("?").to_owned(),
            ts_us: get_u64(v, "ts_us").unwrap_or(0),
            run,
            role,
            fields: fields_of(v),
        });
    }
}

/// All records of one logical process of the run, pulled out of whatever
/// files they were scattered across.
#[derive(Debug)]
pub struct ProcessTrace {
    /// The process's header (identity + spec).
    pub header: Header,
    /// Its spans, input order.
    pub spans: Vec<SpanRec>,
    /// Its events, input order.
    pub events: Vec<EventRec>,
}

/// Regroups parsed files into per-role process streams.
///
/// Stamped records go to their stamped role; unstamped records (emitted
/// before a context was set, e.g. library init) go to the file's role when
/// the file holds exactly one header, and are dropped otherwise. Run ids
/// must agree across every header and stamp.
///
/// # Errors
/// Describes missing/duplicate headers and run-id mixtures.
pub fn group_processes(files: &[TraceFile]) -> Result<Vec<ProcessTrace>, String> {
    let mut headers: Vec<(Header, String)> = Vec::new();
    for f in files {
        if f.headers.is_empty() {
            return Err(format!(
                "{}: no header record (was the process traced at info level or lower?)",
                f.label
            ));
        }
        for h in &f.headers {
            if h.role == Role::Unset {
                return Err(format!("{}: header with no role", f.label));
            }
            if headers.iter().any(|(o, _)| o.role == h.role) {
                return Err(format!(
                    "{}: duplicate header for role {}",
                    f.label,
                    h.role.render()
                ));
            }
            headers.push((h.clone(), f.label.clone()));
        }
    }
    let run = headers[0].0.run.clone();
    for (h, label) in &headers {
        if h.run != run {
            return Err(format!(
                "{label}: header run id {} does not match {run} — traces from different runs?",
                h.run
            ));
        }
    }
    let mut procs: Vec<ProcessTrace> = headers
        .into_iter()
        .map(|(header, _)| ProcessTrace {
            header,
            spans: Vec::new(),
            events: Vec::new(),
        })
        .collect();
    let by_role: Vec<Role> = procs.iter().map(|p| p.header.role).collect();
    for f in files {
        let sole_role = (f.headers.len() == 1).then(|| f.headers[0].role);
        let dest =
            |role: Option<Role>, run_stamp: &Option<String>| -> Result<Option<usize>, String> {
                if let Some(r) = run_stamp {
                    if *r != run {
                        return Err(format!(
                            "{}: record stamped with foreign run id {r} (run is {run})",
                            f.label
                        ));
                    }
                }
                Ok(role
                    .filter(|r| *r != Role::Unset)
                    .or(sole_role)
                    .and_then(|r| by_role.iter().position(|&p| p == r)))
            };
        for s in &f.spans {
            if let Some(i) = dest(s.role, &s.run)? {
                procs[i].spans.push(s.clone());
            }
        }
        for e in &f.events {
            if let Some(i) = dest(e.role, &e.run)? {
                procs[i].events.push(e.clone());
            }
        }
    }
    // Server first, then clients by slot: the merge layer indexes on this.
    procs.sort_by_key(|p| match p.header.role {
        Role::Server => (0, 0),
        Role::Client(k) => (1, k),
        Role::Unset => (2, 0),
    });
    Ok(procs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HDR_S: &str = r#"{"t":"header","ts_us":10,"run":"00000000000000ab","role":"server","pid":1,"spec":"v1;x"}"#;
    const HDR_C0: &str = r#"{"t":"header","ts_us":11,"run":"00000000000000ab","role":"client:0","pid":2,"spec":"v1;x"}"#;

    #[test]
    fn parses_header_span_event() {
        let text = format!(
            "{HDR_S}\n{}\n{}\n",
            r#"{"t":"span","ts_us":20,"lvl":"info","target":"net.server","name":"round","id":3,"parent":1,"start_us":15,"dur_us":5,"thread":0,"run":"00000000000000ab","role":"server","pid":1,"fields":{"round":2}}"#,
            r#"{"t":"event","ts_us":21,"lvl":"debug","target":"net.comm","msg":"transfer","span":3,"thread":0,"run":"00000000000000ab","role":"server","pid":1,"fields":{"round":2,"client":1,"dir":"up","bytes":77}}"#
        );
        let f = TraceFile::parse("t", &text);
        assert_eq!(f.lines, 3);
        assert_eq!(f.skipped, 0);
        assert_eq!(f.headers.len(), 1);
        assert_eq!(f.headers[0].role, Role::Server);
        assert_eq!(f.headers[0].spec, "v1;x");
        assert_eq!(f.spans.len(), 1);
        assert_eq!(f.spans[0].u64_field("round"), Some(2));
        assert_eq!(f.spans[0].role, Some(Role::Server));
        assert_eq!(f.events.len(), 1);
        assert_eq!(f.events[0].str_field("dir"), Some("up"));
        assert_eq!(f.events[0].u64_field("bytes"), Some(77));
    }

    #[test]
    fn groups_by_stamp_within_one_file() {
        // One stream, two roles — the in-process harness shape.
        let text = format!(
            "{HDR_S}\n{HDR_C0}\n{}\n{}\n",
            r#"{"t":"span","ts_us":20,"lvl":"info","target":"net.server","name":"round","id":3,"parent":0,"start_us":15,"dur_us":5,"thread":0,"run":"00000000000000ab","role":"server","pid":1}"#,
            r#"{"t":"span","ts_us":22,"lvl":"info","target":"net.client","name":"round","id":4,"parent":0,"start_us":16,"dur_us":4,"thread":1,"run":"00000000000000ab","role":"client:0","pid":2}"#
        );
        let f = TraceFile::parse("t", &text);
        let procs = group_processes(&[f]).unwrap();
        assert_eq!(procs.len(), 2);
        assert_eq!(procs[0].header.role, Role::Server);
        assert_eq!(procs[0].spans.len(), 1);
        assert_eq!(procs[1].header.role, Role::Client(0));
        assert_eq!(procs[1].spans[0].id, 4);
    }

    #[test]
    fn unstamped_records_fall_back_to_sole_header() {
        let text = format!(
            "{HDR_S}\n{}\n",
            r#"{"t":"span","ts_us":20,"lvl":"info","target":"a","name":"b","id":1,"parent":0,"start_us":0,"dur_us":1,"thread":0}"#
        );
        let procs = group_processes(&[TraceFile::parse("t", &text)]).unwrap();
        assert_eq!(procs[0].spans.len(), 1);
    }

    #[test]
    fn mixed_run_ids_are_rejected() {
        let other = r#"{"t":"header","ts_us":10,"run":"00000000000000cd","role":"client:0","pid":2,"spec":"v1;x"}"#;
        let err = group_processes(&[TraceFile::parse("a", HDR_S), TraceFile::parse("b", other)])
            .unwrap_err();
        assert!(err.contains("different runs"), "{err}");
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = group_processes(&[TraceFile::parse("a", "")]).unwrap_err();
        assert!(err.contains("no header"), "{err}");
    }
}
