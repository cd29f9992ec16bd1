//! The harness's own spans: recorded around calls into the program's public
//! functions, kept in memory, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fedsim.strategy.sync_round`.
    pub name: &'static str,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The federated round the span belongs to (shared identifier).
    pub round: u64,
}

impl Span {
    /// Wall duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store with a stack of open spans for parent links.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, round: u64) -> usize {
        let id = self.spans.len();
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration in milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_us = self.us(Instant::now());
        self.spans[id].dur_us() / 1e3
    }

    /// Records a span that ran on another thread, from its own timestamps,
    /// as a child of `parent`.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        round: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name` in round `from` or later.
    pub fn durations_ms(&self, name: &str, from: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.round >= from)
            .map(|s| s.dur_us() / 1e3)
            .collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    /// Returns the I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"round\":{}}}",
                s.name, s.start_us, s.end_us, s.round
            )?;
        }
        out.flush()
    }
}

/// Self time of span `id` in microseconds: its duration minus the part of
/// its interval that its direct children cover. Children may overlap (spans
/// from concurrent threads), so the covered part is the union of their
/// intervals clipped to the parent.
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let p = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(p.start_us), s.end_us.min(p.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.partial_cmp(b).expect("span time is NaN"));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    p.dur_us() - covered
}

/// Share (percent) of the wall time of the spans called `root` that their
/// child spans account for: 100 × (1 − Σ root self time ÷ Σ root duration).
pub fn coverage_pct(spans: &[Span], root: &str) -> f64 {
    let mut wall = 0.0;
    let mut own = 0.0;
    for (id, s) in spans.iter().enumerate() {
        if s.name == root {
            wall += s.dur_us();
            own += self_time_us(spans, id);
        }
    }
    if wall > 0.0 {
        100.0 * (1.0 - own / wall)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: a,
            end_us: b,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("round", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("b", 50.0, 90.0, Some(0)),
            // A grandchild only reduces its own parent's self time.
            span("a.inner", 15.0, 25.0, Some(1)),
        ];
        assert_eq!(self_time_us(&spans, 0), 30.0);
        assert_eq!(self_time_us(&spans, 1), 20.0);
        assert_eq!(self_time_us(&spans, 2), 40.0);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two concurrent threads under one parent, plus a child that sticks
        // out past the parent's end and is clipped.
        let spans = vec![
            span("session", 0.0, 100.0, None),
            span("t1", 10.0, 60.0, Some(0)),
            span("t2", 40.0, 80.0, Some(0)),
            span("t3", 90.0, 130.0, Some(0)),
        ];
        // Covered: [10,80] ∪ [90,100] = 80.
        assert_eq!(self_time_us(&spans, 0), 20.0);
    }

    #[test]
    fn coverage_is_children_over_root_wall() {
        let spans = vec![
            span("round", 0.0, 100.0, None),
            span("x", 0.0, 95.0, Some(0)),
            span("round", 100.0, 200.0, None),
            span("x", 100.0, 197.0, Some(2)),
        ];
        assert!((coverage_pct(&spans, "round") - 96.0).abs() < 1e-9);
        assert_eq!(coverage_pct(&spans, "absent"), 0.0);
    }

    #[test]
    fn recorder_links_parents_and_writes_jsonl() {
        let mut rec = Recorder::new();
        let r = rec.enter("round", 3);
        let c = rec.enter("child", 3);
        rec.exit(c);
        rec.exit(r);
        assert_eq!(rec.spans()[c].parent, Some(r));
        assert_eq!(rec.spans()[r].parent, None);
        assert!(rec.spans()[r].dur_us() >= rec.spans()[c].dur_us());
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest.trace.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"child\"") && text.contains("\"parent\":0"));
    }
}
