//! RAII spans with per-thread parent tracking.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::context::push_context;
use crate::emit::{push_fields, FieldValue};
use crate::json::write_str;
use crate::{enabled, now_us, write_line, Level};

/// Monotonically increasing span id source (0 is reserved for "no span").
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Thread ordinal source: ordinal 1 goes to the first thread that records.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost active span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's ordinal for trace records (0 = not yet assigned).
    static THREAD_ORD: Cell<u64> = const { Cell::new(0) };
}

/// The id of the innermost active span on this thread (0 = none).
pub(crate) fn current_span_id() -> u64 {
    CURRENT.with(Cell::get)
}

/// A small stable per-thread ordinal, assigned lazily on first use.
///
/// Emitted as the `thread` field on every record so `trace-report` can
/// attribute spans/events to pool workers (pool utilization view). Ordinals
/// are process-wide and first-use ordered, not OS thread ids.
pub(crate) fn thread_ordinal() -> u64 {
    THREAD_ORD.with(|c| {
        let v = c.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

struct ActiveSpan {
    level: Level,
    target: &'static str,
    name: &'static str,
    id: u64,
    parent: u64,
    start_us: u64,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// A RAII span guard: created by [`Span::enter`] (usually via the
/// [`crate::span!`] macro), it times the enclosed scope on the monotonic
/// clock and records one `"t":"span"` line when dropped.
///
/// When the span's level is disabled at entry the guard is inert: no id is
/// allocated, nothing is recorded, and drop is free. When profiler stack
/// tracking is on (see [`crate::set_stack_tracking`]) the guard — recording
/// or not — also keeps the span's *name* on this thread's live stack for
/// the `apf-prof` sampler, popping it on drop.
#[must_use = "a span guard times its scope; dropping it immediately records an empty span"]
pub struct Span {
    active: Option<ActiveSpan>,
    /// Whether this guard pushed a frame on the profiler name stack (popped
    /// on drop). Tracked per-guard so toggling tracking mid-span stays
    /// balanced.
    pushed: bool,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.active {
            Some(a) => f
                .debug_struct("Span")
                .field("name", &a.name)
                .field("id", &a.id)
                .finish(),
            None if self.pushed => f.write_str("Span(stack-only)"),
            None => f.write_str("Span(disabled)"),
        }
    }
}

impl Span {
    /// An inert span guard: records nothing, costs nothing on drop. The
    /// [`crate::span!`] macro returns this when the level is disabled so
    /// field expressions are never evaluated.
    pub fn disabled() -> Span {
        Span {
            active: None,
            pushed: false,
        }
    }

    /// A stack-only guard: keeps `name` on this thread's profiler stack for
    /// the enclosed scope but records nothing to the trace sink. The
    /// [`crate::span!`] macro returns this when the level is disabled but
    /// stack tracking is on.
    pub fn stack_only(name: &'static str) -> Span {
        let pushed = crate::stack_tracking() && crate::stack::push_frame(name);
        Span {
            active: None,
            pushed,
        }
    }

    /// Opens a span. Prefer the [`crate::span!`] macro.
    ///
    /// `target` and `name` are `'static` so the disabled path stays
    /// allocation-free; instrumentation sites use literals.
    pub fn enter(
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: &[(&'static str, FieldValue)],
    ) -> Span {
        if !enabled(level) {
            // Direct callers bypassing the macro still honor profiling.
            if crate::stack_tracking() {
                return Span::stack_only(name);
            }
            return Span::disabled();
        }
        let pushed = crate::stack_tracking() && crate::stack::push_frame(name);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        Span {
            active: Some(ActiveSpan {
                level,
                target,
                name,
                id,
                parent,
                start_us: now_us(),
                start: Instant::now(),
                fields: fields.to_vec(),
            }),
            pushed,
        }
    }

    /// This span's id (0 when the span is disabled).
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }

    /// Attaches an extra field after entry (e.g. a result computed inside
    /// the span). No-op when disabled.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(a) = &mut self.active {
            a.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.pushed {
            crate::stack::pop_frame();
        }
        let Some(a) = self.active.take() else {
            return;
        };
        CURRENT.with(|c| c.set(a.parent));
        let dur_us = a.start.elapsed().as_micros() as u64;
        let mut line = String::with_capacity(128 + 24 * a.fields.len());
        line.push_str("{\"t\":\"span\",\"ts_us\":");
        line.push_str(&now_us().to_string());
        line.push_str(",\"lvl\":\"");
        line.push_str(a.level.as_str());
        line.push_str("\",\"target\":");
        write_str(&mut line, a.target);
        line.push_str(",\"name\":");
        write_str(&mut line, a.name);
        line.push_str(",\"id\":");
        line.push_str(&a.id.to_string());
        line.push_str(",\"parent\":");
        line.push_str(&a.parent.to_string());
        line.push_str(",\"start_us\":");
        line.push_str(&a.start_us.to_string());
        line.push_str(",\"dur_us\":");
        line.push_str(&dur_us.to_string());
        line.push_str(",\"thread\":");
        line.push_str(&thread_ordinal().to_string());
        push_context(&mut line);
        push_fields(&mut line, &a.fields);
        line.push('}');
        write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        crate::set_level(None);
        let s = Span::enter(Level::Info, "t", "n", &[]);
        assert_eq!(s.id(), 0);
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn stack_only_span_tracks_name_without_recording() {
        crate::set_level(None);
        crate::set_stack_tracking(true);
        let id = crate::stack::intern_name("span.test.stack_only");
        {
            let s = Span::stack_only("span.test.stack_only");
            assert_eq!(s.id(), 0);
            assert_eq!(crate::stack::current_name_id(), id);
        }
        assert_ne!(crate::stack::current_name_id(), id);
        crate::set_stack_tracking(false);
        // With both tracing and tracking off, enter() is fully inert.
        let s = Span::enter(Level::Info, "t", "span.test.stack_only", &[]);
        drop(s);
        assert_eq!(crate::stack::current_name_id(), 0);
    }
}
