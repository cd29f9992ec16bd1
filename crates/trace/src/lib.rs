//! **`apf-trace`** — a zero-dependency structured tracing facade and metrics
//! registry for the APF workspace.
//!
//! The workspace is hermetic (no registry crates, see DESIGN.md), so the
//! usual `tracing`/`log`/`metrics` stack is off the table. This crate
//! provides the pieces the experiment harness actually needs:
//!
//! * **Levels and a global gate** — a single relaxed atomic load decides
//!   whether an event or span is recorded. With tracing disabled (the
//!   default) instrumented code performs no allocation and no I/O.
//! * **Structured events** — `event!(Level::Debug, target: "apf", "msg",
//!   key = value, ...)` writes one JSON object per line (JSONL) to the
//!   configured sink.
//! * **RAII spans** — [`Span::enter`] (or the [`span!`] macro) times a scope
//!   on the monotonic clock and records it with its parent span on drop,
//!   so a trace reconstructs the full span tree per thread.
//! * **Sinks** — stderr, append-to-file, or in-memory (for tests); see
//!   [`sink`]. Records emitted while a level is enabled but no sink is
//!   installed yet are held in a bounded buffer and flushed into the first
//!   installed sink, so early events in long runs are not lost.
//! * **A metrics registry** — named monotonic counters, gauges, and
//!   fixed-bucket histograms (with quantile estimation); see [`metrics`].
//!
//! # Configuration
//!
//! Programmatic: [`init`] / [`set_level`] / [`set_sink`]. Environment:
//! [`init_from_env`] reads `APF_TRACE` (`off|error|warn|info|debug|trace`)
//! and `APF_TRACE_FILE` (path; default stderr); [`init_file`] is the
//! `--trace-file` twin (explicit path, same level parse, default `debug`).
//! `init_from_env` is idempotent and never overrides an explicit [`init`].
//!
//! # JSONL schema
//!
//! Every line is one JSON object with a `t` discriminator:
//!
//! ```json
//! {"t":"event","ts_us":1024,"lvl":"debug","target":"apf.manager",
//!  "msg":"round","span":3,"thread":1,"fields":{"round":7,"frozen":120}}
//! {"t":"span","ts_us":2048,"lvl":"info","target":"fedsim","name":"round",
//!  "id":3,"parent":0,"start_us":1000,"dur_us":1048,"thread":1,
//!  "fields":{"round":7}}
//! ```
//!
//! `ts_us`/`start_us` are microseconds since tracing was initialized
//! (monotonic clock); `span` on an event is the id of the innermost active
//! span on the emitting thread (0 = none); `parent` is 0 for root spans.
//! `thread` is a small stable per-thread ordinal (assigned on first record,
//! starting at 1) identifying the emitting thread — with the `apf-par` pool
//! active, it attributes work to individual pool workers.
//!
//! Distributed runs additionally stamp every record with the process's
//! [`TraceContext`] (`"run"`, `"role"`, `"pid"`, optional `"link"`) and
//! open each trace file with a `{"t":"header",...}` record carrying the
//! run's canonical spec; see [`context`].

pub mod context;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod stack;

mod emit;
mod span;

pub use context::{
    clear_thread_context, current_context, emit_header, set_process_context, set_thread_context,
    Role, TraceContext,
};
pub use emit::{emit_event, FieldValue};
pub use sink::{FileSink, MemorySink, StderrSink, TraceSink};
pub use span::Span;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Verbosity levels, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable problems.
    Error = 1,
    /// Suspicious conditions worth surfacing.
    Warn = 2,
    /// Per-round progress (the default for interactive runs).
    Info = 3,
    /// Per-round internals: freeze telemetry, comm breakdowns.
    Debug = 4,
    /// Per-batch / per-layer timing spans (high volume).
    Trace = 5,
}

impl Level {
    /// The lowercase name used on the wire and in `APF_TRACE`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name; `"off"` and `"0"` map to `None`.
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" | "" => Some(None),
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// The combined gate instrumented code checks with ONE relaxed load:
/// the low bits hold the maximum enabled [`Level`] (0 = tracing off), and
/// [`STACK_BIT`] marks profiler stack tracking as on (see [`stack`]).
static GATE: AtomicU8 = AtomicU8::new(0);
/// [`GATE`] bit: spans maintain the per-thread name stacks for `apf-prof`.
const STACK_BIT: u8 = 0x80;
/// [`GATE`] bits holding the maximum enabled level.
const LEVEL_MASK: u8 = 0x7f;
/// Set once any explicit or env-derived configuration has happened.
static CONFIGURED: AtomicBool = AtomicBool::new(false);

/// Stores a new maximum level without disturbing the profiler bit.
fn store_level(bits: u8) {
    let _ = GATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |g| {
        Some((g & STACK_BIT) | (bits & LEVEL_MASK))
    });
}

static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Records produced while a level is enabled but no sink is installed yet
/// (e.g. `set_level` before `set_sink`, or early library code racing env
/// init) are held here and flushed — in order, ahead of new records — into
/// the first sink that gets installed. The buffer is bounded; once full,
/// further pre-init records are counted in [`PREINIT_DROPPED`] and
/// discarded, and the drop count is reported as a `warn` event on install.
const PREINIT_CAP: usize = 4096;
static PREINIT: Mutex<Vec<String>> = Mutex::new(Vec::new());
static PREINIT_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Whether records at `level` are currently recorded.
///
/// This is the fast path instrumented code checks before building any
/// fields: a single relaxed atomic load, no allocation.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    level as u8 <= GATE.load(Ordering::Relaxed) & LEVEL_MASK
}

// Public, but hidden, because the exported `span!` macro reaches it through
// `$crate::`.
/// What a span at some level should do right now; see [`span_gate`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanGate {
    /// Record the span to the sink (and track its name if profiling is on).
    Record,
    /// Only maintain the profiler name stack; record nothing.
    StackOnly,
    /// Do nothing at all.
    Off,
}

/// The decision a [`span!`] site makes, from ONE relaxed atomic load:
/// record (level enabled), stack-only (level disabled but profiler stack
/// tracking on), or off entirely. The `Off` path evaluates no fields and
/// allocates nothing.
// Public, but hidden, for the same reason as `SpanGate`.
#[doc(hidden)]
#[inline(always)]
pub fn span_gate(level: Level) -> SpanGate {
    let g = GATE.load(Ordering::Relaxed);
    if level as u8 <= g & LEVEL_MASK {
        SpanGate::Record
    } else if g & STACK_BIT != 0 {
        SpanGate::StackOnly
    } else {
        SpanGate::Off
    }
}

/// Turns profiler stack tracking on or off (see [`stack`]). Independent of
/// the tracing level: `apf-prof` enables this for the duration of a
/// sampling session even when tracing is fully off.
pub fn set_stack_tracking(on: bool) {
    if on {
        GATE.fetch_or(STACK_BIT, Ordering::Relaxed);
    } else {
        GATE.fetch_and(!STACK_BIT, Ordering::Relaxed);
    }
}

/// Whether profiler stack tracking is currently on.
#[inline(always)]
pub fn stack_tracking() -> bool {
    GATE.load(Ordering::Relaxed) & STACK_BIT != 0
}

/// Microseconds since tracing was initialized (monotonic).
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

pub(crate) fn with_sink(f: impl FnOnce(&dyn TraceSink)) {
    if let Ok(guard) = SINK.read() {
        if let Some(s) = guard.as_deref() {
            f(s);
        }
    }
}

/// Delivers one complete record line: to the sink when one is installed,
/// otherwise into the bounded pre-init buffer (see [`PREINIT`]).
///
/// The buffer push happens while the `SINK` read lock is held, so it cannot
/// race [`install_sink`] (which drains the buffer under the write lock):
/// every record lands either in the buffer before the drain or in the sink.
pub(crate) fn write_line(line: &str) {
    if let Ok(guard) = SINK.read() {
        match guard.as_deref() {
            Some(s) => s.write_line(line),
            None => {
                if let Ok(mut buf) = PREINIT.lock() {
                    if buf.len() < PREINIT_CAP {
                        buf.push(line.to_owned());
                    } else {
                        PREINIT_DROPPED.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Installs `sink`, first flushing any buffered pre-init records into it in
/// emission order. Returns the number of records that overflowed the buffer
/// and were lost (reported by the caller as a `warn` event).
fn install_sink(sink: Arc<dyn TraceSink>) -> u64 {
    EPOCH.get_or_init(Instant::now);
    let Ok(mut guard) = SINK.write() else {
        return 0;
    };
    let buffered = PREINIT
        .lock()
        .map(|mut b| std::mem::take(&mut *b))
        .unwrap_or_default();
    for line in &buffered {
        sink.write_line(line);
    }
    *guard = Some(sink);
    PREINIT_DROPPED.swap(0, Ordering::Relaxed)
}

/// Emits the post-install overflow notice, if any records were lost.
fn report_preinit_dropped(dropped: u64) {
    if dropped > 0 {
        event!(Level::Warn, target: "apf_trace", "preinit_overflow",
            dropped = dropped);
    }
}

/// Enables tracing at `level`, writing to `sink`.
///
/// May be called repeatedly (tests swap in fresh [`MemorySink`]s); the
/// latest call wins.
pub fn init(level: Level, sink: Arc<dyn TraceSink>) {
    let dropped = install_sink(sink);
    store_level(level as u8);
    CONFIGURED.store(true, Ordering::Relaxed);
    report_preinit_dropped(dropped);
}

/// Disables tracing and drops the sink (flushing it first).
pub fn shutdown() {
    store_level(0);
    flush();
    if let Ok(mut guard) = SINK.write() {
        *guard = None;
    }
    CONFIGURED.store(true, Ordering::Relaxed);
}

/// Adjusts the maximum recorded level without touching the sink.
/// `None` disables tracing.
pub fn set_level(level: Option<Level>) {
    store_level(level.map_or(0, |l| l as u8));
    CONFIGURED.store(true, Ordering::Relaxed);
}

/// Replaces the sink without touching the level. Any records buffered while
/// no sink was installed are flushed into the new sink first.
pub fn set_sink(sink: Arc<dyn TraceSink>) {
    let dropped = install_sink(sink);
    report_preinit_dropped(dropped);
}

/// Flushes the current sink (e.g. before process exit).
pub fn flush() {
    with_sink(|s| s.flush());
}

/// The level `APF_TRACE` asks for — the one place the variable is read.
/// `None` when it is unset, unparsable or `off`.
fn env_level() -> Option<Level> {
    let value = std::env::var("APF_TRACE").ok()?;
    Level::parse(&value).flatten()
}

/// Starts a JSONL trace in `path` (truncating it) for a binary's
/// `--trace-file` flag: level from `APF_TRACE` when it names one, else
/// `debug` — asking for a trace file means wanting the per-round phase
/// spans in it.
///
/// # Errors
/// Whatever creating `path` fails with; tracing is then left untouched.
pub fn init_file(path: &str) -> std::io::Result<()> {
    let sink = FileSink::create(path)?;
    init(env_level().unwrap_or(Level::Debug), Arc::new(sink));
    Ok(())
}

/// Configures tracing from `APF_TRACE` / `APF_TRACE_FILE`.
///
/// * `APF_TRACE` — `off`, `error`, `warn`, `info`, `debug`, `trace`.
///   Unset or unparsable means "leave tracing off".
/// * `APF_TRACE_FILE` — path the JSONL trace is written to (the file is
///   truncated); unset means stderr.
///
/// Idempotent: only the first call does anything, and a preceding explicit
/// [`init`]/[`set_level`] wins. Library entry points (e.g. the fedsim
/// runner) call this so `APF_TRACE=debug cargo run ...` works without any
/// code changes; repeated calls are free.
pub fn init_from_env() {
    if CONFIGURED.swap(true, Ordering::Relaxed) {
        return;
    }
    let Some(level) = env_level() else {
        return;
    };
    let sink: Arc<dyn TraceSink> = match std::env::var("APF_TRACE_FILE") {
        Ok(path) if !path.is_empty() => match FileSink::create(&path) {
            Ok(f) => Arc::new(f),
            Err(_) => Arc::new(StderrSink),
        },
        _ => Arc::new(StderrSink),
    };
    let dropped = install_sink(sink);
    store_level(level as u8);
    report_preinit_dropped(dropped);
}

/// Records a structured event.
///
/// ```
/// use apf_trace::{event, Level};
/// apf_trace::event!(Level::Debug, target: "demo", "round done",
///     round = 3u64, frozen_ratio = 0.25f32);
/// ```
///
/// Fields are only evaluated when the level is enabled.
#[macro_export]
macro_rules! event {
    ($lvl:expr, target: $target:expr, $msg:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        if $crate::enabled($lvl) {
            $crate::emit_event(
                $lvl,
                $target,
                $msg,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            );
        }
    }};
}

/// Opens a RAII span; the returned guard records the span on drop.
///
/// ```
/// use apf_trace::{span, Level};
/// let _s = apf_trace::span!(Level::Info, target: "demo", "round", round = 3u64);
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($lvl:expr, target: $target:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        match $crate::span_gate($lvl) {
            $crate::SpanGate::Record => $crate::Span::enter(
                $lvl,
                $target,
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            ),
            // Profiler stack tracking without tracing: push the name only;
            // fields are never evaluated.
            $crate::SpanGate::StackOnly => $crate::Span::stack_only($name),
            $crate::SpanGate::Off => $crate::Span::disabled(),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("DEBUG"), Some(Some(Level::Debug)));
        assert_eq!(Level::parse("trace"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn disabled_by_default_and_gated() {
        // Other tests may have configured tracing; force a known state.
        set_level(None);
        assert!(!enabled(Level::Error));
        set_level(Some(Level::Info));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(None);
    }

    #[test]
    fn span_gate_combines_level_and_stack_bit() {
        set_level(None);
        set_stack_tracking(false);
        assert_eq!(span_gate(Level::Info), SpanGate::Off);
        set_stack_tracking(true);
        assert_eq!(span_gate(Level::Info), SpanGate::StackOnly);
        assert!(stack_tracking());
        set_level(Some(Level::Info));
        assert_eq!(span_gate(Level::Info), SpanGate::Record);
        assert_eq!(span_gate(Level::Trace), SpanGate::StackOnly);
        // Level changes must not clobber the profiler bit, and vice versa.
        set_level(Some(Level::Debug));
        assert!(stack_tracking());
        set_stack_tracking(false);
        assert!(enabled(Level::Debug));
        assert_eq!(span_gate(Level::Trace), SpanGate::Off);
        set_level(None);
    }
}
