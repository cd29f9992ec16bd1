//! **`apf-prof`** — a zero-dependency sampling profiler for the APF
//! workspace.
//!
//! `trace-report` can already attribute time to spans — but only when
//! tracing is on, and only to the spans themselves. This crate answers the
//! cheaper, always-available question "where is this process spending its
//! time *right now*?" by sampling: a background thread periodically
//! snapshots every registered thread's live span-name stack (maintained by
//! `apf-trace` when stack tracking is on; see
//! [`apf_trace::set_stack_tracking`]) and aggregates the snapshots into
//! folded-stack form — the `frame1;frame2;leaf COUNT` lines that
//! `flamegraph.pl` and every flamegraph viewer consume directly. Samples
//! land on the innermost open span per thread, so the profile is useful
//! even where explicit spans are sparse.
//!
//! The [`alloc`] module adds allocation-*site* profiling: an opt-in global
//! allocator that attributes allocation count and bytes to the innermost
//! open span, turning "the hot path should not allocate" from a pass/fail
//! assert into attributable data.
//!
//! # Cost model
//!
//! * **Disabled** (no profiler running): every `span!` site pays one
//!   relaxed atomic load and allocates nothing — enforced by the
//!   counting-allocator test in `tests/disabled_alloc.rs`.
//! * **Enabled**: span entry/exit additionally pushes/pops one interned
//!   name id on a fixed per-thread array; the sampler wakes every
//!   `interval` and walks the thread registry.
//!
//! # Wiring
//!
//! * `APF_PROF=1` (or `cpu`) starts the sampler via [`init_from_env`];
//!   `APF_PROF=alloc` also enables allocation attribution.
//!   `APF_PROF_FILE=path` is where [`finish`] writes the folded output.
//! * `--prof-file` on `apf-server`/`apf-client` and
//!   `/profile?seconds=N` on `apf-obs` route here too.
//! * `trace-report flame` merges per-process profiles by the run id
//!   stamped in the output header.
//!
//! # Output format
//!
//! ```text
//! # apf-prof run=00000000deadbeef role=server pid=4242 passes=180 interval_us=1000
//! # alloc fedsim::local_train 12 49152
//! round;local_train 140
//! round;aggregate 31
//! ```
//!
//! Comment lines carry process identity ([`apf_trace::TraceContext`]) and
//! allocation sites; every other line is standard folded-stack format
//! (strip the comments and feed the rest to any flamegraph tool).

pub mod alloc;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apf_trace::stack;

/// Default sampling interval: 1 ms keeps per-phase attribution meaningful
/// on rounds that complete in tens of milliseconds.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(1);

/// Raw aggregation state: interned-id stacks -> sample counts.
#[derive(Default)]
struct Agg {
    stacks: HashMap<Vec<u32>, u64>,
    passes: u64,
}

/// One sampling pass over every registered thread.
fn sample_once(agg: &mut Agg, key: &mut Vec<u32>) {
    for st in stack::stacks() {
        if st.sample(key) {
            *agg.stacks.entry(key.clone()).or_insert(0) += 1;
        }
    }
    agg.passes += 1;
}

/// Refcount of stack-tracking users (the background sampler and any inline
/// [`sample_window`] calls compose; the trace gate bit flips only on the
/// 0 <-> 1 transitions).
static TRACKERS: AtomicUsize = AtomicUsize::new(0);

fn tracking_acquire() {
    if TRACKERS.fetch_add(1, Ordering::SeqCst) == 0 {
        apf_trace::set_stack_tracking(true);
    }
}

fn tracking_release() {
    if TRACKERS.fetch_sub(1, Ordering::SeqCst) == 1 {
        apf_trace::set_stack_tracking(false);
    }
}

struct Running {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Agg>,
    interval: Duration,
    file: Option<String>,
    with_alloc: bool,
}

static RUNNING: Mutex<Option<Running>> = Mutex::new(None);

/// Starts the background sampler at `interval`. Returns `false` (and does
/// nothing) when a profiler is already running — callers use the return
/// value to know whether they own the session and should [`finish`] it.
pub fn start(interval: Duration) -> bool {
    start_with(interval, None, false)
}

/// [`start`] with an output file for [`finish`] and optional
/// allocation-site attribution (only yields data in binaries that install
/// [`alloc::ProfAlloc`] as their global allocator).
fn start_with(interval: Duration, file: Option<String>, with_alloc: bool) -> bool {
    let Ok(mut guard) = RUNNING.lock() else {
        return false;
    };
    if guard.is_some() {
        return false;
    }
    tracking_acquire();
    if with_alloc {
        alloc::reset();
        alloc::set_enabled(true);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let spawned = std::thread::Builder::new()
        .name("apf-prof-sampler".to_owned())
        .spawn(move || {
            let mut agg = Agg::default();
            let mut key = Vec::with_capacity(stack::MAX_DEPTH);
            while !stop2.load(Ordering::Relaxed) {
                sample_once(&mut agg, &mut key);
                std::thread::sleep(interval);
            }
            // One final pass so very short sessions still see something.
            sample_once(&mut agg, &mut key);
            agg
        });
    match spawned {
        Ok(handle) => {
            *guard = Some(Running {
                stop,
                handle,
                interval,
                file,
                with_alloc,
            });
            true
        }
        Err(_) => {
            if with_alloc {
                alloc::set_enabled(false);
            }
            tracking_release();
            false
        }
    }
}

/// Whether a background sampler is currently running.
pub fn is_running() -> bool {
    RUNNING.lock().map(|g| g.is_some()).unwrap_or(false)
}

fn stop_inner() -> Option<(Profile, Option<String>)> {
    let running = RUNNING.lock().ok()?.take()?;
    running.stop.store(true, Ordering::Relaxed);
    let agg = running.handle.join().unwrap_or_default();
    let allocs = if running.with_alloc {
        alloc::set_enabled(false);
        alloc::sites()
    } else {
        Vec::new()
    };
    tracking_release();
    Some((
        Profile::from_parts(agg, running.interval, allocs),
        running.file,
    ))
}

/// Stops the sampler and returns the aggregated profile (`None` when none
/// was running). Does not write any file; see [`finish`].
pub fn stop() -> Option<Profile> {
    stop_inner().map(|(p, _)| p)
}

/// Stops the sampler and writes the folded output to the file configured at
/// [`init_from_env`] time (no file configured = no write).
/// Returns the profile. `None` when no profiler was running.
pub fn finish() -> Option<Profile> {
    let (profile, file) = stop_inner()?;
    if let Some(path) = file {
        match std::fs::write(&path, profile.render_folded()) {
            Ok(()) => apf_trace::event!(apf_trace::Level::Info, target: "prof",
                "profile_written", path = path.as_str(),
                passes = profile.passes, stacks = profile.stacks.len()),
            Err(e) => apf_trace::event!(apf_trace::Level::Warn, target: "prof",
                "profile_write_failed", path = path.as_str(),
                error = e.to_string()),
        }
    }
    Some(profile)
}

/// Samples inline (no background thread) for `window`, returning the
/// profile. Powers the `apf-obs` `/profile?seconds=N` endpoint; composes
/// with a concurrently running background sampler (both see the stacks).
pub fn sample_window(window: Duration, interval: Duration) -> Profile {
    tracking_acquire();
    let mut agg = Agg::default();
    let mut key = Vec::with_capacity(stack::MAX_DEPTH);
    let deadline = Instant::now() + window;
    loop {
        sample_once(&mut agg, &mut key);
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(interval);
    }
    tracking_release();
    Profile::from_parts(agg, interval, Vec::new())
}

/// Starts profiling from the environment:
///
/// * `APF_PROF` — unset/`0`/`off` = disabled; `1`/`on`/`cpu` = sampling;
///   `alloc` = sampling + allocation-site attribution.
/// * `APF_PROF_FILE` — path [`finish`] writes the folded output to.
/// * `APF_PROF_INTERVAL_US` — sampling interval override, clamped to
///   20 µs – 1 s so a typo can neither spin a core nor silence the
///   profiler (default [`DEFAULT_INTERVAL`]; short runs sample finer to
///   catch sub-millisecond phases).
///
/// `file` is a binary's `--prof-file` argument: given, it turns sampling on
/// whatever `APF_PROF` says (which still picks allocation attribution) and
/// wins over `APF_PROF_FILE`.
///
/// Returns whether THIS call started the profiler — callers that get
/// `true` own the session and are responsible for calling [`finish`];
/// `false` means either profiling is off or someone else already started
/// it (e.g. a binary that handled `--prof-file` before building a runner).
pub fn init_from_env(file: Option<String>) -> bool {
    // `None` = off, else whether allocation attribution is asked for.
    let mode = std::env::var("APF_PROF").unwrap_or_default();
    let with_alloc = match mode.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "false" | "none" => None,
        "alloc" => Some(true),
        _ => Some(false),
    };
    if file.is_none() && with_alloc.is_none() {
        return false;
    }
    let file = file.or_else(|| {
        std::env::var("APF_PROF_FILE")
            .ok()
            .filter(|s| !s.is_empty())
    });
    let interval = std::env::var("APF_PROF_INTERVAL_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(DEFAULT_INTERVAL, |us| {
            Duration::from_micros(us.clamp(20, 1_000_000))
        });
    start_with(interval, file, with_alloc == Some(true))
}

// Public because it is the element type of `Profile::allocs`.
/// One allocation site: the innermost open span when the allocations
/// happened (`"(no span)"` = outside any span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// The attributed span name.
    pub frame: String,
    /// Number of allocator calls (alloc + realloc).
    pub count: u64,
    /// Total bytes requested.
    pub bytes: u64,
}

// Public because `stop`, `finish` and `sample_window` return it.
/// An aggregated sampling profile, ready to render as folded stacks.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Sampling passes performed (each pass visits every live thread).
    pub passes: u64,
    /// Sampling interval in microseconds.
    pub interval_us: u64,
    /// Folded stacks (`"root;child;leaf"`) with sample counts,
    /// lexicographically sorted for deterministic output.
    pub stacks: Vec<(String, u64)>,
    /// Allocation sites (empty unless allocation profiling ran).
    pub allocs: Vec<AllocSite>,
}

impl Profile {
    fn from_parts(agg: Agg, interval: Duration, raw_allocs: Vec<(u32, u64, u64)>) -> Profile {
        // Resolve interned ids to names; distinct ids with equal names (or
        // unresolvable ids) merge here, so fold into a map keyed by text.
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for (ids, count) in agg.stacks {
            let mut line = String::with_capacity(ids.len() * 12);
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    line.push(';');
                }
                line.push_str(stack::name_of(*id).unwrap_or("?"));
            }
            *folded.entry(line).or_insert(0) += count;
        }
        let allocs = raw_allocs
            .into_iter()
            .map(|(id, count, bytes)| AllocSite {
                frame: match id {
                    0 => "(no span)".to_owned(),
                    _ => stack::name_of(id).unwrap_or("(other)").to_owned(),
                },
                count,
                bytes,
            })
            .collect();
        Profile {
            passes: agg.passes,
            interval_us: interval.as_micros() as u64,
            stacks: folded.into_iter().collect(),
            allocs,
        }
    }

    /// Total samples across all stacks (idle passes where no thread had an
    /// open span contribute nothing).
    pub fn total_samples(&self) -> u64 {
        self.stacks.iter().map(|(_, c)| c).sum()
    }

    /// Self-time per frame: samples whose *leaf* was this frame, sorted by
    /// count descending (ties by name for determinism).
    pub fn self_time(&self) -> Vec<(String, u64)> {
        let mut leaf: BTreeMap<&str, u64> = BTreeMap::new();
        for (line, count) in &self.stacks {
            let frame = line.rsplit(';').next().unwrap_or(line);
            *leaf.entry(frame).or_insert(0) += count;
        }
        let mut out: Vec<(String, u64)> =
            leaf.into_iter().map(|(f, c)| (f.to_owned(), c)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Renders the `flamegraph.pl`-compatible folded output with identity
    /// and allocation-site comment lines (see the module docs for the
    /// format). Comment lines start with `#`; flamegraph tools and
    /// `trace-report flame` both skip or consume them as appropriate.
    pub fn render_folded(&self) -> String {
        let ctx = apf_trace::current_context();
        let role = ctx.role.render();
        let mut out = String::with_capacity(64 + self.stacks.len() * 48);
        out.push_str(&format!(
            "# apf-prof run={:016x} role={} pid={} passes={} interval_us={}\n",
            ctx.run_id,
            if role.is_empty() { "-" } else { &role },
            ctx.pid,
            self.passes,
            self.interval_us,
        ));
        for site in &self.allocs {
            out.push_str(&format!(
                "# alloc {} {} {}\n",
                site.frame.replace(' ', "_"),
                site.count,
                site.bytes
            ));
        }
        for (line, count) in &self.stacks {
            out.push_str(line);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_trace::{span, Level};

    // One profiler session at a time per process: serialize the tests that
    // own a session.
    static SESSION: Mutex<()> = Mutex::new(());

    fn spin_spans(stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            let _outer = span!(Level::Trace, target: "prof.test", "outer_work");
            let _inner = span!(Level::Trace, target: "prof.test", "inner_work");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn sampler_captures_open_span_stacks() {
        let _guard = SESSION.lock().unwrap();
        assert!(start(Duration::from_micros(200)));
        assert!(is_running());
        assert!(!start(Duration::from_millis(1)), "second start must refuse");
        let stop_flag = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&stop_flag);
        let worker = std::thread::spawn(move || spin_spans(&f));
        std::thread::sleep(Duration::from_millis(60));
        stop_flag.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        let profile = stop().expect("profiler was running");
        assert!(!is_running());
        assert!(profile.passes > 0);
        assert!(
            profile
                .stacks
                .iter()
                .any(|(line, _)| line.contains("outer_work")),
            "expected outer_work in {:?}",
            profile.stacks
        );
        assert!(profile
            .stacks
            .iter()
            .any(|(line, _)| line == "outer_work;inner_work"));
        let folded = profile.render_folded();
        assert!(folded.starts_with("# apf-prof run="));
        assert!(folded.contains("outer_work;inner_work "));
        // Self-time leaves: inner_work must dominate outer_work's self time.
        let self_time = profile.self_time();
        assert!(self_time.iter().any(|(f, _)| f == "inner_work"));
    }

    #[test]
    fn sample_window_is_inline_and_composable() {
        let _guard = SESSION.lock().unwrap();
        let stop_flag = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&stop_flag);
        let worker = std::thread::spawn(move || spin_spans(&f));
        let profile = sample_window(Duration::from_millis(40), Duration::from_micros(200));
        stop_flag.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        assert!(profile.passes > 1);
        assert!(profile.total_samples() > 0);
        assert!(!apf_trace::stack_tracking(), "window must release tracking");
    }

    #[test]
    fn folded_render_is_deterministic_and_parseable() {
        let profile = Profile {
            passes: 10,
            interval_us: 1000,
            stacks: vec![
                ("a;b".to_owned(), 7),
                ("a;c".to_owned(), 3),
                ("a".to_owned(), 2),
            ],
            allocs: vec![AllocSite {
                frame: "b".to_owned(),
                count: 4,
                bytes: 1024,
            }],
        };
        let folded = profile.render_folded();
        assert!(folded.contains("# alloc b 4 1024\n"));
        assert!(folded.contains("a;b 7\n"));
        assert!(folded.contains("a;c 3\n"));
        assert_eq!(profile.total_samples(), 12);
        let self_time = profile.self_time();
        assert_eq!(self_time[0], ("b".to_owned(), 7));
    }

    #[test]
    fn init_from_env_off_values_do_nothing() {
        // Can't mutate the environment safely in tests; exercise the parse
        // path indirectly by asserting the off-state contract.
        let _guard = SESSION.lock().unwrap();
        if std::env::var("APF_PROF").is_err() {
            assert!(!init_from_env(None));
            assert!(!is_running());
        }
    }
}
