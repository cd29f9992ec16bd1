//! Live per-thread span-name stacks for the sampling profiler (`apf-prof`).
//!
//! When stack tracking is enabled ([`crate::set_stack_tracking`]), every
//! span entered via the [`crate::span!`] macro pushes its *name* onto a
//! per-thread stack of interned name ids and pops it on drop — even when the
//! span's level is disabled and nothing is recorded to the trace sink. A
//! background sampler (the `apf-prof` crate) periodically snapshots every
//! registered thread's stack and aggregates the snapshots into folded
//! flamegraph form.
//!
//! Design constraints, in order:
//!
//! * **The fully-disabled path costs one relaxed atomic load** (the shared
//!   gate in `lib.rs`) and touches nothing here.
//! * **Owner-writes, sampler-reads.** Each [`ThreadStack`] is written only
//!   by its owning thread (push/pop) and read concurrently by the sampler.
//!   Frames are written *before* the depth is published, so a sample never
//!   observes an uninitialized frame; a sample racing a push/pop may be one
//!   frame stale, which for a statistical profiler is fine.
//! * **No allocation after warm-up.** Interning a name allocates once per
//!   distinct name; registering a thread allocates once per thread. Pushes
//!   and pops after that are lock-free except the intern-table lookup.
//!
//! Names are interned to `u32` ids so the stack is a fixed array of atomics
//! and the allocation-profiler hook ([`current_name_id`]) can attribute an
//! allocation to the innermost open span without allocating itself.

use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum tracked stack depth per thread. Deeper nesting is still counted
/// (pushes/pops stay balanced) but frames beyond this depth are not sampled.
pub const MAX_DEPTH: usize = 32;

// Public because `stacks` returns it.
/// One thread's live span-name stack, readable by the sampler while the
/// owning thread pushes and pops.
pub struct ThreadStack {
    /// The owning thread's trace ordinal (same value as the `thread` field
    /// on its JSONL records).
    ordinal: u64,
    /// Set when the owning thread exited; dead stacks are skipped by the
    /// sampler and pruned from the registry on the next registration.
    dead: AtomicBool,
    /// Logical depth (may exceed [`MAX_DEPTH`]; only the first
    /// [`MAX_DEPTH`] frames are stored).
    depth: AtomicUsize,
    /// Interned name ids, root first.
    frames: [AtomicU32; MAX_DEPTH],
}

impl std::fmt::Debug for ThreadStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadStack")
            .field("ordinal", &self.ordinal)
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .finish()
    }
}

impl ThreadStack {
    fn new(ordinal: u64) -> ThreadStack {
        ThreadStack {
            ordinal,
            dead: AtomicBool::new(false),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// The owning thread's trace ordinal.
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }

    /// Owner-only: pushes `name_id` (frame first, then depth, so a
    /// concurrent sample never sees an unwritten frame).
    fn push(&self, name_id: u32) {
        let d = self.depth.load(Ordering::Relaxed);
        if d < MAX_DEPTH {
            self.frames[d].store(name_id, Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Release);
    }

    /// Owner-only: pops the top frame and returns the new top's name id
    /// (0 when the stack is empty or truncated).
    fn pop(&self) -> u32 {
        let d = self.depth.load(Ordering::Relaxed);
        if d == 0 {
            return 0;
        }
        let nd = d - 1;
        self.depth.store(nd, Ordering::Release);
        if nd == 0 || nd > MAX_DEPTH {
            0
        } else {
            self.frames[nd - 1].load(Ordering::Relaxed)
        }
    }

    /// Copies the current stack (root first) into `out`; returns `false`
    /// (leaving `out` empty) when the stack is empty or the thread is gone.
    ///
    /// Racing a push/pop on the owner thread yields a stack that is at most
    /// one frame stale — acceptable for sampling.
    pub fn sample(&self, out: &mut Vec<u32>) -> bool {
        out.clear();
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        let d = self.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        if d == 0 {
            return false;
        }
        for frame in &self.frames[..d] {
            out.push(frame.load(Ordering::Relaxed));
        }
        true
    }
}

/// Interned span names: id 0 is reserved for "no span"; real ids start at 1.
#[derive(Default)]
struct Interner {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::default()))
}

/// Interns `name`, returning its stable process-wide id (>= 1).
pub fn intern_name(name: &'static str) -> u32 {
    let mut guard = interner().lock().expect("name interner poisoned");
    if let Some(&id) = guard.ids.get(name) {
        return id;
    }
    guard.names.push(name);
    let id = guard.names.len() as u32;
    guard.ids.insert(name, id);
    id
}

/// The name behind an interned id (`None` for 0 or unknown ids).
pub fn name_of(id: u32) -> Option<&'static str> {
    if id == 0 {
        return None;
    }
    let guard = interner().lock().expect("name interner poisoned");
    guard.names.get(id as usize - 1).copied()
}

/// Every live registered thread stack (dead threads filtered out). The
/// sampler calls this each pass; registration order is stable.
pub fn stacks() -> Vec<Arc<ThreadStack>> {
    REGISTRY
        .lock()
        .map(|reg| {
            reg.iter()
                .filter(|s| !s.dead.load(Ordering::Relaxed))
                .cloned()
                .collect()
        })
        .unwrap_or_default()
}

static REGISTRY: Mutex<Vec<Arc<ThreadStack>>> = Mutex::new(Vec::new());

fn register(ordinal: u64) -> Arc<ThreadStack> {
    let stack = Arc::new(ThreadStack::new(ordinal));
    if let Ok(mut reg) = REGISTRY.lock() {
        // Prune stacks of exited threads so long-lived processes spawning
        // short-lived threads don't grow the registry without bound.
        reg.retain(|s| !s.dead.load(Ordering::Relaxed));
        reg.push(Arc::clone(&stack));
    }
    stack
}

/// Drops the TLS handle on thread exit: marks the shared stack dead so the
/// sampler skips it and the registry prunes it.
struct LocalStack(Arc<ThreadStack>);

impl Drop for LocalStack {
    fn drop(&mut self) {
        self.0.depth.store(0, Ordering::Release);
        self.0.dead.store(true, Ordering::Relaxed);
    }
}

thread_local! {
    /// This thread's registered stack (registered lazily on first push).
    static LOCAL: OnceCell<LocalStack> = const { OnceCell::new() };
    /// Innermost open span's name id, mirrored out of the stack so the
    /// allocation-profiler hook can read it with a plain `Cell` access
    /// (no destructor, no allocation — safe inside a global allocator).
    static TOP_NAME: Cell<u32> = const { Cell::new(0) };
}

/// Pushes `name` onto the calling thread's stack, registering the thread on
/// first use. Returns whether a frame was actually pushed (the span guard
/// pops only if so); `false` only during thread teardown.
pub(crate) fn push_frame(name: &'static str) -> bool {
    let id = intern_name(name);
    let pushed = LOCAL
        .try_with(|cell| {
            let local = cell.get_or_init(|| LocalStack(register(crate::span::thread_ordinal())));
            local.0.push(id);
        })
        .is_ok();
    if pushed {
        let _ = TOP_NAME.try_with(|t| t.set(id));
    }
    pushed
}

/// Pops the calling thread's top frame (paired with [`push_frame`]).
pub(crate) fn pop_frame() {
    let _ = LOCAL.try_with(|cell| {
        if let Some(local) = cell.get() {
            let top = local.0.pop();
            let _ = TOP_NAME.try_with(|t| t.set(top));
        }
    });
}

/// The innermost open span's interned name id on the calling thread
/// (0 = none). Allocation-free and panic-free: callable from inside a
/// global allocator.
pub fn current_name_id() -> u32 {
    TOP_NAME.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_resolvable() {
        let a = intern_name("stack.test.alpha");
        let b = intern_name("stack.test.beta");
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(intern_name("stack.test.alpha"), a);
        assert_eq!(name_of(a), Some("stack.test.alpha"));
        assert_eq!(name_of(0), None);
    }

    #[test]
    fn push_pop_and_sample() {
        let st = ThreadStack::new(42);
        assert_eq!(st.ordinal(), 42);
        let mut out = Vec::new();
        assert!(!st.sample(&mut out));
        st.push(7);
        st.push(9);
        assert!(st.sample(&mut out));
        assert_eq!(out, vec![7, 9]);
        assert_eq!(st.pop(), 7);
        assert!(st.sample(&mut out));
        assert_eq!(out, vec![7]);
        assert_eq!(st.pop(), 0);
        assert!(!st.sample(&mut out));
        // Underflow is a no-op.
        assert_eq!(st.pop(), 0);
    }

    #[test]
    fn deep_stacks_stay_balanced_past_max_depth() {
        let st = ThreadStack::new(1);
        for i in 0..(MAX_DEPTH as u32 + 8) {
            st.push(i + 1);
        }
        let mut out = Vec::new();
        assert!(st.sample(&mut out));
        assert_eq!(out.len(), MAX_DEPTH);
        assert_eq!(out[0], 1);
        for _ in 0..8 {
            st.pop();
        }
        assert!(st.sample(&mut out));
        assert_eq!(out.len(), MAX_DEPTH);
        // Back below the cap, the top is resolvable again.
        for _ in 0..MAX_DEPTH - 1 {
            st.pop();
        }
        assert!(st.sample(&mut out));
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn thread_frames_register_and_unregister() {
        crate::set_stack_tracking(true);
        let id = intern_name("stack.test.worker");
        let handle = std::thread::spawn(move || {
            assert!(push_frame("stack.test.worker"));
            assert_eq!(current_name_id(), id);
            // Our stack must now be visible to the sampler.
            let mut out = Vec::new();
            let seen = stacks()
                .iter()
                .any(|s| s.sample(&mut out) && out.contains(&id));
            pop_frame();
            assert_eq!(current_name_id(), 0);
            seen
        });
        assert!(handle.join().expect("worker panicked"));
        crate::set_stack_tracking(false);
        // After thread exit, a fresh registration prunes the dead stack.
        let before = stacks().len();
        let _ = before; // pruning is best-effort; just ensure no panic
    }
}
