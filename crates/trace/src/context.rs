//! Cross-process trace contexts: who is emitting, and for which run.
//!
//! A distributed APF run produces one JSONL trace per process (one server,
//! N clients). To merge them into a single logical trace, every record
//! carries a [`TraceContext`]: the run id (minted by the server), the
//! emitter's role (`server` / `client:<k>`), its OS pid, and optionally a
//! *link* — the peer span id the surrounding work hangs under, carried
//! across the wire so e.g. a server's per-round reduce span can point back
//! at the client round span whose Push it consumed.
//!
//! Contexts are resolved per record: the emitting thread's context if one
//! was set ([`set_thread_context`]), else the process-wide fallback
//! ([`set_process_context`]), else nothing is stamped. Resolution only
//! happens on the *enabled* path — with tracing off, instrumented code
//! never reads a context and never allocates.
//!
//! The 25-byte wire form ([`TraceContext::to_wire`]) is what `apf-net`
//! embeds in its `Join`/`Welcome`/`Push`/`Pull` frames.

use std::cell::Cell;
use std::sync::Mutex;

use crate::json::write_str;
use crate::{now_us, write_line, Level};

/// Which side of a distributed run a trace record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// No role assigned (single-process runs, unconfigured processes).
    Unset,
    /// The parameter server.
    Server,
    /// Edge client holding the given slot.
    Client(u32),
}

impl Role {
    /// The stable string form used in JSONL stamps (`"server"`,
    /// `"client:3"`; empty for [`Role::Unset`]).
    pub fn render(&self) -> String {
        match self {
            Role::Unset => String::new(),
            Role::Server => "server".to_owned(),
            Role::Client(k) => format!("client:{k}"),
        }
    }

    /// Parses the string form back (the merger in `trace-report` uses this).
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "" => Some(Role::Unset),
            "server" => Some(Role::Server),
            _ => {
                let k = s.strip_prefix("client:")?.parse().ok()?;
                Some(Role::Client(k))
            }
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Role::Unset => 0,
            Role::Server => 1,
            Role::Client(_) => 2,
        }
    }

    fn id(&self) -> u32 {
        match self {
            Role::Client(k) => *k,
            _ => 0,
        }
    }
}

/// The identity stamped on every trace record of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Run identifier minted by the server (0 = no context).
    pub run_id: u64,
    /// OS process id of the emitter.
    pub pid: u32,
    /// The emitter's role in the run.
    pub role: Role,
    /// A peer span id this context's work logically hangs under
    /// (0 = none). On the wire this is the *sender's* innermost span.
    pub link_span: u64,
}

impl TraceContext {
    /// The empty context: nothing is stamped, nothing crosses the wire.
    pub const NONE: TraceContext = TraceContext {
        run_id: 0,
        pid: 0,
        role: Role::Unset,
        link_span: 0,
    };

    /// Size of the fixed wire encoding in bytes.
    pub const WIRE_LEN: usize = 25;

    /// Builds a context for this process with the given run id and role.
    pub fn new(run_id: u64, role: Role) -> TraceContext {
        TraceContext {
            run_id,
            pid: std::process::id(),
            role,
            link_span: 0,
        }
    }

    /// Whether any identity is present.
    fn is_set(&self) -> bool {
        self.run_id != 0 || self.pid != 0 || self.role != Role::Unset
    }

    /// This context with `link_span` replaced — the form sent on the wire,
    /// pointing at the span enclosing the send.
    pub fn with_link(mut self, link_span: u64) -> TraceContext {
        self.link_span = link_span;
        self
    }

    /// The fixed 25-byte wire encoding: `run_id` (8 LE) + `pid` (4 LE) +
    /// `link_span` (8 LE) + role tag (1) + role id (4 LE).
    pub fn to_wire(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..8].copy_from_slice(&self.run_id.to_le_bytes());
        out[8..12].copy_from_slice(&self.pid.to_le_bytes());
        out[12..20].copy_from_slice(&self.link_span.to_le_bytes());
        out[20] = self.role.tag();
        out[21..25].copy_from_slice(&self.role.id().to_le_bytes());
        out
    }

    /// Decodes the wire form; `None` for a wrong length or unknown role tag
    /// (the caller turns that into its typed corrupt-frame error).
    pub fn from_wire(bytes: &[u8]) -> Option<TraceContext> {
        if bytes.len() != Self::WIRE_LEN {
            return None;
        }
        let u64_at = |i: usize| {
            u64::from_le_bytes([
                bytes[i],
                bytes[i + 1],
                bytes[i + 2],
                bytes[i + 3],
                bytes[i + 4],
                bytes[i + 5],
                bytes[i + 6],
                bytes[i + 7],
            ])
        };
        let u32_at =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        let role = match bytes[20] {
            0 => Role::Unset,
            1 => Role::Server,
            2 => Role::Client(u32_at(21)),
            _ => return None,
        };
        Some(TraceContext {
            run_id: u64_at(0),
            pid: u32_at(8),
            role,
            link_span: u64_at(12),
        })
    }
}

/// Process-wide fallback context (threads without their own context —
/// e.g. `apf-par` pool workers — inherit this).
static PROCESS_CTX: Mutex<TraceContext> = Mutex::new(TraceContext::NONE);

thread_local! {
    /// This thread's context; [`TraceContext::NONE`] defers to the process
    /// fallback.
    static THREAD_CTX: Cell<TraceContext> = const { Cell::new(TraceContext::NONE) };
}

/// Sets the process-wide fallback context.
pub fn set_process_context(ctx: TraceContext) {
    if let Ok(mut guard) = PROCESS_CTX.lock() {
        *guard = ctx;
    }
}

/// Sets the calling thread's context (wins over the process fallback).
/// In-process multi-role harnesses (server + client threads in one test)
/// use this to keep roles apart in a shared sink.
pub fn set_thread_context(ctx: TraceContext) {
    THREAD_CTX.with(|c| c.set(ctx));
}

/// Clears the calling thread's context, falling back to the process one.
pub fn clear_thread_context() {
    THREAD_CTX.with(|c| c.set(TraceContext::NONE));
}

/// The context that would be stamped on a record emitted by this thread
/// right now. Cheap (TLS read; one mutex lock only when falling back), but
/// still only called from the enabled path.
pub fn current_context() -> TraceContext {
    let tls = THREAD_CTX.with(Cell::get);
    if tls.is_set() {
        return tls;
    }
    PROCESS_CTX.lock().map(|g| *g).unwrap_or(TraceContext::NONE)
}

/// Appends the context stamp (`,"run":"...","role":"...","pid":N[,"link":N]`)
/// to a record under construction. No-op when no context is set.
pub(crate) fn push_context(out: &mut String) {
    let ctx = current_context();
    if !ctx.is_set() {
        return;
    }
    out.push_str(",\"run\":\"");
    out.push_str(&format!("{:016x}", ctx.run_id));
    out.push_str("\",\"role\":");
    write_str(out, &ctx.role.render());
    out.push_str(",\"pid\":");
    out.push_str(&ctx.pid.to_string());
    if ctx.link_span != 0 {
        out.push_str(",\"link\":");
        out.push_str(&ctx.link_span.to_string());
    }
}

/// Emits the trace-file header record: `{"t":"header",...}` with the
/// current context plus the run's canonical spec string, making a merged
/// multi-file trace self-describing. Gated on `Level::Info`; call it as
/// soon as role and spec are known (for a client, right after the Welcome
/// frame delivers them).
pub fn emit_header(spec: &str) {
    if !crate::enabled(Level::Info) {
        return;
    }
    let ctx = current_context();
    let mut line = String::with_capacity(96 + spec.len());
    line.push_str("{\"t\":\"header\",\"ts_us\":");
    line.push_str(&now_us().to_string());
    line.push_str(",\"run\":\"");
    line.push_str(&format!("{:016x}", ctx.run_id));
    line.push_str("\",\"role\":");
    write_str(&mut line, &ctx.role.render());
    line.push_str(",\"pid\":");
    line.push_str(&ctx.pid.to_string());
    line.push_str(",\"spec\":");
    write_str(&mut line, spec);
    line.push('}');
    write_line(&line);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_render_and_parse() {
        for role in [Role::Unset, Role::Server, Role::Client(0), Role::Client(7)] {
            assert_eq!(Role::parse(&role.render()), Some(role));
        }
        assert_eq!(Role::parse("client:x"), None);
        assert_eq!(Role::parse("peer"), None);
    }

    #[test]
    fn context_wire_roundtrip() {
        let ctx = TraceContext {
            run_id: 0xdead_beef_0123_4567,
            pid: 4242,
            role: Role::Client(3),
            link_span: 99,
        };
        let wire = ctx.to_wire();
        assert_eq!(wire.len(), TraceContext::WIRE_LEN);
        assert_eq!(TraceContext::from_wire(&wire), Some(ctx));
        assert_eq!(TraceContext::from_wire(&wire[..24]), None);
        let mut bad = wire;
        bad[20] = 9;
        assert_eq!(TraceContext::from_wire(&bad), None);
    }

    #[test]
    fn none_context_is_not_set_and_roundtrips() {
        assert!(!TraceContext::NONE.is_set());
        let wire = TraceContext::NONE.to_wire();
        assert_eq!(TraceContext::from_wire(&wire), Some(TraceContext::NONE));
    }

    #[test]
    fn thread_context_wins_over_process() {
        let proc_ctx = TraceContext::new(11, Role::Server);
        set_process_context(proc_ctx);
        assert_eq!(current_context().run_id, 11);
        let thr_ctx = TraceContext::new(22, Role::Client(1));
        set_thread_context(thr_ctx);
        assert_eq!(current_context().run_id, 22);
        clear_thread_context();
        assert_eq!(current_context().run_id, 11);
        set_process_context(TraceContext::NONE);
    }

    #[test]
    fn with_link_replaces_only_the_link() {
        let ctx = TraceContext::new(5, Role::Server).with_link(77);
        assert_eq!(ctx.link_span, 77);
        assert_eq!(ctx.run_id, 5);
        assert_eq!(ctx.role, Role::Server);
    }
}
