//! The APF wire protocol: length-prefixed binary frames carrying
//! bitmap-compressed masked parameter transfers.
//!
//! Every frame is a 10-byte header — magic `APFW`, version, frame type,
//! little-endian payload length — followed by the payload. The payload
//! length is capped at [`MAX_FRAME`] and read in bounded chunks, so a
//! hostile length prefix can neither trigger a giant up-front allocation
//! nor make the reader buffer more than the peer actually sent.
//!
//! Masked transfers use the same encoding the byte accounting in
//! `apf::masked_transfer_bytes` charges for: a packed freeze bitmap
//! (1 bit per scalar, LSB-first, `apf::FreezeMask::packed_bytes`)
//! followed by the unfrozen values as little-endian f32 — or binary16 bit
//! patterns when the f16 flag is set, exactly the `apf-quant` conversion the
//! simulator applies to quantized uploads. The mask stays bit-packed end to end: it is built packed by the
//! APF manager, copied verbatim onto the wire, and decoded back into a
//! [`FreezeMask`]. `crates/net/tests/wire_proptests.rs` pins the equality
//! between encoded payload sizes and the ledger formula.
//!
//! Since protocol version 2, the handshake and round frames
//! (`Join`/`Welcome`/`Push`/`Pull`) end with a fixed
//! [`CTX_WIRE_LEN`]-byte [`TraceContext`] so both processes of an exchange
//! stamp their trace records with the same run id and can link their spans
//! across the process boundary. The context rides *outside* the masked
//! payload, so the ledger's logical byte accounting
//! (`payload.encoded_len()`) is unchanged; only the framing overhead grew.

use std::io::{Read, Write};

use apf::{mask_bytes, masked_transfer_bytes, FreezeMask};
use apf_quant::{f16_bits_to_f32, f32_to_f16_bits};
use apf_trace::{span, Level, TraceContext};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"APFW";
/// Protocol version carried in every header. v2 added the trailing
/// [`TraceContext`] on Join/Welcome/Push/Pull.
const VERSION: u8 = 2;
/// Bytes of the [`TraceContext`] trailer on Join/Welcome/Push/Pull frames.
pub const CTX_WIRE_LEN: usize = TraceContext::WIRE_LEN;
/// Hard cap on a frame's payload length. A header declaring more is
/// rejected as [`WireError::Oversized`] before any payload allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Header size: magic (4) + version (1) + type (1) + payload length (4).
const HEADER_LEN: usize = 10;

/// Incremental payload read granularity; also bounds how far allocation can
/// run ahead of bytes actually received.
const READ_CHUNK: usize = 64 * 1024;

/// A typed wire failure. Every decode path returns one of these — malformed
/// or hostile input must never panic or allocate unboundedly.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport error (timeouts, resets, ...).
    Io(std::io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// The hostile declared length.
        len: u32,
    },
    /// The stream ended before the declared length was delivered.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// Structurally invalid payload (bad counts, bad UTF-8, trailing bytes).
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized { len } => {
                write!(f, "declared payload {len} exceeds cap {MAX_FRAME}")
            }
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} bytes, got {got}")
            }
            WireError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// A masked parameter transfer: the freeze bitmap plus the unfrozen values.
///
/// A set mask bit means the scalar is frozen and carries no value; `values`
/// holds exactly one f32 per unfrozen scalar, in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedPayload {
    /// Per-scalar freeze mask (set bit = frozen, absent from `values`).
    pub mask: FreezeMask,
    /// The unfrozen scalars, in index order.
    pub values: Vec<f32>,
    /// Encode values as binary16 bit patterns (2 bytes/scalar) on the wire.
    pub f16: bool,
}

impl MaskedPayload {
    /// Builds a payload, checking that `values` has exactly one entry per
    /// unfrozen scalar.
    ///
    /// # Errors
    /// Returns [`WireError::Corrupt`] on a count mismatch.
    pub fn new(mask: FreezeMask, values: Vec<f32>, f16: bool) -> Result<MaskedPayload, WireError> {
        let unfrozen = mask.unfrozen_count();
        if values.len() != unfrozen {
            return Err(WireError::Corrupt(format!(
                "{} values for {unfrozen} unfrozen scalars",
                values.len()
            )));
        }
        Ok(MaskedPayload { mask, values, f16 })
    }

    /// Bytes per encoded value: 2 under f16, 4 otherwise.
    pub fn bytes_per_scalar(&self) -> u64 {
        if self.f16 {
            2
        } else {
            4
        }
    }

    /// Exact encoded size: 5 fixed bytes (total + flags) plus the masked
    /// transfer (bitmap + packed values) the ledger accounting charges for.
    pub fn encoded_len(&self) -> u64 {
        5 + masked_transfer_bytes(self.mask.len(), self.values.len(), self.bytes_per_scalar())
    }

    fn write_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.mask.len() as u32).to_le_bytes());
        out.push(u8::from(self.f16));
        out.extend_from_slice(&self.mask.packed_bytes());
        if self.f16 {
            for &v in &self.values {
                out.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
            }
        } else {
            for &v in &self.values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    fn read_from(c: &mut Cursor<'_>) -> Result<MaskedPayload, WireError> {
        let total = c.take_u32()? as usize;
        let flags = c.take_u8()?;
        if flags & !1 != 0 {
            return Err(WireError::Corrupt(format!(
                "unknown payload flags {flags:#x}"
            )));
        }
        let f16 = flags & 1 != 0;
        let mask = FreezeMask::from_packed(c.take(mask_bytes(total))?, total)
            .ok_or_else(|| WireError::Corrupt("bitmap has set trailing bits".to_owned()))?;
        let unfrozen = mask.unfrozen_count();
        let values = if f16 {
            c.take(unfrozen * 2)?
                .chunks_exact(2)
                .map(|b| f16_bits_to_f32(u16::from_le_bytes([b[0], b[1]])))
                .collect()
        } else {
            c.take(unfrozen * 4)?
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect()
        };
        Ok(MaskedPayload { mask, values, f16 })
    }
}

/// Frame type bytes on the wire.
mod ty {
    pub(super) const JOIN: u8 = 1;
    pub(super) const WELCOME: u8 = 2;
    pub(super) const PUSH: u8 = 3;
    pub(super) const PULL: u8 = 4;
    pub(super) const DONE: u8 = 5;
    pub(super) const ABORT: u8 = 6;
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: request to participate as `client_id`.
    Join {
        /// The claimed client slot.
        client_id: u32,
        /// Sender's trace identity (run id still 0: the server mints it).
        ctx: TraceContext,
    },
    /// Server → client: the run spec (canonical string) plus the initial
    /// model distribution.
    Welcome {
        /// `RunSpec::canonical()` of the run.
        spec: String,
        /// The initial flat model every participant starts from.
        init: Vec<f32>,
        /// The server's trace identity; its `run_id` names the whole run and
        /// every participant adopts it.
        ctx: TraceContext,
    },
    /// Client → server: one round's masked local update.
    Push {
        /// Round index.
        round: u64,
        /// Sender's client slot.
        client_id: u32,
        /// The round's mean local loss, as f32 bits.
        loss_bits: u32,
        /// Freeze bitmap + unfrozen local values.
        payload: MaskedPayload,
        /// Sender's trace identity; `link_span` is the client's round span.
        ctx: TraceContext,
    },
    /// Server → client: the round's aggregated unfrozen scalars.
    Pull {
        /// Round index.
        round: u64,
        /// Freeze bitmap + aggregated unfrozen values.
        payload: MaskedPayload,
        /// Sender's trace identity; `link_span` is the server's round span.
        ctx: TraceContext,
    },
    /// Server → client: the run completed.
    Done,
    /// Either direction: fatal protocol-level rejection.
    Abort {
        /// Human-readable reason.
        reason: String,
    },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Join { .. } => ty::JOIN,
            Frame::Welcome { .. } => ty::WELCOME,
            Frame::Push { .. } => ty::PUSH,
            Frame::Pull { .. } => ty::PULL,
            Frame::Done => ty::DONE,
            Frame::Abort { .. } => ty::ABORT,
        }
    }

    fn payload_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Join { client_id, ctx } => {
                out.extend_from_slice(&client_id.to_le_bytes());
                out.extend_from_slice(&ctx.to_wire());
            }
            Frame::Welcome { spec, init, ctx } => {
                out.extend_from_slice(&(spec.len() as u32).to_le_bytes());
                out.extend_from_slice(spec.as_bytes());
                out.extend_from_slice(&(init.len() as u32).to_le_bytes());
                for &v in init {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&ctx.to_wire());
            }
            Frame::Push {
                round,
                client_id,
                loss_bits,
                payload,
                ctx,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&client_id.to_le_bytes());
                out.extend_from_slice(&loss_bits.to_le_bytes());
                payload.write_into(&mut out);
                out.extend_from_slice(&ctx.to_wire());
            }
            Frame::Pull {
                round,
                payload,
                ctx,
            } => {
                out.extend_from_slice(&round.to_le_bytes());
                payload.write_into(&mut out);
                out.extend_from_slice(&ctx.to_wire());
            }
            Frame::Done => {}
            Frame::Abort { reason } => {
                out.extend_from_slice(&(reason.len() as u32).to_le_bytes());
                out.extend_from_slice(reason.as_bytes());
            }
        }
        out
    }

    /// Serializes the frame (header + payload).
    ///
    /// # Errors
    /// Returns [`WireError::Oversized`] when the payload would exceed
    /// [`MAX_FRAME`].
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let payload = self.payload_bytes();
        if payload.len() > MAX_FRAME as usize {
            return Err(WireError::Oversized {
                len: payload.len().min(u32::MAX as usize) as u32,
            });
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.type_byte());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }
}

/// Bounds-checked payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(WireError::Truncated {
                expected: n,
                got: remaining,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Corrupt("string is not UTF-8".to_owned()))
    }

    fn take_ctx(&mut self) -> Result<TraceContext, WireError> {
        TraceContext::from_wire(self.take(CTX_WIRE_LEN)?)
            .ok_or_else(|| WireError::Corrupt("unknown trace-context role tag".to_owned()))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Corrupt(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn decode_payload(frame_type: u8, buf: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(buf);
    let frame = match frame_type {
        ty::JOIN => Frame::Join {
            client_id: c.take_u32()?,
            ctx: c.take_ctx()?,
        },
        ty::WELCOME => {
            let spec = c.take_str()?;
            let n = c.take_u32()? as usize;
            let init = c
                .take(
                    n.checked_mul(4)
                        .ok_or(WireError::Oversized { len: u32::MAX })?,
                )?
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            Frame::Welcome {
                spec,
                init,
                ctx: c.take_ctx()?,
            }
        }
        ty::PUSH => Frame::Push {
            round: c.take_u64()?,
            client_id: c.take_u32()?,
            loss_bits: c.take_u32()?,
            payload: MaskedPayload::read_from(&mut c)?,
            ctx: c.take_ctx()?,
        },
        ty::PULL => Frame::Pull {
            round: c.take_u64()?,
            payload: MaskedPayload::read_from(&mut c)?,
            ctx: c.take_ctx()?,
        },
        ty::DONE => Frame::Done,
        ty::ABORT => Frame::Abort {
            reason: c.take_str()?,
        },
        other => return Err(WireError::UnknownType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Writes one frame; returns the bytes put on the wire.
///
/// # Errors
/// Returns [`WireError::Oversized`] for a too-large frame and
/// [`WireError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<u64, WireError> {
    let bytes = {
        let mut sp = span!(Level::Debug, target: "net.wire", "encode");
        let bytes = frame.encode()?;
        sp.record("bytes", bytes.len());
        bytes
    };
    {
        let mut sp = span!(Level::Debug, target: "net.wire", "write");
        sp.record("bytes", bytes.len());
        w.write_all(&bytes)?;
        w.flush()?;
    }
    Ok(bytes.len() as u64)
}

/// Reads exactly `n` bytes in bounded chunks; never allocates ahead of what
/// the stream actually delivers by more than [`READ_CHUNK`].
fn read_bounded(r: &mut impl Read, n: usize) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(n.min(READ_CHUNK));
    let mut chunk = [0u8; READ_CHUNK];
    while out.len() < n {
        let want = (n - out.len()).min(READ_CHUNK);
        match r.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    expected: n,
                    got: out.len(),
                })
            }
            Ok(k) => out.extend_from_slice(&chunk[..k]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(out)
}

/// Reads one frame; returns it with the bytes consumed off the wire.
///
/// # Errors
/// Returns the typed [`WireError`] describing exactly how the input was
/// malformed; hostile input never panics.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64), WireError> {
    // The read span covers blocking on the peer, so its duration is
    // wait-for-peer plus actual transfer; callers name the surrounding
    // phase (`push_read`, `pull_wait`) to say which dominates.
    let mut sp = span!(Level::Debug, target: "net.wire", "read");
    let header = read_bounded(r, HEADER_LEN)?;
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let frame_type = header[5];
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    let payload = read_bounded(r, len as usize)?;
    sp.record("bytes", HEADER_LEN + payload.len());
    drop(sp);
    let frame = {
        let _sp = span!(Level::Debug, target: "net.wire", "decode");
        decode_payload(frame_type, &payload)?
    };
    Ok((frame, (HEADER_LEN + payload.len()) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_trace::Role;

    fn roundtrip(f: &Frame) -> Frame {
        let bytes = f.encode().unwrap();
        let (back, n) = read_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(n as usize, bytes.len());
        back
    }

    #[test]
    fn simple_frames_roundtrip() {
        for f in [
            Frame::Join {
                client_id: 7,
                ctx: TraceContext::NONE,
            },
            Frame::Done,
            Frame::Abort {
                reason: "busy".to_owned(),
            },
            Frame::Welcome {
                spec: "apf-spec-v1;seed=3".to_owned(),
                init: vec![1.0, -2.5, 0.0],
                ctx: TraceContext::new(0x1234, Role::Server).with_link(5),
            },
        ] {
            assert_eq!(roundtrip(&f), f);
        }
    }

    #[test]
    fn masked_frames_roundtrip_and_match_accounting() {
        let frozen = [true, false, false, true, false, true, true, false, false];
        let mask = FreezeMask::from_fn(frozen.len(), |j| frozen[j]);
        let payload = MaskedPayload::new(mask, vec![0.5, -1.0, 2.0, 3.5, -0.25], false).unwrap();
        assert_eq!(payload.encoded_len(), 5 + 2 + 5 * 4);
        let f = Frame::Push {
            round: 3,
            client_id: 1,
            loss_bits: 0.75f32.to_bits(),
            payload,
            ctx: TraceContext::new(9, Role::Client(1)).with_link(42),
        };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn context_trailer_survives_the_wire_exactly() {
        let ctx = TraceContext {
            run_id: u64::MAX,
            pid: 77,
            role: Role::Client(63),
            link_span: 1 << 40,
        };
        let f = Frame::Pull {
            round: 12,
            payload: MaskedPayload::new(FreezeMask::all_unfrozen(4), vec![0.0; 4], false).unwrap(),
            ctx,
        };
        match roundtrip(&f) {
            Frame::Pull { ctx: back, .. } => assert_eq!(back, ctx),
            other => panic!("wrong frame back: {other:?}"),
        }
    }

    #[test]
    fn corrupt_context_role_tag_is_typed() {
        let f = Frame::Join {
            client_id: 0,
            ctx: TraceContext::NONE,
        };
        let mut bytes = f.encode().unwrap();
        // The role tag is byte 20 of the trailing context.
        let tag_at = bytes.len() - CTX_WIRE_LEN + 20;
        bytes[tag_at] = 200;
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn payload_rejects_count_mismatch() {
        assert!(matches!(
            MaskedPayload::new(FreezeMask::from_fn(2, |j| j == 1), vec![1.0, 2.0], false),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Frame::Done.encode().unwrap();
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(WireError::Oversized { len: u32::MAX })
        ));
    }

    #[test]
    fn header_corruption_is_typed() {
        let good = Frame::Join {
            client_id: 0,
            ctx: TraceContext::NONE,
        }
        .encode()
        .unwrap();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(WireError::BadMagic(_))
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            read_frame(&mut bad_version.as_slice()),
            Err(WireError::BadVersion(9))
        ));
        let mut bad_type = good.clone();
        bad_type[5] = 42;
        assert!(matches!(
            read_frame(&mut bad_type.as_slice()),
            Err(WireError::UnknownType(42))
        ));
    }
}
