//! Compact dormant encoding of APF stability state.
//!
//! The population simulator registers far more clients than it ever
//! materializes in one round; between rounds, APF state lives in a registry
//! as a byte blob, not as live `Vec<f32>`s. [`DormantApfState`] is that
//! blob: the freeze bookkeeping is stored sparsely behind a bit-packed
//! [`FreezeMask`] (only scalars that have ever frozen carry period/round
//! entries), and the Eq. 17 EMA trajectories go through an
//! [`EmaCodec`] — dense `f32` for bit-exact golden parity, or binary16 to
//! halve their footprint. The pinned and check-reference vectors are always
//! dense `f32`: they are rollback *targets*, and narrowing them would move
//! frozen model values.
//!
//! `Dense` round-trips bit-exactly: `decode(encode(s)) == s`, which is what
//! lets the population runner interpose a dormant hop every round and still
//! reproduce the golden trajectories scalar for scalar.

use apf_quant::EmaCodec;

use crate::config::ApfConfig;
use crate::mask::FreezeMask;
use crate::state::ApfState;

const MAGIC: &[u8; 4] = b"APFD";

/// A dormant (byte-serialized, compact) [`ApfState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DormantApfState {
    bytes: Vec<u8>,
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    cur: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        if self.cur + len > self.bytes.len() {
            return Err("truncated dormant APF state".to_owned());
        }
        let s = &self.bytes[self.cur..self.cur + len];
        self.cur += len;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

impl DormantApfState {
    /// Encodes a snapshot into dormant form.
    pub fn encode(state: &ApfState, codec: EmaCodec) -> DormantApfState {
        let n = state.pinned.len();
        let mut out = Vec::with_capacity(32 + n * (8 + 2 * codec.stride()));
        out.extend_from_slice(MAGIC);
        out.push(match codec {
            EmaCodec::Dense => 0,
            EmaCodec::F16 => 1,
        });
        push_u64(&mut out, n as u64);
        push_f32(&mut out, state.cfg.stability_threshold);
        push_u32(&mut out, state.cfg.check_every_rounds);
        push_f32(&mut out, state.cfg.ema_alpha);
        push_u64(&mut out, state.cfg.seed);
        push_f32(&mut out, state.threshold);
        push_u64(&mut out, state.checks_run);
        push_u64(&mut out, state.ema_updates);
        // Sparse freeze bookkeeping: a bit-packed mask of scalars that have
        // ever frozen, then period/round entries for those scalars only.
        let active = FreezeMask::from_fn(n, |j| {
            state.freeze_len[j] != 0 || state.unfreeze_round[j] != 0
        });
        out.extend_from_slice(&active.packed_bytes());
        for j in 0..n {
            if active.is_frozen(j) {
                push_u32(&mut out, state.freeze_len[j]);
                push_u64(&mut out, state.unfreeze_round[j]);
            }
        }
        codec.encode_into(&state.ema_e, &mut out);
        codec.encode_into(&state.ema_a, &mut out);
        for v in state.pinned.iter().chain(&state.check_ref) {
            push_f32(&mut out, *v);
        }
        DormantApfState { bytes: out }
    }

    /// Decodes back to a live snapshot. The non-scalar config fields
    /// (variant, threshold decay, wire size) come from
    /// `cfg_template`, which must match the original configuration.
    ///
    /// # Errors
    /// Returns a description when the blob is malformed.
    pub fn decode(&self, cfg_template: ApfConfig) -> Result<ApfState, String> {
        let mut r = Reader {
            bytes: &self.bytes,
            cur: 0,
        };
        if r.take(4)? != MAGIC {
            return Err("bad dormant magic".to_owned());
        }
        let codec = match r.take(1)?[0] {
            0 => EmaCodec::Dense,
            1 => EmaCodec::F16,
            b => return Err(format!("unknown dormant codec byte {b}")),
        };
        let n = r.u64()? as usize;
        let threshold0 = r.f32()?;
        let check_every = r.u32()?;
        let alpha = r.f32()?;
        let seed = r.u64()?;
        let threshold = r.f32()?;
        let checks_run = r.u64()?;
        let ema_updates = r.u64()?;
        let mask_bytes = crate::mask::mask_bytes(n);
        let active = FreezeMask::from_packed(r.take(mask_bytes)?, n)
            .ok_or_else(|| "bad dormant freeze mask".to_owned())?;
        let mut freeze_len = vec![0u32; n];
        let mut unfreeze_round = vec![0u64; n];
        for j in 0..n {
            if active.is_frozen(j) {
                freeze_len[j] = r.u32()?;
                unfreeze_round[j] = r.u64()?;
            }
        }
        let ema_stride = codec.encoded_len(n);
        let mut ema_e = Vec::with_capacity(n);
        codec
            .decode_into(r.take(ema_stride)?, &mut ema_e)
            .map_err(|e| e.to_string())?;
        let mut ema_a = Vec::with_capacity(n);
        codec
            .decode_into(r.take(ema_stride)?, &mut ema_a)
            .map_err(|e| e.to_string())?;
        let read_f32s = |r: &mut Reader| -> Result<Vec<f32>, String> {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f32()?);
            }
            Ok(v)
        };
        let pinned = read_f32s(&mut r)?;
        let check_ref = read_f32s(&mut r)?;
        if r.cur != self.bytes.len() {
            return Err("trailing bytes in dormant APF state".to_owned());
        }
        Ok(ApfState {
            cfg: ApfConfig {
                stability_threshold: threshold0,
                check_every_rounds: check_every,
                ema_alpha: alpha,
                seed,
                ..cfg_template
            },
            ema_e,
            ema_a,
            ema_updates,
            freeze_len,
            unfreeze_round,
            pinned,
            check_ref,
            threshold,
            checks_run,
        })
    }

    /// The codec this blob was encoded with.
    pub fn codec(&self) -> EmaCodec {
        match self.bytes.get(4) {
            Some(1) => EmaCodec::F16,
            _ => EmaCodec::Dense,
        }
    }

    /// Size of the dormant blob in bytes — what the registry actually holds
    /// resident per entry.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw blob (e.g. for persisting a registry to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Aimd;
    use crate::manager::ApfManager;

    fn warmed_state() -> ApfState {
        let init = vec![0.0f32; 24];
        let cfg = ApfConfig {
            check_every_rounds: 1,
            threshold_decay: None,
            ..ApfConfig::default()
        };
        let mut mgr = ApfManager::new(&init, cfg, Box::new(Aimd::default())).unwrap();
        let mut p = init;
        for r in 0..25u64 {
            for (j, v) in p.iter_mut().enumerate() {
                if !mgr.is_frozen(j, r) {
                    *v += if j % 3 == 0 {
                        if r % 2 == 0 {
                            0.1
                        } else {
                            -0.1
                        }
                    } else {
                        0.05
                    };
                }
            }
            mgr.sync(&mut p, r, |u| u.to_vec());
        }
        mgr.snapshot()
    }

    #[test]
    fn dense_roundtrip_is_exact() {
        let state = warmed_state();
        let dormant = DormantApfState::encode(&state, EmaCodec::Dense);
        let back = dormant.decode(state.cfg).expect("decode");
        assert_eq!(back, state);
        assert_eq!(dormant.codec(), EmaCodec::Dense);
    }

    #[test]
    fn f16_roundtrip_projects_only_the_emas() {
        let state = warmed_state();
        let dormant = DormantApfState::encode(&state, EmaCodec::F16);
        assert_eq!(dormant.codec(), EmaCodec::F16);
        let back = dormant.decode(state.cfg).expect("decode");
        // EMAs take the binary16 projection...
        let expect_e = apf_quant::f16_decode(&apf_quant::f16_encode(&state.ema_e));
        let expect_a = apf_quant::f16_decode(&apf_quant::f16_encode(&state.ema_a));
        assert_eq!(back.ema_e, expect_e);
        assert_eq!(back.ema_a, expect_a);
        // ...everything else stays bit-exact.
        assert_eq!(back.pinned, state.pinned);
        assert_eq!(back.check_ref, state.check_ref);
        assert_eq!(back.freeze_len, state.freeze_len);
        assert_eq!(back.unfreeze_round, state.unfreeze_round);
        assert_eq!(back.checks_run, state.checks_run);
    }

    #[test]
    fn f16_blob_is_smaller_than_dense() {
        let state = warmed_state();
        let dense = DormantApfState::encode(&state, EmaCodec::Dense);
        let f16 = DormantApfState::encode(&state, EmaCodec::F16);
        assert!(f16.len_bytes() < dense.len_bytes());
    }

    #[test]
    fn fresh_state_encodes_sparsely() {
        // A never-frozen model carries no period/round entries: marking
        // every scalar as having frozen once grows the blob by exactly one
        // (u32 period, u64 round) entry per scalar.
        let init = vec![0.0f32; 256];
        let mgr = ApfManager::new(&init, ApfConfig::default(), Box::new(Aimd::default())).unwrap();
        let state = mgr.snapshot();
        let dormant = DormantApfState::encode(&state, EmaCodec::Dense);
        let mut ever_frozen = state.clone();
        ever_frozen.freeze_len.fill(1);
        let full = DormantApfState::encode(&ever_frozen, EmaCodec::Dense);
        assert_eq!(full.len_bytes() - dormant.len_bytes(), 256 * 12);
        let back = dormant.decode(state.cfg).expect("decode");
        assert_eq!(back, state);
    }

    #[test]
    fn restored_manager_continues_identically() {
        let state = warmed_state();
        let dormant = DormantApfState::encode(&state, EmaCodec::Dense);
        let mut a = ApfManager::restore(state.clone(), Box::new(Aimd::default()));
        let mut b = ApfManager::restore(
            dormant.decode(state.cfg).unwrap(),
            Box::new(Aimd::default()),
        );
        let mut pa = state.pinned.clone();
        let mut pb = pa.clone();
        for r in 25..40u64 {
            for (j, v) in pa.iter_mut().enumerate() {
                if !a.is_frozen(j, r) {
                    *v += if j % 3 == 0 { 0.1 } else { -0.1 };
                }
            }
            for (j, v) in pb.iter_mut().enumerate() {
                if !b.is_frozen(j, r) {
                    *v += if j % 3 == 0 { 0.1 } else { -0.1 };
                }
            }
            assert_eq!(
                a.sync(&mut pa, r, |u| u.to_vec()),
                b.sync(&mut pb, r, |u| u.to_vec())
            );
            assert_eq!(pa, pb, "round {r}");
        }
    }

    #[test]
    fn corrupt_blobs_rejected() {
        let state = warmed_state();
        let dormant = DormantApfState::encode(&state, EmaCodec::Dense);
        let mut bad = dormant.as_bytes().to_vec();
        bad[0] = b'X';
        assert!(DormantApfState { bytes: bad }.decode(state.cfg).is_err());
        let mut truncated = dormant.as_bytes().to_vec();
        truncated.truncate(truncated.len() - 2);
        assert!(DormantApfState { bytes: truncated }
            .decode(state.cfg)
            .is_err());
        let mut padded = dormant.as_bytes().to_vec();
        padded.push(7);
        assert!(DormantApfState { bytes: padded }.decode(state.cfg).is_err());
        let mut bad_codec = dormant.as_bytes().to_vec();
        bad_codec[4] = 9;
        assert!(DormantApfState { bytes: bad_codec }
            .decode(state.cfg)
            .is_err());
    }
}
