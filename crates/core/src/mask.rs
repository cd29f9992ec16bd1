//! Bit-packed freezing masks and the wire cost of masked transfers.
//!
//! §6.2 lets every client derive the freezing mask locally, so no mask ever
//! *needs* to cross the wire — but a self-describing masked frame (as sent
//! by `apf-net`) still carries the bitmap as a consistency check, and honest
//! byte accounting must include it. The canonical encoding of a masked
//! transfer is therefore:
//!
//! ```text
//! ceil(total / 8) bitmap bytes  +  unfrozen * bytes_per_scalar value bytes
//! ```
//!
//! [`masked_transfer_bytes`] is that formula; [`ApfManager::finish_round`]
//! reports it, and the `apf-net` wire codec is regression-tested to produce
//! payloads of exactly this size.
//!
//! [`ApfManager::finish_round`]: crate::ApfManager::finish_round

/// Bytes of a bit-packed mask over `n` scalars: `ceil(n / 8)`.
pub fn mask_bytes(n: usize) -> usize {
    n.div_ceil(8)
}

/// Wire bytes of one masked transfer over `total` scalars of which
/// `unfrozen` are shipped at `bytes_per_scalar` bytes each: the bit-packed
/// freeze bitmap plus the packed values.
pub fn masked_transfer_bytes(total: usize, unfrozen: usize, bytes_per_scalar: u64) -> u64 {
    mask_bytes(total) as u64 + unfrozen as u64 * bytes_per_scalar
}

/// The low `k` bits set, for `k <= 64`.
pub(crate) fn low_mask(k: usize) -> u64 {
    debug_assert!(k <= 64);
    if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Calls `f` with the position of each set bit of `word`, ascending.
#[inline]
pub(crate) fn for_each_set_bit(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Index of the first **unfrozen** (clear) bit in `from..bound`, skipping
/// all-frozen words whole.
fn next_clear_bit(words: &[u64], from: usize, bound: usize) -> Option<usize> {
    if from >= bound {
        return None;
    }
    let mut w = from / 64;
    let mut inv = !words[w] & !low_mask(from % 64);
    loop {
        if inv != 0 {
            let j = w * 64 + inv.trailing_zeros() as usize;
            return (j < bound).then_some(j);
        }
        w += 1;
        if w * 64 >= bound || w >= words.len() {
            return None;
        }
        inv = !words[w];
    }
}

/// Index of the first **frozen** (set) bit in `from..bound`, skipping
/// all-unfrozen words whole.
fn next_set_bit(words: &[u64], from: usize, bound: usize) -> Option<usize> {
    if from >= bound {
        return None;
    }
    let mut w = from / 64;
    let mut cur = words[w] & !low_mask(from % 64);
    loop {
        if cur != 0 {
            let j = w * 64 + cur.trailing_zeros() as usize;
            return (j < bound).then_some(j);
        }
        w += 1;
        if w * 64 >= bound || w >= words.len() {
            return None;
        }
        cur = words[w];
    }
}

/// A bit-packed freeze mask over a flat parameter vector: bit `j % 64` of
/// word `j / 64` is set iff scalar `j` is **frozen**.
///
/// This is the one mask representation shared by the whole freeze-aware
/// compute path: the `apf-tensor` SIMD kernels consume [`words`], the
/// skip-frozen optimizer steps iterate [`iter_unfrozen_runs`], and byte
/// accounting uses the popcount-based [`frozen_count`]. On the wire the mask
/// is [`packed_bytes`]: LSB-first, bit `j % 8` of byte `j / 8` is scalar `j`.
///
/// Invariant: bits at positions `>= len` (the tail of the last word) are
/// always zero.
///
/// [`words`]: FreezeMask::words
/// [`iter_unfrozen_runs`]: FreezeMask::iter_unfrozen_runs
/// [`frozen_count`]: FreezeMask::frozen_count
/// [`packed_bytes`]: FreezeMask::packed_bytes
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FreezeMask {
    words: Vec<u64>,
    len: usize,
}

impl FreezeMask {
    /// A mask over `len` scalars with nothing frozen.
    pub fn all_unfrozen(len: usize) -> FreezeMask {
        FreezeMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A mask over `len` scalars with everything frozen.
    pub fn all_frozen(len: usize) -> FreezeMask {
        let mut m = FreezeMask {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        m.clear_tail();
        m
    }

    /// Builds a mask from a per-scalar predicate (`true` = frozen), called
    /// once per index in ascending order. A word at a time and branch-free:
    /// each bit is shifted into an accumulator, never branched on.
    pub fn from_fn(len: usize, mut frozen: impl FnMut(usize) -> bool) -> FreezeMask {
        let mut word = |base: usize, lanes: usize| {
            let mut acc = 0u64;
            for b in 0..lanes {
                acc |= u64::from(frozen(base + b)) << b;
            }
            acc
        };
        let mut words = Vec::with_capacity(len.div_ceil(64));
        words.extend((0..len / 64).map(|w| word(w * 64, 64)));
        if !len.is_multiple_of(64) {
            words.push(word(len / 64 * 64, len % 64));
        }
        FreezeMask { words, len }
    }

    /// Wraps words a caller packed itself (the manager's stability sweep).
    ///
    /// # Panics
    /// Panics unless there is one word per 64 scalars with the tail bits
    /// beyond `len` clear.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> FreezeMask {
        assert_eq!(words.len(), len.div_ceil(64), "mask word count");
        let mask = FreezeMask { words, len };
        assert!(mask.tail_is_clear(), "mask tail bits set");
        mask
    }

    /// Whether the invariant holds: no bit at or beyond `len` is set.
    fn tail_is_clear(&self) -> bool {
        self.len.is_multiple_of(64)
            || self
                .words
                .last()
                .is_none_or(|last| last & !low_mask(self.len % 64) == 0)
    }

    /// Zeroes the invariant tail bits of the last word.
    fn clear_tail(&mut self) {
        if !self.len.is_multiple_of(64) {
            if let Some(w) = self.words.last_mut() {
                *w &= low_mask(self.len % 64);
            }
        }
    }

    /// Number of scalars covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero scalars.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed 64-bit words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether scalar `j` is frozen.
    ///
    /// # Panics
    /// Panics if `j >= len`.
    pub fn is_frozen(&self, j: usize) -> bool {
        assert!(j < self.len, "mask index {j} out of range {}", self.len);
        self.words[j / 64] >> (j % 64) & 1 == 1
    }

    /// Sets scalar `j`'s frozen bit.
    ///
    /// # Panics
    /// Panics if `j >= len`.
    pub fn set(&mut self, j: usize, frozen: bool) {
        assert!(j < self.len, "mask index {j} out of range {}", self.len);
        if frozen {
            self.words[j / 64] |= 1 << (j % 64);
        } else {
            self.words[j / 64] &= !(1 << (j % 64));
        }
    }

    /// Number of frozen scalars — one popcount per word, no per-bit loop.
    pub fn frozen_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of unfrozen scalars.
    pub fn unfrozen_count(&self) -> usize {
        self.len - self.frozen_count()
    }

    /// Number of frozen scalars in `start..end` (clamped to `len`).
    fn frozen_count_in(&self, start: usize, end: usize) -> usize {
        let end = end.min(self.len);
        if start >= end {
            return 0;
        }
        let (ws, we) = (start / 64, (end - 1) / 64);
        if ws == we {
            let m = low_mask(end - ws * 64) & !low_mask(start - ws * 64);
            return (self.words[ws] & m).count_ones() as usize;
        }
        let mut count = (self.words[ws] & !low_mask(start % 64)).count_ones() as usize;
        for w in &self.words[ws + 1..we] {
            count += w.count_ones() as usize;
        }
        count + (self.words[we] & low_mask(end - we * 64)).count_ones() as usize
    }

    /// Frozen counts over consecutive segments of the given lengths (a
    /// model's layers in flat order): yields `(start..end, frozen)` per
    /// segment, each range clamped to `len`.
    pub fn frozen_by_segment<'a>(
        &'a self,
        lens: impl IntoIterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = (std::ops::Range<usize>, usize)> + 'a {
        let mut off = 0usize;
        lens.into_iter().map(move |len| {
            let start = off;
            off = (off + len).min(self.len);
            (start..off, self.frozen_count_in(start, off))
        })
    }

    /// Iterates the maximal runs of consecutive **unfrozen** scalars as
    /// index ranges, in ascending order. All-frozen 64-bit words are skipped
    /// word-at-a-time, so iteration cost scales with the number of runs plus
    /// `len / 64`, never with the number of frozen scalars.
    pub fn iter_unfrozen_runs(&self) -> UnfrozenRuns<'_> {
        UnfrozenRuns {
            words: &self.words,
            bound: self.len,
            pos: 0,
        }
    }

    /// Calls `f(start, end)` for each maximal unfrozen run intersected with
    /// `start..end` — the chunk-local variant the parallel optimizer path
    /// uses, since pool chunk boundaries need not align to words or runs.
    pub fn for_each_unfrozen_run_in(
        &self,
        start: usize,
        end: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        let bound = end.min(self.len);
        let mut pos = start;
        while let Some(s) = next_clear_bit(&self.words, pos, bound) {
            let e = next_set_bit(&self.words, s + 1, bound).unwrap_or(bound);
            f(s, e);
            pos = e + 1;
        }
    }

    /// The mask as `ceil(len / 8)` packed bytes, LSB-first within each byte
    /// (bit `j % 8` of byte `j / 8` holds scalar `j`); trailing bits of the
    /// last byte are zero.
    pub fn packed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(mask_bytes(self.len));
        'outer: for w in &self.words {
            for b in w.to_le_bytes() {
                if out.len() == mask_bytes(self.len) {
                    break 'outer;
                }
                out.push(b);
            }
        }
        out
    }

    /// Decodes a [`FreezeMask::packed_bytes`] byte string over `n` scalars.
    ///
    /// Returns `None` when `packed` has the wrong length for `n` or any
    /// trailing bit beyond `n` is set (a corrupt or hostile frame).
    pub fn from_packed(packed: &[u8], n: usize) -> Option<FreezeMask> {
        if packed.len() != mask_bytes(n) {
            return None;
        }
        let mut words = vec![0u64; n.div_ceil(64)];
        for (k, &b) in packed.iter().enumerate() {
            words[k / 8] |= (b as u64) << (8 * (k % 8));
        }
        let m = FreezeMask { words, len: n };
        // The encoder zeroes tail bits; anything else is corruption.
        m.tail_is_clear().then_some(m)
    }
}

/// Iterator over maximal unfrozen runs — see
/// [`FreezeMask::iter_unfrozen_runs`].
#[derive(Debug, Clone)]
pub struct UnfrozenRuns<'a> {
    words: &'a [u64],
    bound: usize,
    pos: usize,
}

impl Iterator for UnfrozenRuns<'_> {
    type Item = std::ops::Range<usize>;

    fn next(&mut self) -> Option<std::ops::Range<usize>> {
        let s = next_clear_bit(self.words, self.pos, self.bound)?;
        let e = next_set_bit(self.words, s + 1, self.bound).unwrap_or(self.bound);
        self.pos = e + 1;
        Some(s..e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_bytes_formula() {
        // 10 scalars, 3 unfrozen, f32: 2 bitmap bytes + 12 value bytes.
        assert_eq!(masked_transfer_bytes(10, 3, 4), 14);
        // f16 halves only the value part.
        assert_eq!(masked_transfer_bytes(10, 3, 2), 8);
        // Fully frozen still ships the bitmap.
        assert_eq!(masked_transfer_bytes(16, 0, 4), 2);
        assert_eq!(masked_transfer_bytes(0, 0, 4), 0);
    }

    fn reference_mask(n: usize, period: usize) -> Vec<bool> {
        (0..n).map(|j| j % period == 0 || j % 7 == 3).collect()
    }

    fn mask_of(bools: &[bool]) -> FreezeMask {
        FreezeMask::from_fn(bools.len(), |j| bools[j])
    }

    #[test]
    fn freeze_mask_matches_bool_reference() {
        for n in [0usize, 1, 63, 64, 65, 128, 200] {
            let bools = reference_mask(n, 3);
            let m = mask_of(&bools);
            assert_eq!(m.len(), n);
            for (j, &b) in bools.iter().enumerate() {
                assert_eq!(m.is_frozen(j), b, "n={n} j={j}");
            }
            let frozen = bools.iter().filter(|&&b| b).count();
            assert_eq!(m.frozen_count(), frozen);
            assert_eq!(m.unfrozen_count(), n - frozen);
        }
    }

    /// The per-bit loop `from_fn` used to be, kept as its oracle.
    fn from_fn_per_bit(len: usize, mut frozen: impl FnMut(usize) -> bool) -> FreezeMask {
        let mut m = FreezeMask::all_unfrozen(len);
        for j in 0..len {
            if frozen(j) {
                m.set(j, true);
            }
        }
        m
    }

    #[test]
    fn word_at_a_time_from_fn_matches_the_per_bit_loop() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 199_434] {
            for pct in [0u64, 35, 90, 100] {
                // A fixed hash of the index, so frozen bits land anywhere in
                // a word, the tail word included.
                let frozen = |j: usize| {
                    (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 < (pct << 32) / 100
                };
                let got = FreezeMask::from_fn(len, frozen);
                assert_eq!(got, from_fn_per_bit(len, frozen), "len={len} pct={pct}");
                assert_eq!(got.words().len(), len.div_ceil(64));
                if pct == 100 {
                    assert_eq!(got, FreezeMask::all_frozen(len), "tail bits stay clear");
                }
            }
        }
    }

    #[test]
    fn from_fn_calls_the_predicate_once_per_index_in_ascending_order() {
        for len in [0usize, 1, 64, 65, 200] {
            let mut seen = Vec::new();
            let m = FreezeMask::from_fn(len, |j| {
                seen.push(j);
                // Stateful: the answer depends on how many calls came before.
                seen.len() % 3 == 0
            });
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len={len}");
            assert_eq!(m, from_fn_per_bit(len, |j| (j + 1) % 3 == 0));
        }
    }

    #[test]
    fn packed_bytes_roundtrip_lsb_first() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let bools = reference_mask(n, 4);
            let m = mask_of(&bools);
            let packed = m.packed_bytes();
            assert_eq!(packed.len(), mask_bytes(n));
            for (j, &b) in bools.iter().enumerate() {
                assert_eq!((packed[j / 8] >> (j % 8)) & 1 == 1, b, "n={n} j={j}");
            }
            assert_eq!(FreezeMask::from_packed(&packed, n), Some(m));
        }
    }

    #[test]
    fn from_packed_rejects_bad_length_and_trailing_bits() {
        assert!(FreezeMask::from_packed(&[0], 9).is_none(), "too short");
        assert!(FreezeMask::from_packed(&[0; 3], 9).is_none(), "too long");
        // 9 scalars use 2 bytes; bit 1 of byte 1 (scalar index 9) is beyond n.
        assert!(FreezeMask::from_packed(&[0xFF, 0x01], 9).is_some());
        assert!(
            FreezeMask::from_packed(&[0xFF, 0x02], 9).is_none(),
            "trailing bit set"
        );
        assert!(FreezeMask::from_packed(&[], 0).is_some());
        // A whole number of bytes that is not a whole number of words.
        assert!(FreezeMask::from_packed(&[0xFF; 9], 70).is_none());
        assert!(FreezeMask::from_packed(&[0xFF; 9], 72).is_some());
    }

    #[test]
    fn unfrozen_runs_cover_exactly_the_unfrozen_scalars() {
        for n in [0usize, 1, 64, 65, 190, 320] {
            let bools = reference_mask(n, 5);
            let m = mask_of(&bools);
            let mut seen = vec![false; n];
            for r in m.iter_unfrozen_runs() {
                assert!(r.start < r.end && r.end <= n);
                for j in r {
                    assert!(!bools[j], "run covers frozen scalar {j}");
                    assert!(!seen[j], "runs overlap at {j}");
                    seen[j] = true;
                }
            }
            for (j, &b) in bools.iter().enumerate() {
                assert_eq!(seen[j], !b, "scalar {j} missed");
            }
        }
    }

    #[test]
    fn runs_skip_whole_frozen_words_and_handle_edges() {
        // Words: [all frozen] [all unfrozen] [mixed] — runs must cross the
        // word boundary out of the all-unfrozen word into the mixed one.
        let mut m = FreezeMask::all_frozen(192);
        for j in 64..128 {
            m.set(j, false);
        }
        m.set(130, false);
        m.set(131, false);
        let runs: Vec<_> = m.iter_unfrozen_runs().collect();
        assert_eq!(runs, vec![64..128, 130..132]);
        assert_eq!(
            FreezeMask::all_frozen(100).iter_unfrozen_runs().next(),
            None
        );
        let open = FreezeMask::all_unfrozen(100);
        assert_eq!(open.iter_unfrozen_runs().collect::<Vec<_>>(), vec![0..100]);
    }

    #[test]
    fn chunk_bounded_runs_match_global_intersection() {
        let bools = reference_mask(300, 6);
        let m = mask_of(&bools);
        for (start, end) in [(0, 300), (10, 130), (63, 65), (120, 120), (250, 999)] {
            let mut got = Vec::new();
            m.for_each_unfrozen_run_in(start, end, |s, e| got.push((s, e)));
            let bound = end.min(300);
            let mut want = Vec::new();
            let mut run_start = None;
            for (j, &frozen) in bools.iter().enumerate().take(bound).skip(start) {
                match (frozen, run_start) {
                    (false, None) => run_start = Some(j),
                    (true, Some(s)) => {
                        want.push((s, j));
                        run_start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = run_start {
                want.push((s, bound));
            }
            assert_eq!(got, want, "range {start}..{end}");
        }
    }

    #[test]
    fn frozen_count_in_matches_naive() {
        let bools = reference_mask(333, 4);
        let m = mask_of(&bools);
        for (start, end) in [(0, 333), (5, 6), (0, 64), (63, 129), (64, 128), (200, 999)] {
            let want = bools[start..end.min(333)].iter().filter(|&&b| b).count();
            assert_eq!(m.frozen_count_in(start, end), want, "{start}..{end}");
        }
        assert_eq!(m.frozen_count_in(10, 10), 0);
        assert_eq!(m.frozen_count_in(20, 10), 0);
    }

    #[test]
    fn frozen_by_segment_partitions_the_total_and_clamps() {
        let bools = reference_mask(333, 4);
        let m = mask_of(&bools);
        let got: Vec<_> = m.frozen_by_segment([100, 0, 133, 100]).collect();
        let ranges: Vec<_> = got.iter().map(|(r, _)| r.clone()).collect();
        assert_eq!(ranges, vec![0..100, 100..100, 100..233, 233..333]);
        for (r, frozen) in &got {
            assert_eq!(*frozen, m.frozen_count_in(r.start, r.end), "{r:?}");
        }
        assert_eq!(got.iter().map(|(_, f)| f).sum::<usize>(), m.frozen_count());
        // Segments past the end of the mask come back empty.
        let over: Vec<_> = m.frozen_by_segment([300, 100, 5]).collect();
        assert_eq!(over[1].0, 300..333);
        assert_eq!(over[2], (333..333, 0));
    }
}
