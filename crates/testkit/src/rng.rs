//! The generator handed to [`crate::Gen`] samplers: the workspace's one
//! xoshiro256++ stream ([`apf_tensor::Rng`]) behind the two draws the
//! harness uses. The formulas of [`TkRng::unit_f64`] and
//! [`TkRng::range_u64`] are the harness's own and are what fix every
//! property test's case stream; `stream_is_pinned` below holds the
//! underlying generator still.

/// Deterministic generator handed to [`crate::Gen`] samplers.
#[derive(Debug, Clone)]
pub struct TkRng(apf_tensor::Rng);

impl TkRng {
    pub(crate) fn new(seed: u64) -> Self {
        TkRng(apf_tensor::Rng::new(seed))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform on `[0, 1)` (53-bit mantissa).
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `lo..hi`.
    pub(crate) fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo.wrapping_add(self.next_u64() % (hi - lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first outputs of the harness's generator as it stood when it was
    /// a private copy: seed 42, and the seed of case 0 under the default
    /// base seed. A change to `apf_tensor::rng` that moves these reshuffles
    /// the cases of every property test in the workspace.
    #[test]
    fn stream_is_pinned() {
        let case0 = apf_tensor::derive_seed(crate::DEFAULT_BASE_SEED, 0);
        assert_eq!(case0, 0x32c3_2805_7a11_b3f7);
        let pins: [(u64, [u64; 8]); 2] = [
            (
                42,
                [
                    0xd076_4d4f_4476_689f,
                    0x519e_4174_576f_3791,
                    0xfbe0_7cfb_0c24_ed8c,
                    0xb37d_9f60_0cd8_35b8,
                    0xcb23_1c38_7484_6a73,
                    0x968d_9f00_4e50_de7d,
                    0x2017_18ff_221a_3556,
                    0x9ae9_4e07_0ed8_cb46,
                ],
            ),
            (
                case0,
                [
                    0x8d8b_351e_116a_d20f,
                    0x6319_c86b_c225_f2db,
                    0xe931_865c_e691_4816,
                    0x2cdd_173a_d685_0e73,
                    0xf22c_c142_6150_6fad,
                    0x73a7_c914_f939_d1b1,
                    0x3abf_a282_8755_4cf2,
                    0x58bb_dcb5_9e27_b3f7,
                ],
            ),
        ];
        for (seed, want) in pins {
            let mut rng = TkRng::new(seed);
            let got: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
            assert_eq!(got, want, "seed {seed:#x}");
        }
    }
}
