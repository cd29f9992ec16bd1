//! The model's flat parameter layout.
//!
//! APF manipulates the model at scalar granularity (§3.2.2): "that vector can
//! be obtained by first expanding all the model tensors into a vector and
//! then concatenating those vectors together". Here that vector is not a
//! view but the storage itself: every [`crate::Sequential`] keeps its
//! parameters in one contiguous arena (and its gradients in a second one of
//! the same layout). [`FlatSpec`] records the concatenation order, so
//! per-tensor names and shapes can be mapped back onto ranges of the arena
//! (the Fig. 3 per-layer analysis, per-layer telemetry).

use apf::FreezeMask;

/// One named parameter tensor inside the flat concatenation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// Tensor name, e.g. `"conv1-w"`.
    pub name: String,
    /// Offset of the first scalar in the flat vector.
    pub offset: usize,
    /// Number of scalars.
    pub len: usize,
    /// Tensor shape; its product is `len`.
    pub shape: Vec<usize>,
    /// Whether optimizers may update these scalars (false for buffers such
    /// as batch-norm running statistics).
    pub trainable: bool,
}

/// The full layout of a model's flat parameter vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatSpec {
    params: Vec<ParamSpec>,
    total: usize,
}

impl FlatSpec {
    /// Appends a tensor after the ones already recorded.
    pub(crate) fn push(&mut self, name: String, shape: &[usize], trainable: bool) {
        let len = shape.iter().product();
        self.params.push(ParamSpec {
            name,
            offset: self.total,
            len,
            shape: shape.to_vec(),
            trainable,
        });
        self.total += len;
    }

    /// Total number of scalars.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// The named tensors in concatenation order.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Looks up a tensor range by name.
    pub fn get(&self, name: &str) -> Option<&ParamSpec> {
        self.params.iter().find(|p| p.name == name)
    }

    /// The bit-packed freeze mask optimizers consume: buffer scalars
    /// (batch-norm running statistics) frozen, everything else unfrozen.
    pub fn freeze_mask(&self) -> FreezeMask {
        let mut mask = FreezeMask::all_frozen(self.total);
        for p in &self.params {
            if p.trainable {
                for j in p.offset..p.offset + p.len {
                    mask.set(j, false);
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FlatSpec {
        let mut s = FlatSpec::default();
        s.push("conv1-w".to_owned(), &[2, 2], true);
        s.push("conv1-b".to_owned(), &[2], true);
        s.push("bn-rm".to_owned(), &[2], false);
        s
    }

    #[test]
    fn offsets_accumulate() {
        let s = spec();
        assert_eq!(s.total_len(), 8);
        assert_eq!(s.get("conv1-b").unwrap().offset, 4);
        assert_eq!(s.get("bn-rm").unwrap().offset, 6);
        assert!(s.get("nope").is_none());
    }

    #[test]
    fn freeze_mask_freezes_exactly_the_buffers() {
        let s = spec();
        let frozen = s.freeze_mask();
        assert_eq!(frozen.len(), s.total_len());
        let got: Vec<bool> = (0..frozen.len()).map(|j| !frozen.is_frozen(j)).collect();
        assert_eq!(got, vec![true, true, true, true, true, true, false, false]);
    }
}
