//! Typed message payloads exchanged between ranks.
//!
//! The algorithms in this workspace move exactly three kinds of data:
//! dense row blocks (`f64` buffers), index lists (`u32`), and row blocks
//! *with* their row indices attached (the sparsity-aware exchanges). A
//! small enum beats byte-serialization: zero copies, and the byte sizes
//! used for accounting are the true wire sizes of the equivalent MPI/NCCL
//! messages.
//!
//! Integrity is owned by one layer: [`crate::RankCtx`] stamps
//! [`Payload::checksum`] into the [`Msg`] header at send and verifies it
//! at receive, on both backends. The process backend's link layer
//! carries that header and adds no check of its own.

/// One message payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Nothing (synchronization or an empty v-exchange slot).
    Empty,
    /// A dense `f64` buffer (rows of `H`, gradient blocks, …).
    F64(Vec<f64>),
    /// An index list (`NnzCols` requests, row id headers).
    U32(Vec<u32>),
    /// Row indices plus their dense rows, the sparsity-aware unit of
    /// exchange: "here are rows `idx` of my `H` block".
    Rows {
        /// Global row ids.
        idx: Vec<u32>,
        /// Row-major `idx.len() × f` data.
        data: Vec<f64>,
    },
}

/// Independent hash lanes of [`Payload::checksum`]: word `i` of an
/// element array feeds lane `i % LANES`, so the multiplies of
/// consecutive words do not wait on each other.
const LANES: usize = 4;
/// The odd multiplier of every step (2^64 / golden ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One hash step. For a fixed `w` it is a bijection of `h`, and for a
/// fixed `h` a bijection of `w` (xor, multiplication by an odd constant
/// and rotation are each invertible mod 2^64) — the property the
/// detection argument on [`Payload::checksum`] rests on. The rotation
/// moves the high bits, which a multiply never carries downward, back
/// under the next multiply.
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(MUL).rotate_left(29)
}

/// Absorbs one element array, word `i` into lane `i % LANES`.
#[inline(always)]
fn absorb<T: Copy>(lanes: &mut [u64; LANES], v: &[T], word: impl Fn(T) -> u64) {
    let mut chunks = v.chunks_exact(LANES);
    for c in &mut chunks {
        for (l, &x) in lanes.iter_mut().zip(c) {
            *l = mix(*l, word(x));
        }
    }
    for (l, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *l = mix(*l, word(x));
    }
}

impl Payload {
    /// Wire size in bytes (8 per f64, 4 per u32).
    pub fn bytes(&self) -> u64 {
        match self {
            Payload::Empty => 0,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U32(v) => 4 * v.len() as u64,
            Payload::Rows { idx, data } => 4 * idx.len() as u64 + 8 * data.len() as u64,
        }
    }

    /// End-to-end integrity checksum, one multiply per 64-bit word on
    /// `LANES` independent lanes. Every element is one word
    /// (`f64::to_bits`, or a zero-extended `u32`); each array is absorbed
    /// from lane 0; the lanes are then folded into the variant tag with
    /// the same `mix` step, followed by both array lengths.
    ///
    /// Detection holds by construction, not by luck: changing any one
    /// word (so any single bit) changes its lane after that step, every
    /// later step and the fold are bijections of the running state, so
    /// the result differs. Two payloads with equal words but a different
    /// variant or different lengths differ for the same reason. Beyond
    /// one word it is an ordinary 64-bit hash. Dependency-free and
    /// deterministic; the only integrity check between two ranks (see
    /// DESIGN.md §7).
    pub fn checksum(&self) -> u64 {
        let mut lanes: [u64; LANES] = std::array::from_fn(|j| MUL.wrapping_mul(j as u64 + 1));
        let (tag, len_a, len_b) = match self {
            Payload::Empty => (0, 0, 0),
            Payload::F64(v) => {
                absorb(&mut lanes, v, f64::to_bits);
                (1, v.len(), 0)
            }
            Payload::U32(v) => {
                absorb(&mut lanes, v, u64::from);
                (2, v.len(), 0)
            }
            Payload::Rows { idx, data } => {
                absorb(&mut lanes, idx, u64::from);
                absorb(&mut lanes, data, f64::to_bits);
                (3, idx.len(), data.len())
            }
        };
        let h = lanes.into_iter().fold(tag, mix);
        mix(mix(h, len_a as u64), len_b as u64)
    }

    /// Flips one bit somewhere in the payload (or returns `false` for
    /// [`Payload::Empty`], which carries no bits to damage). Used by the
    /// fault injector to model genuine in-flight corruption that the
    /// receiver must catch via [`Payload::checksum`].
    pub fn flip_bit(&mut self, which: u64) -> bool {
        match self {
            Payload::Empty => false,
            Payload::F64(v) => flip_f64(v, which),
            Payload::U32(v) => flip_u32(v, which),
            Payload::Rows { idx, data } => {
                if data.is_empty() {
                    flip_u32(idx, which)
                } else {
                    flip_f64(data, which)
                }
            }
        }
    }

    /// Unwraps an `F64` payload.
    ///
    /// # Panics
    /// Panics on a different variant (protocol error).
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {:?}", kind(&other)),
        }
    }

    /// Unwraps a `U32` payload.
    ///
    /// # Panics
    /// Panics on a different variant (protocol error).
    pub fn into_u32(self) -> Vec<u32> {
        match self {
            Payload::U32(v) => v,
            other => panic!("expected U32 payload, got {:?}", kind(&other)),
        }
    }

    /// Unwraps a `Rows` payload.
    ///
    /// # Panics
    /// Panics on a different variant (protocol error).
    pub fn into_rows(self) -> (Vec<u32>, Vec<f64>) {
        match self {
            Payload::Rows { idx, data } => (idx, data),
            other => panic!("expected Rows payload, got {:?}", kind(&other)),
        }
    }
}

fn flip_f64(v: &mut [f64], which: u64) -> bool {
    if v.is_empty() {
        return false;
    }
    let slot = (which as usize) % v.len();
    let bit = (which / v.len() as u64) % 64;
    v[slot] = f64::from_bits(v[slot].to_bits() ^ (1u64 << bit));
    true
}

fn flip_u32(v: &mut [u32], which: u64) -> bool {
    if v.is_empty() {
        return false;
    }
    let slot = (which as usize) % v.len();
    let bit = ((which / v.len() as u64) % 32) as u32;
    v[slot] ^= 1u32 << bit;
    true
}

fn kind(p: &Payload) -> &'static str {
    match p {
        Payload::Empty => "Empty",
        Payload::F64(_) => "F64",
        Payload::U32(_) => "U32",
        Payload::Rows { .. } => "Rows",
    }
}

/// A tagged, framed message; the tag carries the phase/op kind so
/// protocol mismatches fail fast instead of silently mis-pairing
/// buffers, while `seq`/`checksum` are the reliable-transport header:
/// per-channel sequence number and the sender-computed [`Payload::checksum`] the receiver verifies end
/// to end.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Op discriminator (see [`crate::ctx`] constants).
    pub tag: u8,
    /// Per-(src → dst) channel sequence number, monotone across the
    /// whole run.
    pub seq: u64,
    /// [`Payload::checksum`] computed at send time. A mismatch at the
    /// receiver means in-flight corruption → discard + wait for the
    /// retransmit.
    pub checksum: u64,
    /// The data.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        assert_eq!(Payload::Empty.bytes(), 0);
        assert_eq!(Payload::F64(vec![0.0; 3]).bytes(), 24);
        assert_eq!(Payload::U32(vec![0; 3]).bytes(), 12);
        assert_eq!(
            Payload::Rows {
                idx: vec![1, 2],
                data: vec![0.0; 4]
            }
            .bytes(),
            8 + 32
        );
    }

    #[test]
    fn unwrap_roundtrip() {
        assert_eq!(Payload::F64(vec![1.0]).into_f64(), vec![1.0]);
        assert_eq!(Payload::U32(vec![7]).into_u32(), vec![7]);
        let (i, d) = Payload::Rows {
            idx: vec![3],
            data: vec![9.0],
        }
        .into_rows();
        assert_eq!((i, d), (vec![3], vec![9.0]));
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn wrong_variant_panics() {
        Payload::U32(vec![1]).into_f64();
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let base = Payload::Rows {
            idx: vec![4, 9],
            data: vec![1.5, -2.25, 0.0, 3.0],
        };
        let good = base.checksum();
        for which in 0..256u64 {
            let mut bad = base.clone();
            assert!(bad.flip_bit(which));
            assert_ne!(bad.checksum(), good, "flip {which} went undetected");
        }
    }

    #[test]
    fn checksum_distinguishes_variants_and_is_stable() {
        // Same raw bits, different variants → different checksums.
        assert_ne!(
            Payload::F64(vec![]).checksum(),
            Payload::U32(vec![]).checksum()
        );
        assert_ne!(Payload::Empty.checksum(), Payload::F64(vec![]).checksum());
        // Deterministic across calls.
        let p = Payload::F64(vec![1.0, 2.0]);
        assert_eq!(p.checksum(), p.checksum());
    }

    #[test]
    fn empty_payload_has_no_bits_to_flip() {
        let mut p = Payload::Empty;
        assert!(!p.flip_bit(0));
        let mut z = Payload::F64(vec![]);
        assert!(!z.flip_bit(3));
    }
}
