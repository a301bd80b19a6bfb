//! Point-wise relative-error quantizer (paper §III-A/B/C).
//!
//! Works in logarithmic space: the bin of a value `v` is
//! `round(log2(|v|) / (2*log2(1+eb)))` and reconstruction is
//! `sign(v) * 2^(bin * 2*log2(1+eb))`, so each bin spans a multiplicative
//! interval of `(1+eb)^±1` around its center — which satisfies the *strict*
//! relative bound `|v - v'| <= eb*|v|` because `eb/(1+eb) < eb`.
//!
//! `log2`/`exp2` are the portable, IEEE-only approximations from
//! [`crate::float::portable`]; their tiny inaccuracies are absorbed by the
//! exact verification + lossless fallback (§III-C).
//!
//! **Bin storage (§III-B).** The denormal-range trick used by ABS does not
//! work for REL (denormals need high relative precision), so bins live in
//! the *negative NaN* range instead: sign bit set, exponent all ones,
//! mantissa nonzero — 2^23−1 (f32) / 2^52−1 (f64) patterns. To free that
//! range, negative NaN *inputs* are made positive (payload preserved; the
//! one documented non-bit-exact case). Because negative NaN patterns start
//! with many 1 bits, every emitted word is XORed with the sign+exponent
//! mask, which turns bin words into small integers with long zero prefixes
//! — much friendlier to the later compression stages.
//!
//! **Payload layout** (mantissa field, after subtracting the +1 offset that
//! keeps the stored mantissa nonzero):
//!
//! ```text
//! [ value sign | bin sign | bin magnitude ]   (1 | 1 | MANT_BITS-2 bits)
//! ```
//!
//! with `magnitude == MAX_MAG+1` (all ones) and bin sign 0 reserved for the
//! exact-zero code, so ±0.0 round-trips with its sign.

use super::Quantizer;
use crate::error::{Error, Result};
use crate::float::{portable, PfplFloat, Word};

/// REL quantizer: guarantees `|v - v'| <= eb * |v|` and `sign(v') == sign(v)`.
#[derive(Debug, Clone)]
pub struct RelQuantizer<F: PfplFloat> {
    pub(super) eb: F,
    /// Bin width in log2 space: `2 * log2(1 + eb)`.
    pub(super) binw: f64,
    /// `1 / binw`, so the hot path multiplies instead of divides.
    pub(super) inv_binw: f64,
    /// `1 - 2^-20`: fast-accept factor (see `AbsQuantizer::fast_lo`).
    pub(super) fast_lo: F,
    /// `1 + 2^-20`: fast-reject factor.
    pub(super) fast_hi: F,
}

impl<F: PfplFloat> RelQuantizer<F> {
    /// Create a quantizer for relative bound `eb` (already narrowed to `F`).
    pub fn new(eb: F) -> Result<Self> {
        let e = eb.to_f64();
        if !(e > 0.0) || !eb.is_finite() {
            return Err(Error::InvalidErrorBound(format!(
                "REL bound must be finite and > 0; got {eb:?}"
            )));
        }
        let one_plus = 1.0 + e;
        if !one_plus.is_finite() {
            return Err(Error::InvalidErrorBound(format!(
                "REL bound too large: {eb:?}"
            )));
        }
        let binw = 2.0 * portable::log2(one_plus);
        // If eb is so tiny that 1+eb rounds to 1, binw is 0 and inv_binw is
        // infinite: every bin overflows the range check and all values fall
        // back to lossless storage — correct, just incompressible.
        let inv_binw = if binw > 0.0 { 1.0 / binw } else { f64::INFINITY };
        Ok(Self {
            eb,
            binw,
            inv_binw,
            fast_lo: F::from_f64(1.0 - 9.5367431640625e-7),
            fast_hi: F::from_f64(1.0 + 9.5367431640625e-7),
        })
    }

    /// The bound this quantizer guarantees.
    pub fn bound(&self) -> F {
        self.eb
    }

    /// Number of payload bits available for the bin magnitude.
    pub(super) const fn mag_bits() -> u32 {
        F::MANT_BITS - 2
    }
    /// Largest encodable bin magnitude (one code is reserved for zero).
    pub(super) fn max_mag() -> u64 {
        (1u64 << Self::mag_bits()) - 2
    }
    /// Magnitude code reserved for ±0.0 (bin sign 0).
    pub(super) fn zero_mag() -> u64 {
        (1u64 << Self::mag_bits()) - 1
    }
    /// The XOR mask applied to every emitted word (sign + exponent bits).
    #[inline(always)]
    fn xor_mask() -> F::Bits {
        F::SIGN_MASK | F::EXP_MASK
    }

    /// Pack (value sign, bin) into a negative-NaN word, pre-XOR.
    #[inline]
    fn pack(vsign: bool, bsign: bool, mag: u64) -> F::Bits {
        let payload = ((vsign as u64) << (F::MANT_BITS - 1))
            | ((bsign as u64) << Self::mag_bits())
            | mag;
        let mant = F::Bits::from_u64(payload + 1); // keep mantissa nonzero
        debug_assert!((mant & !F::MANT_MASK) == F::Bits::ZERO);
        // Full negative-NaN pattern; the caller's XOR with the sign+exponent
        // mask cancels the leading ones so the emitted word is tiny.
        Self::xor_mask() | mant
    }

    /// Reconstruct the magnitude of bin `bin` (deterministic; shared by the
    /// encoder's verification and the decoder).
    #[inline]
    fn recon_mag(&self, bin: i64) -> F {
        F::from_f64(portable::exp2(bin as f64 * self.binw))
    }
}

impl<F: PfplFloat> RelQuantizer<F> {
    /// Encode one *plain* value: finite and nonzero (callers have already
    /// dispatched NaN/±∞/±0). This is the branch-heavy tail of
    /// [`Quantizer::encode`], factored out so the batched path can run it
    /// on prefiltered groups without re-testing the specials per value.
    #[inline]
    fn encode_plain(&self, v: F) -> F::Bits {
        let xm = Self::xor_mask();
        let bits = v.to_bits();
        debug_assert!(v.is_finite() && bits & !F::SIGN_MASK != F::Bits::ZERO);
        let vsign = v.is_sign_negative();
        let a = v.abs();
        let lb = portable::log2(a.to_f64());
        let bin = (lb * self.inv_binw).round_away_i64();
        if bin.unsigned_abs() > Self::max_mag() {
            return bits ^ xm;
        }
        let recon = self.recon_mag(bin);
        // Fast path: one rounded subtraction + two multiplies decide all
        // but boundary cases; the exact comparison covers the rest. Only
        // valid while the bound `eb*a` is a normal number (denormal
        // products lose the relative accuracy the argument needs).
        let t = self.eb.mul(a);
        let ok = if t >= F::MIN_NORMAL && t.is_finite() {
            let ad = a.add(F::from_bits(recon.to_bits() ^ F::SIGN_MASK)).abs();
            if ad < t.mul(self.fast_lo) {
                true
            } else if ad > t.mul(self.fast_hi) {
                false
            } else {
                F::rel_within_mag(a, recon, self.eb)
            }
        } else {
            F::rel_within_mag(a, recon, self.eb)
        };
        if !ok {
            return bits ^ xm;
        }
        Self::pack(vsign, bin < 0, bin.unsigned_abs()) ^ xm
    }
}

impl<F: PfplFloat> RelQuantizer<F> {
    /// The scalar batch encode, the definition every batched REL kernel
    /// must match: groups of 8 are prefiltered with one branchless pass
    /// (`finite && nonzero` per lane); an all-plain group runs the
    /// factored `encode_plain` body with no special-case tests,
    /// any other group re-runs the full scalar [`Quantizer::encode`].
    /// Both paths call the exact same code for each value class, so the
    /// output is bit-identical to the scalar path by construction.
    pub fn encode_slice_scalar(&self, vals: &[F], out: &mut [F::Bits]) -> u64 {
        debug_assert_eq!(vals.len(), out.len());
        let mut lossless = 0u64;
        let mut groups = vals.chunks_exact(8);
        let mut outs = out.chunks_exact_mut(8);
        for (vs, ws) in (&mut groups).zip(&mut outs) {
            let mut plain = true;
            for &v in vs {
                plain &= v.is_finite() && v.to_bits() & !F::SIGN_MASK != F::Bits::ZERO;
            }
            if plain {
                for (w, &v) in ws.iter_mut().zip(vs) {
                    let e = self.encode_plain(v);
                    lossless += self.is_lossless_word(e) as u64;
                    *w = e;
                }
            } else {
                for (w, &v) in ws.iter_mut().zip(vs) {
                    let e = self.encode(v);
                    lossless += self.is_lossless_word(e) as u64;
                    *w = e;
                }
            }
        }
        for (w, &v) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
            let e = self.encode(v);
            lossless += self.is_lossless_word(e) as u64;
            *w = e;
        }
        lossless
    }

    /// The scalar batch decode: `out[i] = decode(words[i])`.
    pub fn decode_slice_scalar(&self, words: &[F::Bits], out: &mut [F]) {
        debug_assert_eq!(words.len(), out.len());
        for (v, &w) in out.iter_mut().zip(words) {
            *v = self.decode(w);
        }
    }
}

impl<F: PfplFloat> Quantizer<F> for RelQuantizer<F> {
    #[inline]
    fn encode(&self, v: F) -> F::Bits {
        let xm = Self::xor_mask();
        let bits = v.to_bits();
        if v.is_nan() {
            // Negative NaNs become positive to vacate the bin range.
            return (bits & !F::SIGN_MASK) ^ xm;
        }
        if !v.is_finite() {
            return bits ^ xm; // ±∞ lossless
        }
        if bits & !F::SIGN_MASK == F::Bits::ZERO {
            return Self::pack(v.is_sign_negative(), false, Self::zero_mag()) ^ xm;
        }
        self.encode_plain(v)
    }

    /// Batched encode through [`PfplFloat::rel_encode_slice`]: the
    /// runtime-selected lane kernel for f64, [`Self::encode_slice_scalar`]
    /// otherwise.
    fn encode_slice(&self, vals: &[F], out: &mut [F::Bits]) -> u64 {
        F::rel_encode_slice(self, vals, out)
    }

    /// Batched decode through [`PfplFloat::rel_decode_slice`].
    fn decode_slice(&self, words: &[F::Bits], out: &mut [F]) {
        F::rel_decode_slice(self, words, out)
    }

    #[inline]
    fn decode(&self, w: F::Bits) -> F {
        let xm = Self::xor_mask();
        let raw = w ^ xm;
        // Negative NaN pattern = sign set, exponent all ones, mantissa != 0.
        if raw & xm == xm && raw & F::MANT_MASK != F::Bits::ZERO {
            let payload = (raw & F::MANT_MASK).to_u64() - 1;
            let vsign = payload >> (F::MANT_BITS - 1) & 1 == 1;
            let bsign = payload >> Self::mag_bits() & 1 == 1;
            let mag = payload & ((1u64 << Self::mag_bits()) - 1);
            let a = if mag == Self::zero_mag() && !bsign {
                F::ZERO
            } else {
                let bin = if bsign { -(mag as i64) } else { mag as i64 };
                self.recon_mag(bin)
            };
            if vsign {
                F::from_bits(a.to_bits() | F::SIGN_MASK)
            } else {
                a
            }
        } else {
            F::from_bits(raw)
        }
    }

    #[inline(always)]
    fn is_lossless_word(&self, w: F::Bits) -> bool {
        let raw = w ^ Self::xor_mask();
        !(raw & Self::xor_mask() == Self::xor_mask() && raw & F::MANT_MASK != F::Bits::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q32(eb: f32) -> RelQuantizer<f32> {
        RelQuantizer::new(eb).unwrap()
    }

    #[test]
    fn rejects_bad_bounds() {
        assert!(RelQuantizer::<f32>::new(0.0).is_err());
        assert!(RelQuantizer::<f32>::new(-0.5).is_err());
        assert!(RelQuantizer::<f32>::new(f32::NAN).is_err());
        assert!(RelQuantizer::<f32>::new(f32::INFINITY).is_err());
        assert!(RelQuantizer::<f32>::new(1e-3).is_ok());
    }

    #[test]
    fn zero_roundtrips_with_sign() {
        let q = q32(1e-3);
        let p0 = q.decode(q.encode(0.0));
        assert_eq!(p0.to_bits(), 0.0f32.to_bits());
        let n0 = q.decode(q.encode(-0.0));
        assert_eq!(n0.to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn negative_nan_becomes_positive() {
        let q = q32(1e-3);
        let v = f32::from_bits(0xFFC1_2345);
        let r = q.decode(q.encode(v));
        assert_eq!(r.to_bits(), 0x7FC1_2345, "payload preserved, sign cleared");
    }

    #[test]
    fn positive_nan_and_inf_bit_exact() {
        let q = q32(1e-2);
        for bits in [0x7FC0_0001u32, 0x7F80_0000, 0xFF80_0000] {
            assert_eq!(q.decode(q.encode(f32::from_bits(bits))).to_bits(), bits);
        }
    }

    #[test]
    fn bin_words_are_small_after_xor() {
        let q = q32(1e-2);
        // A garden-variety value must quantize (not fall back) and its
        // emitted word must have cleared top bits thanks to the XOR trick.
        let w = q.encode(1.2345f32);
        assert!(!q.is_lossless_word(w), "1.2345 should be quantizable");
        assert_eq!(w & 0xFF80_0000, 0, "XOR must cancel the leading ones");
    }

    #[test]
    fn rel_bound_simple_values() {
        for &eb in &[1e-1f32, 1e-2, 1e-3, 1e-4] {
            let q = q32(eb);
            for &v in &[1.0f32, -1.0, 3.7e8, -2.2e-12, 6.02e23, 0.5] {
                let r = q.decode(q.encode(v));
                let rel = ((v as f64 - r as f64) / v as f64).abs();
                assert!(rel <= eb as f64, "v={v} eb={eb} r={r} rel={rel}");
                assert_eq!(r.is_sign_negative(), v.is_sign_negative());
            }
        }
    }

    #[test]
    fn denormals_within_bound_or_lossless() {
        let q = q32(1e-2);
        for bits in [1u32, 0x0000_1000, 0x007F_FFFF, 0x8000_0001] {
            let v = f32::from_bits(bits);
            let r = q.decode(q.encode(v));
            let rel = ((v as f64 - r as f64) / v as f64).abs();
            assert!(rel <= 1e-2, "denormal {bits:#x}: rel={rel}");
        }
    }

    #[test]
    fn f64_rel_bound() {
        let q = RelQuantizer::<f64>::new(1e-4).unwrap();
        for &v in &[1.0f64, -1e300, 1e-300, std::f64::consts::E, -42.0] {
            let r = q.decode(q.encode(v));
            let rel = ((v - r) / v).abs();
            assert!(rel <= 1e-4, "v={v} r={r} rel={rel}");
        }
    }

    proptest! {
        /// The headline guarantee over arbitrary bit patterns.
        #[test]
        fn guarantee_all_bit_patterns_f32(bits: u32, eb_exp in -15i32..0, eb_sig in 1.0f32..2.0) {
            let eb = eb_sig * 2f32.powi(eb_exp);
            let q = q32(eb);
            let v = f32::from_bits(bits);
            let w = q.encode(v);
            let r = q.decode(w);
            if v.is_nan() {
                prop_assert!(r.is_nan());
                prop_assert_eq!(r.to_bits() & 0x7FFF_FFFF, bits & 0x7FFF_FFFF);
            } else if !v.is_finite() || v == 0.0 {
                prop_assert_eq!(r.to_bits(), bits);
            } else {
                prop_assert_eq!(r.is_sign_negative(), v.is_sign_negative());
                let rel = ((v as f64 - r as f64) / (v as f64)).abs();
                prop_assert!(rel <= eb as f64, "v={} eb={} r={} rel={}", v, eb, r, rel);
            }
        }

        #[test]
        fn guarantee_all_bit_patterns_f64(bits: u64, eb_exp in -30i32..0, eb_sig in 1.0f64..2.0) {
            let eb = eb_sig * 2f64.powi(eb_exp);
            let q = RelQuantizer::<f64>::new(eb).unwrap();
            let v = f64::from_bits(bits);
            let r = q.decode(q.encode(v));
            if !v.is_finite() || v == 0.0 {
                // specials checked in the f32 variant; here just sanity
                if v == 0.0 { prop_assert_eq!(r.to_bits(), bits); }
            } else {
                prop_assert_eq!(r.is_sign_negative(), v.is_sign_negative());
                // rel check with one-ulp slack for the division in the test
                // itself (the quantizer's internal check is exact).
                let rel = ((v - r) / v).abs();
                prop_assert!(rel <= eb * (1.0 + 1e-15), "v={} eb={} r={}", v, eb, r);
            }
        }

        /// Every word the encoder emits decodes deterministically and
        /// re-encodes to the same word (stability under recompression).
        #[test]
        fn requantization_stable(v in prop::num::f32::NORMAL, eb_exp in -12i32..-1) {
            let q = q32(2f32.powi(eb_exp));
            let w1 = q.encode(v);
            let r1 = q.decode(w1);
            let w2 = q.encode(r1);
            let r2 = q.decode(w2);
            prop_assert_eq!(r1.to_bits(), r2.to_bits());
        }
    }
}
