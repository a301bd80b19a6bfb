//! Portable `log2` / `exp2` approximations for the REL quantizer.
//!
//! The REL quantizer works in logarithmic space, but libm `log()`/`pow()`
//! are *not* guaranteed to produce identical bits on different devices
//! (paper §III-C). These replacements use only IEEE-754 addition,
//! subtraction, multiplication, division, comparisons, and integer bit
//! manipulation — every one of which is correctly rounded and therefore
//! bit-deterministic on any conforming implementation. They are *accurate*
//! (≈1 e-14 relative) but not correctly rounded; the quantizer's
//! verify-then-fallback step absorbs the residual inaccuracy, exactly as the
//! paper describes ("these approximations introduce small inaccuracies …
//! the immediate verification catches the problem").
//!
//! Both functions always compute in `f64`, even for `f32` data, so the
//! single-precision REL path loses essentially nothing to the approximation.
//!
//! **Lane form.** [`crate::quantize::rel_lanes`] runs both functions on
//! eight `f64` lanes at once (AVX-512, selected at runtime) for the f64
//! REL quantizer. Its results are bit-identical to these scalar
//! definitions by construction:
//!
//! * every lane performs the same IEEE operations, on the same constants,
//!   in the same order — each correctly rounded, so equal inputs give
//!   equal bits;
//! * multiplies and adds stay separate instructions, never a fused
//!   multiply-add (Rust does not contract `a * b + c`, and the lane code
//!   spells out `mul` then `add`);
//! * branches become lane masks that select between the same two results
//!   the scalar branch would compute (denormal rescaling in `log2`, the
//!   √2 range reduction, round-half-away in `exp2`);
//! * float↔integer conversions only see values in range, where they are
//!   exact: `exp2`'s lane form is only used for arguments in
//!   (−1022, 1023), where `scale_by_pow2` is one multiply by a normal
//!   power of two, and callers route any other group of 8 to the scalar
//!   functions here, which stay the definition.

pub(crate) const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
pub(crate) const EXP_BIAS: i64 = 1023;

/// ln(2), used by the `exp2` Taylor series.
pub(crate) const LN2: f64 = std::f64::consts::LN_2;
/// 2/ln(2): converts the `atanh` series for `ln` into `log2`.
pub(crate) const TWO_OVER_LN2: f64 = 2.0 / LN2;
/// √2 threshold for the final log range reduction (the exact value is not
/// load-bearing — any fixed constant near √2 merely balances the reduction).
pub(crate) const SQRT2: f64 = std::f64::consts::SQRT_2;

/// Base-2 logarithm of a positive, finite `f64`.
///
/// # Panics (debug only)
/// Debug-asserts that `x` is finite and positive; callers (the REL
/// quantizer) filter zeros, NaNs, and infinities first.
pub fn log2(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "log2 domain: {x}");
    let mut bits = x.to_bits();
    let mut e_extra = 0i64;
    if bits & (0x7FF << 52) == 0 {
        // Denormal: scale by 2^64 (exact) into the normal range.
        bits = (x * 18_446_744_073_709_551_616.0).to_bits();
        e_extra = -64;
    }
    let mut e = ((bits >> 52) & 0x7FF) as i64 - EXP_BIAS + e_extra;
    // m in [1, 2)
    let mut m = f64::from_bits((bits & MANT_MASK) | ((EXP_BIAS as u64) << 52));
    // Reduce to [~0.707, ~1.414] so the atanh argument stays small.
    if m > SQRT2 {
        m *= 0.5;
        e += 1;
    }
    // log2(m) = (2/ln2) * atanh(z) with z = (m-1)/(m+1), |z| <= 0.172.
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    // Horner over odd terms z^(2k+1)/(2k+1), k = 0..=8.
    let p = TWO_OVER_LN2 / 17.0;
    let p = p * z2 + TWO_OVER_LN2 / 15.0;
    let p = p * z2 + TWO_OVER_LN2 / 13.0;
    let p = p * z2 + TWO_OVER_LN2 / 11.0;
    let p = p * z2 + TWO_OVER_LN2 / 9.0;
    let p = p * z2 + TWO_OVER_LN2 / 7.0;
    let p = p * z2 + TWO_OVER_LN2 / 5.0;
    let p = p * z2 + TWO_OVER_LN2 / 3.0;
    let p = p * z2 + TWO_OVER_LN2;
    e as f64 + p * z
}

/// 2 raised to a finite `f64` power, with overflow to `inf` and underflow
/// toward zero (gradual, through the denormal range).
pub fn exp2(y: f64) -> f64 {
    debug_assert!(!y.is_nan(), "exp2 domain: NaN");
    if y >= 1025.0 {
        return f64::INFINITY;
    }
    if y <= -1080.0 {
        return 0.0;
    }
    // Split y = k + f with k integral and |f| <= 0.5. The subtraction is
    // exact (Sterbenz) because k is within half a unit of y.
    let k = y.round_away_i64_ref();
    let f = y - k as f64;
    // 2^f = e^(f ln2), Taylor to x^14 (|x| <= 0.347 → error ~1e-17),
    // Horner over precomputed reciprocal factorials.
    let x = f * LN2;
    let mut p = INV_FACT[14];
    let mut n = 13;
    while n >= 1 {
        p = p * x + INV_FACT[n];
        n -= 1;
    }
    let frac = p * x + 1.0;
    scale_by_pow2(frac, k)
}

/// 1/k! for k = 0..=14 (compile-time constants; only IEEE divisions).
pub(crate) const INV_FACT: [f64; 15] = {
    let mut f = [1.0f64; 15];
    let mut k = 2;
    let mut fact = 1.0f64;
    while k <= 14 {
        fact *= k as f64;
        f[k] = 1.0 / fact;
        k += 1;
    }
    f
};

/// `v * 2^e` using exponent-field construction; handles the denormal and
/// overflow regions by splitting the scale into two normal-range factors.
fn scale_by_pow2(v: f64, e: i64) -> f64 {
    let clamp = |p: i64| -> f64 { f64::from_bits(((p + EXP_BIAS) as u64) << 52) };
    if (-1022..=1023).contains(&e) {
        v * clamp(e)
    } else if e > 1023 {
        let second = (e - 1023).min(1023);
        v * clamp(1023) * clamp(second)
    } else {
        // e < -1022: go through a partial scale so the final (possibly
        // denormalizing) multiplication is a single correctly-rounded step.
        let second = (e + 1022).max(-1022);
        v * clamp(-1022) * clamp(second)
    }
}

/// Local helper mirroring `PfplFloat::round_away_i64` for plain `f64`.
trait RoundAway {
    fn round_away_i64_ref(self) -> i64;
}
impl RoundAway for f64 {
    #[inline(always)]
    fn round_away_i64_ref(self) -> i64 {
        if self >= 0.0 {
            (self + 0.5) as i64
        } else {
            (self - 0.5) as i64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log2_exact_powers() {
        for e in -1022..=1023i32 {
            let x = 2f64.powi(e);
            let l = log2(x);
            assert!(
                (l - e as f64).abs() < 1e-12,
                "log2(2^{e}) = {l}"
            );
        }
    }

    #[test]
    fn log2_matches_std() {
        for &x in &[1.5, 3.0, 0.1, 1e-30, 1e30, 7.25, 1.0000001, 0.9999999] {
            let got = log2(x);
            let want = x.log2();
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "log2({x}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn log2_denormals() {
        let x = f64::from_bits(1); // smallest positive denormal = 2^-1074
        assert!((log2(x) + 1074.0).abs() < 1e-9);
        let x = f64::MIN_POSITIVE / 2.0;
        assert!((log2(x) + 1023.0).abs() < 1e-9);
    }

    #[test]
    fn exp2_exact_integers() {
        for e in -1022..=1023i64 {
            let got = exp2(e as f64);
            let want = f64::from_bits(((e + 1023) as u64) << 52);
            assert_eq!(got, want, "exp2({e})");
        }
    }

    #[test]
    fn exp2_matches_std() {
        for &y in &[0.5, -0.5, 1.25, -3.75, 10.1, -10.1, 100.001, -300.7] {
            let got = exp2(y);
            let want = y.exp2();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-13, "exp2({y}): got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn exp2_extremes() {
        assert_eq!(exp2(1100.0), f64::INFINITY);
        assert_eq!(exp2(-1200.0), 0.0);
        // Denormal outputs still roughly correct.
        let got = exp2(-1060.0);
        assert!(got > 0.0 && got < f64::MIN_POSITIVE);
    }

    #[test]
    fn roundtrip_near_identity() {
        for &x in &[1e-300, 1e-10, 0.5, 1.0, 3.7, 1e10, 1e300] {
            let y = exp2(log2(x));
            let rel = ((y - x) / x).abs();
            assert!(rel < 1e-12, "roundtrip {x}: {y} (rel {rel})");
        }
    }

    proptest! {
        #[test]
        fn log2_accuracy_random(sig in 1.0f64..2.0, e in -1000i32..1000) {
            let x = sig * 2f64.powi(e);
            let got = log2(x);
            let want = x.log2();
            prop_assert!((got - want).abs() <= 1e-11 * want.abs().max(1.0));
        }

        #[test]
        fn exp2_accuracy_random(y in -1000.0f64..1000.0) {
            let got = exp2(y);
            let want = y.exp2();
            let rel = ((got - want) / want).abs();
            prop_assert!(rel < 1e-12, "exp2({}): rel {}", y, rel);
        }
    }
}
