//! Exact error-bound verification via error-free transformations.
//!
//! The paper's central observation (§I, §III-B) is that *other* compressors
//! violate their bounds because finite-precision arithmetic mis-rounds near
//! the boundary. PFPL re-decodes every value and checks it against the
//! bound — but a naive float check (`(v - r).abs() <= eb`) can itself
//! mis-round: the subtraction may round *down* onto `eb` when the true
//! difference is above it. This module makes the check itself exact:
//!
//! * [`two_sum`] — Knuth's branch-free 6-operation transformation:
//!   `s + e == a + b` exactly, with `s = fl(a + b)`.
//! * [`two_prod`] — Dekker/Veltkamp splitting (no FMA, per §III-C):
//!   `p + e == a * b` exactly in the absence of overflow/underflow.
//! * [`noa_within`] — the once-per-archive NOA range check, decided on
//!   integer significands so it has no unsafe regime at all.
//!
//! Comparisons of such double-double values against the bound are decided
//! exactly whenever the magnitudes are in the wide "safe" range, and fall
//! back to *conservative rejection* (→ lossless storage of the value, which
//! is always correct) in the pathological overflow/underflow regimes.
//!
//! Everything here uses only IEEE add/sub/mul — bit-deterministic across
//! devices.

/// Exact sum: returns `(s, e)` with `s = fl(a+b)` and `s + e = a + b`
/// exactly (absent overflow). Knuth's TwoSum, branch-free.
#[inline(always)]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Veltkamp split of `a` into `hi + lo` with 26/27-bit halves.
#[inline(always)]
fn split(a: f64) -> (f64, f64) {
    const SPLITTER: f64 = 134_217_729.0; // 2^27 + 1
    let c = SPLITTER * a;
    let hi = c - (c - a);
    let lo = a - hi;
    (hi, lo)
}

/// Exact product without FMA: returns `(p, e)` with `p = fl(a*b)` and
/// `p + e = a * b` exactly, provided no overflow occurs in the splitting
/// and the product is not denormal. Callers guard those regimes.
#[inline(always)]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let e = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
    (p, e)
}

/// Exactly decide `|s + e| <= eb` for a normalized TwoSum pair
/// (`|e| <= ulp(s)/2`) and a finite non-negative `eb`.
#[inline]
fn dd_abs_le(s: f64, e: f64, eb: f64) -> bool {
    if s.is_nan() || s.is_infinite() {
        // NaN: undecidable → reject. Infinite: the true difference exceeds
        // the largest finite value, hence any finite bound.
        return false;
    }
    let a = if s < 0.0 { -s } else { s };
    if a < eb {
        // |e| <= ulp(s)/2 < (eb - |s|), so the exact value cannot cross eb.
        true
    } else if a > eb {
        false
    } else {
        // |s| == eb: the residual's sign decides exactly.
        if s >= 0.0 {
            e <= 0.0
        } else {
            e >= 0.0
        }
    }
}

/// Exactly decide `ls + le <= rs + re` for two normalized TwoSum/TwoProd
/// pairs. When the high parts differ the answer follows from them alone
/// (the residuals are below the gap); on ties the residuals decide.
#[inline]
fn dd_le(ls: f64, le: f64, rs: f64, re: f64) -> bool {
    if ls.is_nan() || rs.is_nan() {
        return false;
    }
    if ls < rs {
        true
    } else if ls > rs {
        false
    } else {
        le <= re
    }
}

/// Exact check `|v - r| <= eb` (the ABS/NOA guarantee) for finite `v`, `r`
/// and a finite `eb >= 0`. Conservative (rejects) only when the difference
/// overflows, in which case the true difference exceeds every finite bound
/// anyway.
pub fn abs_within_f64(v: f64, r: f64, eb: f64) -> bool {
    debug_assert!(eb >= 0.0 && eb.is_finite());
    let (s, e) = two_sum(v, -r);
    dd_abs_le(s, e, eb)
}

/// Exact check `|v - r| <= eb` where `v`, `r`, `eb` originate as `f32`.
///
/// The promotions to `f64` are exact and TwoSum stays exact in `f64`, so
/// this decides the single-precision ABS guarantee exactly.
pub fn abs_within_f32(v: f32, r: f32, eb: f32) -> bool {
    abs_within_f64(v as f64, r as f64, eb as f64)
}

/// Magnitudes below this are rescaled before TwoProd so the Dekker residual
/// cannot be contaminated by denormal underflow.
const TINY: f64 = 3.054936363499605e-151; // 2^-500
/// Exact scale factor 2^600 (power-of-two multiplications are exact in the
/// ranges we use them).
const SCALE_UP: f64 = 4.149515568880993e180; // 2^600
/// TwoProd results above this may have suffered overflow inside the split.
const HUGE: f64 = 1e290;
/// TwoProd results below this (after rescue scaling) risk denormal residuals.
const RISKY_LOW: f64 = 1e-290;

/// Exact check of the REL guarantee `|v - r| <= eb * |v|` on *magnitudes*
/// `a = |v|`, `b = |r|` (the caller verifies matching signs separately).
///
/// Exact in the safe range; conservative (accepts only exact equality or
/// rejects) in the extreme overflow/underflow regimes, which can only cause
/// an unnecessary lossless fallback — never a bound violation.
pub fn rel_within_mag_f64(a: f64, b: f64, eb: f64) -> bool {
    debug_assert!(a >= 0.0 && b >= 0.0 && eb >= 0.0 && eb.is_finite());
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    if a == b {
        return true;
    }
    let (a, b) = if a < TINY {
        let (sa, sb) = (a * SCALE_UP, b * SCALE_UP);
        if !sb.is_finite() {
            // b is astronomically larger than a; the ratio check cannot pass
            // for any sane eb, and eb large enough to make it pass is in the
            // pathological regime → conservative reject.
            return false;
        }
        (sa, sb)
    } else {
        (a, b)
    };
    let (ds, de) = two_sum(a, -b);
    let (ps, pe) = two_prod(eb, a);
    if !ps.is_finite() {
        // The bound itself overflows: any finite difference is within it.
        return ds.is_finite();
    }
    if ps > HUGE || (ps != 0.0 && ps < RISKY_LOW) {
        // Residual terms may be unreliable here; decide with a crude but
        // safe margin (a factor-of-2 guard dwarfs any rounding error).
        let d = if ds < 0.0 { -ds } else { ds };
        return d <= ps * 0.5;
    }
    // |ds + de| <= ps + pe, exactly.
    let (ls, le) = if ds < 0.0 { (-ds, -de) } else { (ds, de) };
    dd_le(ls, le, ps, pe)
}

/// Exact REL check for magnitudes originating as `f32`.
///
/// All promotions are exact, and `eb * a` is *exact* in `f64` (24-bit × 24-bit
/// significands), so this path needs no TwoProd rescue at all.
pub fn rel_within_mag_f32(a: f32, b: f32, eb: f32) -> bool {
    let (a, b, eb) = (a as f64, b as f64, eb as f64);
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let (ds, de) = two_sum(a, -b);
    let bound = eb * a; // exact
    dd_abs_le(ds, de, bound)
}

/// Exactly decide the NOA guarantee `|v - r| <= eb * (hi - lo)` for finite
/// doubles (`lo <= hi`, `eb >= 0`), with no overflow or underflow regime:
/// the decision is made on the integer significands.
///
/// The NOA bound is derived once per archive, so this trades speed for
/// totality; [`crate::quantize::derive_noa_bound`] uses it with `r = 0` to
/// keep its rounded result at or below the exact bound, and the test
/// oracles use it to check decoded values against the user's bound.
pub fn noa_within(v: f64, r: f64, eb: f64, hi: f64, lo: f64) -> bool {
    let (big, small) = if v >= r { (v, r) } else { (r, v) };
    dot_is_nonnegative(&[(eb, hi), (-eb, lo), (-big, 1.0), (small, 1.0)])
}

/// Exact `Σ aᵢ·bᵢ >= 0` over finite doubles. Each double is `m·2^e` with
/// `m < 2^53` and `e >= -1074`, so every product is an integer below
/// 2^106 shifted by at most 4090 bits: positive and negative products are
/// summed into two fixed-width big integers and compared.
fn dot_is_nonnegative(terms: &[(f64, f64)]) -> bool {
    const LIMBS: usize = 68;
    fn split(v: f64) -> (u64, i32, bool) {
        debug_assert!(v.is_finite());
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as i32;
        let frac = bits & ((1 << 52) - 1);
        let neg = bits >> 63 == 1;
        if exp == 0 {
            (frac, -1074, neg)
        } else {
            (frac | 1 << 52, exp - 1075, neg)
        }
    }
    fn add_at(acc: &mut [u64; LIMBS], mut i: usize, v: u64) {
        let (s, mut carry) = acc[i].overflowing_add(v);
        acc[i] = s;
        while carry {
            i += 1;
            (acc[i], carry) = acc[i].overflowing_add(1);
        }
    }
    let (mut pos, mut neg) = ([0u64; LIMBS], [0u64; LIMBS]);
    for &(a, b) in terms {
        let ((ma, ea, na), (mb, eb, nb)) = (split(a), split(b));
        let m = ma as u128 * mb as u128;
        let shift = (ea + eb + 2 * 1074) as usize;
        let (limb, bit) = (shift / 64, shift % 64);
        let acc = if na != nb { &mut neg } else { &mut pos };
        for (k, part) in [m as u64, (m >> 64) as u64].into_iter().enumerate() {
            let wide = (part as u128) << bit;
            add_at(acc, limb + k, wide as u64);
            add_at(acc, limb + k + 1, (wide >> 64) as u64);
        }
    }
    pos.iter().rev().cmp(neg.iter().rev()) != std::cmp::Ordering::Less
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_sum_exactness() {
        let (s, e) = two_sum(1e16, 1.0);
        assert_eq!(s, 1e16); // 1 is absorbed
        assert_eq!(e, 1.0); // ... and recovered exactly
        let (s, e) = two_sum(0.1, 0.2);
        // s + e reproduces the exact real sum of the two representable values
        assert_eq!(s, 0.1 + 0.2);
        assert!(e.abs() <= f64::EPSILON * s.abs());
    }

    #[test]
    fn two_prod_exactness() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 - f64::EPSILON;
        let (p, e) = two_prod(a, b);
        // a*b = 1 - eps^2 exactly; p rounds to 1.0 - eps... check identity
        // p + e == a*b via 128-bit integer mantissa arithmetic.
        let exact = mul_exact_check(a, b, p, e);
        assert!(exact, "p={p:e} e={e:e}");
    }

    /// Verify p + e == a*b exactly using integer arithmetic (valid when all
    /// exponents are close, which the chosen test values guarantee).
    fn mul_exact_check(a: f64, b: f64, p: f64, e: f64) -> bool {
        let to_int = |x: f64, scale: i32| -> i128 {
            let y = x * 2f64.powi(scale);
            assert_eq!(y.fract(), 0.0, "scaling must be exact");
            y as i128
        };
        // a, b near 1.0: 52 fraction bits each.
        let ai = to_int(a, 52);
        let bi = to_int(b, 52);
        let pi = to_int(p, 104);
        let ei = to_int(e, 104);
        ai * bi == pi + ei
    }

    #[test]
    fn noa_within_decides_exactly_at_every_scale() {
        // eb·(hi − lo) = 0.5 exactly: the boundary holds, one ulp over fails.
        assert!(noa_within(0.5, 0.0, 0.25, 1.5, -0.5));
        let over = f64::from_bits(0.5f64.to_bits() + 1);
        assert!(!noa_within(over, 0.0, 0.25, 1.5, -0.5));
        assert!(noa_within(3.0, 3.5, 0.25, 1.5, -0.5), "symmetric in v, r");
        // The same decision survives scaling into the overflow and
        // subnormal regimes, where TwoProd would no longer be exact.
        for s in [2f64.powi(900), 2f64.powi(-900)] {
            let t = 2f64.powi(-100);
            assert!(noa_within(0.5 * s * t, 0.0, 0.25 * t, 1.5 * s, -0.5 * s));
            let over = f64::from_bits((0.5 * s * t).to_bits() + 1);
            assert!(!noa_within(over, 0.0, 0.25 * t, 1.5 * s, -0.5 * s));
        }
        // A difference far below the bound's ulp still tips the decision.
        let tiny = f64::from_bits(1);
        assert!(noa_within(1.0, 0.0, 1.0, 1.0, 0.0));
        assert!(!noa_within(1.0, 0.0, 1.0, 1.0, tiny));
        assert!(noa_within(1.0, tiny, 1.0, 1.0, tiny));
    }

    #[test]
    fn abs_boundary_is_exact() {
        let eb = 0.001f64;
        // r = v - eb exactly representable? Use values where it is.
        let v = 1.0f64;
        let r = v - eb; // rounded; compute the true diff with two_sum
        let (s, e) = two_sum(v, -r);
        // Whatever the rounding, our check must agree with exact math.
        let exact_diff_le = {
            // v - r is exactly s + e; compare against eb by construction.
            if s.abs() != eb {
                s.abs() < eb
            } else if s >= 0.0 {
                e <= 0.0
            } else {
                e >= 0.0
            }
        };
        assert_eq!(abs_within_f64(v, r, eb), exact_diff_le);
    }

    #[test]
    fn abs_rejects_one_ulp_over() {
        // Construct v, r with v - r exactly eb, then nudge r one ulp down so
        // the true difference is one ulp above eb — must reject even though
        // the rounded difference may still equal eb.
        let eb = 1.0f64;
        let v = 1e16f64;
        let r = v - eb; // exact: both integers in f64 range
        assert!(abs_within_f64(v, r, eb));
        let r2 = f64::from_bits(r.to_bits() - 1); // further from v
        // true diff = eb + ulp > eb
        assert!(!abs_within_f64(v, r2, eb));
        // Naive check would wrongly accept:
        assert!((v - r2).abs() <= eb + 2.0); // sanity that we're near boundary
    }

    #[test]
    fn abs_handles_infinities_and_nan() {
        assert!(!dd_abs_le(f64::INFINITY, 0.0, 1e300));
        assert!(!dd_abs_le(f64::NAN, 0.0, 1.0));
        // overflowing difference
        assert!(!abs_within_f64(f64::MAX, -f64::MAX, f64::MAX));
    }

    #[test]
    fn abs_zero_bound() {
        assert!(abs_within_f64(1.5, 1.5, 0.0));
        assert!(!abs_within_f64(1.5, 1.5000000000000002, 0.0));
        assert!(abs_within_f64(0.0, -0.0, 0.0));
    }

    #[test]
    fn rel_accepts_equal_and_within() {
        assert!(rel_within_mag_f64(1.0, 1.0, 0.0));
        assert!(rel_within_mag_f64(100.0, 100.0001, 1e-3));
        assert!(!rel_within_mag_f64(100.0, 101.0, 1e-3));
    }

    #[test]
    fn rel_boundary_one_ulp() {
        let a = 1.0f64;
        let eb = 0.125f64; // exactly representable
        let b = 1.125f64; // diff exactly 0.125 = eb * a
        assert!(rel_within_mag_f64(a, b, eb));
        let b2 = f64::from_bits(b.to_bits() + 1);
        assert!(!rel_within_mag_f64(a, b2, eb));
    }

    #[test]
    fn rel_tiny_values_scaled() {
        let a = f64::from_bits(3); // 3 * 2^-1074
        let b = f64::from_bits(3);
        assert!(rel_within_mag_f64(a, b, 1e-3));
        let b2 = f64::from_bits(4);
        // diff = 2^-1074, bound = 1e-3 * 3*2^-1074 < 2^-1074 → reject
        assert!(!rel_within_mag_f64(a, b2, 1e-3));
        let b3 = f64::from_bits(6);
        // diff = 3*2^-1074, bound with eb=1.0 = 3*2^-1074 → accept (equality)
        assert!(rel_within_mag_f64(a, b3, 1.0));
    }

    #[test]
    fn rel_f32_path_is_exact() {
        let a = 1.0f32;
        let eb = 0.25f32;
        let b = 1.25f32;
        assert!(rel_within_mag_f32(a, b, eb));
        let b2 = f32::from_bits(b.to_bits() + 1);
        assert!(!rel_within_mag_f32(a, b2, eb));
    }

    /// Reference exact ABS comparison by aligning mantissas in i128
    /// (valid when exponents are within ~60 of each other).
    fn ref_abs_within(v: f64, r: f64, eb: f64) -> Option<bool> {
        fn decomp(x: f64) -> (i128, i32) {
            let bits = x.to_bits();
            let sign = if bits >> 63 == 1 { -1i128 } else { 1 };
            let exp = ((bits >> 52) & 0x7FF) as i32;
            let mant = (bits & 0x000F_FFFF_FFFF_FFFF) as i128;
            if exp == 0 {
                (sign * mant, -1074)
            } else {
                (sign * (mant | (1 << 52)), exp - 1075)
            }
        }
        let (mv, ev) = decomp(v);
        let (mr, er) = decomp(r);
        let (me, ee) = decomp(eb);
        let emin = ev.min(er).min(ee);
        let (sv, sr, se) = (ev - emin, er - emin, ee - emin);
        if sv > 60 || sr > 60 || se > 60 {
            return None;
        }
        let diff = (mv << sv) - (mr << sr);
        Some(diff.abs() <= (me << se))
    }

    proptest! {
        #[test]
        fn abs_matches_integer_reference(
            mv in -(1i64<<53)..(1i64<<53),
            mr in -(1i64<<53)..(1i64<<53),
            me in 0i64..(1i64<<53),
            e1 in -30i32..30, e2 in -30i32..30, e3 in -40i32..0,
        ) {
            let v = mv as f64 * 2f64.powi(e1);
            let r = mr as f64 * 2f64.powi(e2);
            let eb = me as f64 * 2f64.powi(e3);
            if let Some(want) = ref_abs_within(v, r, eb) {
                prop_assert_eq!(abs_within_f64(v, r, eb), want,
                    "v={} r={} eb={}", v, r, eb);
            }
        }

        #[test]
        fn rel_never_accepts_violations_f32(v in prop::num::f32::NORMAL, scale in 0.5f32..2.0, eb in 1e-6f32..0.5) {
            let a = v.abs();
            let b = a * scale;
            let accepted = rel_within_mag_f32(a, b, eb);
            // Check against exact f64 arithmetic (all quantities exact in f64):
            let lhs = (a as f64 - b as f64).abs();
            let rhs = eb as f64 * a as f64;
            prop_assert_eq!(accepted, lhs <= rhs);
        }

        #[test]
        fn two_sum_invariant(a in prop::num::f64::NORMAL, b in prop::num::f64::NORMAL) {
            let (s, e) = two_sum(a, b);
            if s.is_finite() {
                // s is the correctly rounded sum and e is below half an ulp of s.
                prop_assert_eq!(s, a + b);
                if s != 0.0 && e != 0.0 {
                    prop_assert!(e.abs() <= (s.abs() * f64::EPSILON));
                }
            }
        }
    }
}
