//! Eight-lane f64 REL quantizer: the portable `log2`/`exp2`, the bin
//! rounding, the fast accept/reject test and the word packing, run on
//! AVX-512 lanes in both directions.
//!
//! The scalar code in [`crate::float::portable`] and [`RelQuantizer`] stays
//! the definition, and the kernels here reproduce it bit for bit (see the
//! [`portable`](crate::float::portable) module doc for the argument).
//! Anything the lanes cannot reproduce exactly goes back to that
//! definition:
//!
//! * **whole groups of 8** take the scalar `encode`/`decode` when the
//!   group holds a special value (NaN, ±∞, ±0), a bin above the encodable
//!   maximum, a rounded bin outside ±2^52 (including every bin when
//!   `binw == 0` makes `inv_binw` infinite), or an `exp2` argument outside
//!   (−1022, 1023);
//! * **single lanes** whose fast test is inconclusive get the exact
//!   [`rel_within_mag_f64`] check, as in the scalar encoder.
//!
//! The kernels are compiled with `#[target_feature(enable =
//! "avx512f,avx512dq")]` whatever the build's target CPU, and
//! [`available`] selects them at runtime; on other hosts the entry points
//! return `None`/`false` and callers run the scalar loop. The f64
//! [`PfplFloat::rel_encode_slice`](crate::float::PfplFloat::rel_encode_slice)
//! and `rel_decode_slice` hooks are the only production callers; the
//! device simulator keeps the scalar per-value path.

use super::RelQuantizer;
#[cfg(target_arch = "x86_64")]
use {super::Quantizer, crate::exact::rel_within_mag_f64};

/// True when this host can run the lane kernels (AVX-512F and
/// AVX-512DQ), detected at runtime.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Lane encode of a whole slice: `out[i] = q.encode(vals[i])` bit for
/// bit, returning the lossless-word count, or `None` (with `out`
/// untouched) when the host lacks the lane ISA.
pub fn encode_slice(q: &RelQuantizer<f64>, vals: &[f64], out: &mut [u64]) -> Option<u64> {
    assert_eq!(vals.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: the kernel's target features were detected just above.
        return Some(unsafe { avx512::encode_slice(q, vals, out) });
    }
    let _ = (q, vals, out);
    None
}

/// Lane decode of a whole slice: `out[i] = q.decode(words[i])` bit for
/// bit. Returns false (with `out` untouched) when the host lacks the lane
/// ISA.
pub fn decode_slice(q: &RelQuantizer<f64>, words: &[u64], out: &mut [f64]) -> bool {
    assert_eq!(words.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: the kernel's target features were detected just above.
        unsafe { avx512::decode_slice(q, words, out) };
        return true;
    }
    let _ = (q, words, out);
    false
}

/// [`portable::log2`](crate::float::portable::log2) on eight lanes, or
/// `None` without the lane ISA. Every lane must be positive and finite
/// (denormals included).
pub fn log2_x8(x: [f64; 8]) -> Option<[f64; 8]> {
    assert!(
        x.iter().all(|&v| v > 0.0 && v.is_finite()),
        "log2 domain: {x:?}"
    );
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: the kernel's target features were detected just above.
        return Some(unsafe { avx512::log2_x8(x) });
    }
    None
}

/// [`portable::exp2`](crate::float::portable::exp2) on eight lanes, or
/// `None` without the lane ISA. Every lane must lie in (−1022, 1023), the
/// range the quantizer kernels hand to the lanes.
pub fn exp2_x8(y: [f64; 8]) -> Option<[f64; 8]> {
    assert!(
        y.iter().all(|&v| v > -1022.0 && v < 1023.0),
        "exp2 lane domain: {y:?}"
    );
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: the kernel's target features were detected just above.
        return Some(unsafe { avx512::exp2_x8(y) });
    }
    None
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use crate::float::portable::{EXP_BIAS, INV_FACT, LN2, MANT_MASK, SQRT2, TWO_OVER_LN2};
    use std::arch::x86_64::*;

    /// Scalar encode of one group (or tail), returning the lossless count.
    fn encode_scalar(q: &RelQuantizer<f64>, vals: &[f64], out: &mut [u64]) -> u64 {
        let mut lossless = 0u64;
        for (w, &v) in out.iter_mut().zip(vals) {
            let e = q.encode(v);
            lossless += q.is_lossless_word(e) as u64;
            *w = e;
        }
        lossless
    }

    const SIGN: i64 = i64::MIN;
    const EXP_FIELD: i64 = 0x7FF0_0000_0000_0000;
    /// `SIGN | EXP_FIELD`: the REL word XOR mask.
    const XOR_MASK: i64 = SIGN | EXP_FIELD;
    /// Bit position of the bin sign in the payload; the value sign sits
    /// one above it.
    const BSIGN_BIT: u32 = RelQuantizer::<f64>::mag_bits();

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn splat(x: f64) -> __m512d {
        _mm512_set1_pd(x)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn splat_i(x: i64) -> __m512i {
        _mm512_set1_epi64(x)
    }

    /// `x * m + c`, as a multiply then an add (never fused).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mul_add(x: __m512d, m: __m512d, c: f64) -> __m512d {
        _mm512_add_pd(_mm512_mul_pd(x, m), splat(c))
    }

    /// Round half away from zero, before the integer conversion:
    /// `x + 0.5` where `x >= 0`, `x - 0.5` elsewhere (and for NaN), as in
    /// `PfplFloat::round_away_i64`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn round_half_away(x: __m512d) -> __m512d {
        let nonneg = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(x, _mm512_setzero_pd());
        _mm512_mask_add_pd(_mm512_sub_pd(x, splat(0.5)), nonneg, x, splat(0.5))
    }

    /// The `log2` series after its leading coefficient `(2/ln2)/17`,
    /// Horner order.
    const LOG2_SERIES: [f64; 8] = [
        TWO_OVER_LN2 / 15.0,
        TWO_OVER_LN2 / 13.0,
        TWO_OVER_LN2 / 11.0,
        TWO_OVER_LN2 / 9.0,
        TWO_OVER_LN2 / 7.0,
        TWO_OVER_LN2 / 5.0,
        TWO_OVER_LN2 / 3.0,
        TWO_OVER_LN2,
    ];

    /// Lane form of `portable::log2` on `K` vectors of positive finite
    /// lanes. Like every multi-vector helper here, the vectors step through
    /// the series in lockstep, so the long dependent Horner chains of `K`
    /// groups overlap in the pipeline instead of running back to back.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn log2<const K: usize>(x: [__m512d; K]) -> [__m512d; K] {
        let one = splat(1.0);
        let mut e = [_mm512_setzero_si512(); K];
        let mut z = x;
        for j in 0..K {
            let bits = _mm512_castpd_si512(x[j]);
            // Denormals: scale by 2^64 (exact) into the normal range.
            let denormal = _mm512_testn_epi64_mask(bits, splat_i(EXP_FIELD));
            let scaled = _mm512_mul_pd(x[j], splat(18_446_744_073_709_551_616.0));
            let bits = _mm512_mask_mov_epi64(bits, denormal, _mm512_castpd_si512(scaled));
            let e_extra = _mm512_maskz_mov_epi64(denormal, splat_i(-64));
            let ej = _mm512_and_si512(_mm512_srli_epi64::<52>(bits), splat_i(0x7FF));
            let ej = _mm512_add_epi64(_mm512_sub_epi64(ej, splat_i(EXP_BIAS)), e_extra);
            // m in [1, 2), then reduced to [~0.707, ~1.414].
            let m = _mm512_or_si512(
                _mm512_and_si512(bits, splat_i(MANT_MASK as i64)),
                splat_i(EXP_BIAS << 52),
            );
            let m = _mm512_castsi512_pd(m);
            let big = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(m, splat(SQRT2));
            let m = _mm512_mask_mul_pd(m, big, m, splat(0.5));
            e[j] = _mm512_mask_add_epi64(ej, big, ej, splat_i(1));
            z[j] = _mm512_div_pd(_mm512_sub_pd(m, one), _mm512_add_pd(m, one));
        }
        let mut z2 = z;
        for j in 0..K {
            z2[j] = _mm512_mul_pd(z[j], z[j]);
        }
        let mut p = [splat(TWO_OVER_LN2 / 17.0); K];
        for c in LOG2_SERIES {
            for j in 0..K {
                p[j] = mul_add(p[j], z2[j], c);
            }
        }
        for j in 0..K {
            p[j] = _mm512_add_pd(_mm512_cvtepi64_pd(e[j]), _mm512_mul_pd(p[j], z[j]));
        }
        p
    }

    /// Lane form of `portable::exp2` on `K` vectors of lanes in
    /// (−1022, 1023), where the integer part `k` lies in [−1022, 1023]
    /// and the final scale is one multiply by the normal power of two
    /// `2^k`. Lanes outside the domain produce garbage for the caller to
    /// discard.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn exp2<const K: usize>(y: [__m512d; K]) -> [__m512d; K] {
        let mut k = [_mm512_setzero_si512(); K];
        let mut x = y;
        for j in 0..K {
            k[j] = _mm512_cvttpd_epi64(round_half_away(y[j]));
            let f = _mm512_sub_pd(y[j], _mm512_cvtepi64_pd(k[j]));
            x[j] = _mm512_mul_pd(f, splat(LN2));
        }
        let mut p = [splat(INV_FACT[14]); K];
        for &c in INV_FACT[1..14].iter().rev() {
            for j in 0..K {
                p[j] = mul_add(p[j], x[j], c);
            }
        }
        for j in 0..K {
            let frac = mul_add(p[j], x[j], 1.0);
            let scale = _mm512_slli_epi64::<52>(_mm512_add_epi64(k[j], splat_i(EXP_BIAS)));
            p[j] = _mm512_mul_pd(frac, _mm512_castsi512_pd(scale));
        }
        p
    }

    /// True if every lane of `y` is inside the exp2 lane domain
    /// (−1022, 1023); `mask` limits the test to the lanes that matter.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn exp2_domain(y: __m512d, mask: __mmask8) -> bool {
        let inside = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(y, splat(-1022.0))
            & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(y, splat(1023.0));
        mask & !inside == 0
    }

    /// The host must have AVX-512F and AVX-512DQ (the caller checks
    /// [`available`]).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn log2_x8(x: [f64; 8]) -> [f64; 8] {
        let mut out = [0.0; 8];
        // SAFETY: both arrays hold exactly eight f64.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), log2([_mm512_loadu_pd(x.as_ptr())])[0]) };
        out
    }

    /// The host must have AVX-512F and AVX-512DQ (the caller checks
    /// [`available`]).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn exp2_x8(y: [f64; 8]) -> [f64; 8] {
        let mut out = [0.0; 8];
        // SAFETY: both arrays hold exactly eight f64.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), exp2([_mm512_loadu_pd(y.as_ptr())])[0]) };
        out
    }

    /// The quantizer's parameters, splatted once per slice.
    struct Params {
        eb: f64,
        eb_v: __m512d,
        binw: __m512d,
        inv_binw: __m512d,
        fast_lo: __m512d,
        fast_hi: __m512d,
    }

    impl Params {
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn new(q: &RelQuantizer<f64>) -> Self {
            Self {
                eb: q.eb,
                eb_v: splat(q.eb),
                binw: splat(q.binw),
                inv_binw: splat(q.inv_binw),
                fast_lo: splat(q.fast_lo),
                fast_hi: splat(q.fast_hi),
            }
        }
    }

    /// Groups of 8 per lockstep block: enough independent exp2/log2
    /// chains to fill the pipeline, few enough to stay in registers.
    const BLOCK: usize = 4;

    /// Encode `K` groups of 8 plain-or-not values: for each group its
    /// eight words and lossless count, or `None` when the group must take
    /// the scalar path.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn encode_groups<const K: usize>(c: &Params, v: [__m512d; K]) -> [Option<(__m512i, u32)>; K] {
        let max_mag = splat_i(RelQuantizer::<f64>::max_mag() as i64);
        let mut lanes = [true; K];
        let mut a = v;
        for j in 0..K {
            let mag_bits = _mm512_andnot_si512(splat_i(SIGN), _mm512_castpd_si512(v[j]));
            // Plain lanes: finite (|v| below the exponent field) and nonzero.
            let plain = _mm512_cmplt_epu64_mask(mag_bits, splat_i(EXP_FIELD))
                & _mm512_test_epi64_mask(mag_bits, mag_bits);
            lanes[j] = plain == 0xFF;
            a[j] = _mm512_castsi512_pd(mag_bits);
        }
        let lb = log2(a);
        let mut bin = [_mm512_setzero_si512(); K];
        let mut y = a;
        for j in 0..K {
            let s = round_half_away(_mm512_mul_pd(lb[j], c.inv_binw));
            // |s| < 2^52 (false for NaN): the conversion is exact.
            let exact = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(s), splat(TWO_POW_52));
            bin[j] = _mm512_cvttpd_epi64(s);
            let over = _mm512_cmpgt_epu64_mask(_mm512_abs_epi64(bin[j]), max_mag);
            y[j] = _mm512_mul_pd(_mm512_cvtepi64_pd(bin[j]), c.binw);
            lanes[j] &= exact == 0xFF && over == 0 && exp2_domain(y[j], 0xFF);
        }
        let recon = exp2(y);
        let mut out = [None; K];
        for j in 0..K {
            if lanes[j] {
                out[j] = Some(verify_and_pack(c, v[j], a[j], bin[j], recon[j]));
            }
        }
        out
    }

    /// 2^52: rounded bins below it in magnitude convert exactly.
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

    /// The bound check and word packing of one lane group: the bin word
    /// (value sign | bin sign | magnitude, +1) where the reconstruction
    /// holds the bound, the XORed original bits elsewhere; plus the
    /// lossless count.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn verify_and_pack(
        c: &Params,
        v: __m512d,
        a: __m512d,
        bin: __m512i,
        recon: __m512d,
    ) -> (__m512i, u32) {
        // Fast accept/reject, valid while `eb * a` is normal and finite;
        // every other lane gets the exact check.
        let t = _mm512_mul_pd(c.eb_v, a);
        let normal = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(t, splat(f64::MIN_POSITIVE))
            & _mm512_cmp_pd_mask::<_CMP_LE_OQ>(t, splat(f64::MAX));
        let ad = _mm512_abs_pd(_mm512_sub_pd(a, recon));
        let accept = normal & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ad, _mm512_mul_pd(t, c.fast_lo));
        let reject = normal & _mm512_cmp_pd_mask::<_CMP_GT_OQ>(ad, _mm512_mul_pd(t, c.fast_hi));
        let mut ok = accept;
        let mut unsure = !(accept | reject);
        if unsure != 0 {
            let (mut aa, mut rr) = ([0.0; 8], [0.0; 8]);
            // SAFETY: both arrays hold exactly eight f64.
            unsafe {
                _mm512_storeu_pd(aa.as_mut_ptr(), a);
                _mm512_storeu_pd(rr.as_mut_ptr(), recon);
            }
            while unsure != 0 {
                let i = unsure.trailing_zeros() as usize;
                if rel_within_mag_f64(aa[i], rr[i], c.eb) {
                    ok |= 1 << i;
                }
                unsure &= unsure - 1;
            }
        }
        let bits = _mm512_castpd_si512(v);
        let vsign =
            _mm512_srli_epi64::<{ 63 - BSIGN_BIT - 1 }>(_mm512_and_si512(bits, splat_i(SIGN)));
        let bsign = _mm512_and_si512(
            _mm512_srli_epi64::<{ 63 - BSIGN_BIT }>(bin),
            splat_i(1 << BSIGN_BIT),
        );
        let payload = _mm512_or_si512(_mm512_or_si512(vsign, bsign), _mm512_abs_epi64(bin));
        let packed = _mm512_add_epi64(payload, splat_i(1));
        let lossless = _mm512_xor_si512(bits, splat_i(XOR_MASK));
        (
            _mm512_mask_mov_epi64(lossless, ok, packed),
            8 - ok.count_ones(),
        )
    }

    /// Decode `K` groups of 8 words, each to its values or `None` when a
    /// bin's exp2 argument leaves the lane domain (forged or
    /// extreme-bound words).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn decode_groups<const K: usize>(c: &Params, w: [__m512i; K]) -> [Option<__m512d>; K] {
        let zero_mag = splat_i(RelQuantizer::<f64>::zero_mag() as i64);
        let mut raw = w;
        let mut vsign = w;
        let mut is_bin = [0u8; K];
        let mut zero = [0u8; K];
        let mut y = [_mm512_setzero_pd(); K];
        let mut lanes = [true; K];
        for j in 0..K {
            raw[j] = _mm512_xor_si512(w[j], splat_i(XOR_MASK));
            let mant = _mm512_and_si512(raw[j], splat_i(MANT_MASK as i64));
            // Bin words are negative NaN patterns: sign and exponent all
            // ones, mantissa nonzero.
            let high = _mm512_and_si512(raw[j], splat_i(XOR_MASK));
            is_bin[j] = _mm512_cmpeq_epi64_mask(high, splat_i(XOR_MASK))
                & _mm512_test_epi64_mask(mant, mant);
            let payload = _mm512_sub_epi64(mant, splat_i(1));
            vsign[j] = _mm512_slli_epi64::<{ 63 - BSIGN_BIT - 1 }>(_mm512_and_si512(
                payload,
                splat_i(1 << (BSIGN_BIT + 1)),
            ));
            let bsign = _mm512_test_epi64_mask(payload, splat_i(1 << BSIGN_BIT));
            let mag = _mm512_and_si512(payload, splat_i((1 << BSIGN_BIT) - 1));
            zero[j] = is_bin[j] & !bsign & _mm512_cmpeq_epi64_mask(mag, zero_mag);
            let bin = _mm512_mask_sub_epi64(mag, bsign, _mm512_setzero_si512(), mag);
            y[j] = _mm512_mul_pd(_mm512_cvtepi64_pd(bin), c.binw);
            lanes[j] = exp2_domain(y[j], is_bin[j] & !zero[j]);
        }
        let a = exp2(y);
        let mut out = [None; K];
        for j in 0..K {
            if lanes[j] {
                let a = _mm512_maskz_mov_epi64(!zero[j], _mm512_castpd_si512(a[j]));
                let val = _mm512_or_si512(a, vsign[j]);
                out[j] = Some(_mm512_castsi512_pd(_mm512_mask_mov_epi64(
                    raw[j], is_bin[j], val,
                )));
            }
        }
        out
    }

    /// Encode `K` groups (`vals.len() == out.len() == 8 * K`), returning
    /// the lossless count.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn encode_block<const K: usize>(
        q: &RelQuantizer<f64>,
        c: &Params,
        vals: &[f64],
        out: &mut [u64],
    ) -> u64 {
        assert!(vals.len() == 8 * K && out.len() == 8 * K);
        let mut v = [_mm512_setzero_pd(); K];
        for (j, g) in v.iter_mut().enumerate() {
            // SAFETY: `vals` holds 8 * K f64 (asserted above).
            *g = unsafe { _mm512_loadu_pd(vals[8 * j..].as_ptr()) };
        }
        let mut lossless = 0u64;
        for (j, r) in encode_groups(c, v).into_iter().enumerate() {
            let (vs, ws) = (&vals[8 * j..8 * j + 8], &mut out[8 * j..8 * j + 8]);
            match r {
                Some((w, n)) => {
                    // SAFETY: `ws` holds exactly eight u64.
                    unsafe { _mm512_storeu_si512(ws.as_mut_ptr().cast(), w) };
                    lossless += n as u64;
                }
                None => lossless += encode_scalar(q, vs, ws),
            }
        }
        lossless
    }

    /// Decode `K` groups (`words.len() == out.len() == 8 * K`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn decode_block<const K: usize>(
        q: &RelQuantizer<f64>,
        c: &Params,
        words: &[u64],
        out: &mut [f64],
    ) {
        assert!(words.len() == 8 * K && out.len() == 8 * K);
        let mut w = [_mm512_setzero_si512(); K];
        for (j, g) in w.iter_mut().enumerate() {
            // SAFETY: `words` holds 8 * K u64 (asserted above).
            *g = unsafe { _mm512_loadu_si512(words[8 * j..].as_ptr().cast()) };
        }
        for (j, r) in decode_groups(c, w).into_iter().enumerate() {
            let (ws, vs) = (&words[8 * j..8 * j + 8], &mut out[8 * j..8 * j + 8]);
            match r {
                // SAFETY: `vs` holds exactly eight f64.
                Some(v) => unsafe { _mm512_storeu_pd(vs.as_mut_ptr(), v) },
                None => q.decode_slice_scalar(ws, vs),
            }
        }
    }

    /// The host must have AVX-512F and AVX-512DQ (the caller checks
    /// [`available`]).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn encode_slice(q: &RelQuantizer<f64>, vals: &[f64], out: &mut [u64]) -> u64 {
        let c = Params::new(q);
        let mut lossless = 0u64;
        let mut blocks = vals.chunks_exact(8 * BLOCK);
        let mut out_blocks = out.chunks_exact_mut(8 * BLOCK);
        for (vs, ws) in (&mut blocks).zip(&mut out_blocks) {
            lossless += encode_block::<BLOCK>(q, &c, vs, ws);
        }
        let mut groups = blocks.remainder().chunks_exact(8);
        let mut outs = out_blocks.into_remainder().chunks_exact_mut(8);
        for (vs, ws) in (&mut groups).zip(&mut outs) {
            lossless += encode_block::<1>(q, &c, vs, ws);
        }
        lossless + encode_scalar(q, groups.remainder(), outs.into_remainder())
    }

    /// The host must have AVX-512F and AVX-512DQ (the caller checks
    /// [`available`]).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn decode_slice(q: &RelQuantizer<f64>, words: &[u64], out: &mut [f64]) {
        let c = Params::new(q);
        let mut blocks = words.chunks_exact(8 * BLOCK);
        let mut out_blocks = out.chunks_exact_mut(8 * BLOCK);
        for (ws, vs) in (&mut blocks).zip(&mut out_blocks) {
            decode_block::<BLOCK>(q, &c, ws, vs);
        }
        let mut groups = blocks.remainder().chunks_exact(8);
        let mut outs = out_blocks.into_remainder().chunks_exact_mut(8);
        for (ws, vs) in (&mut groups).zip(&mut outs) {
            decode_block::<1>(q, &c, ws, vs);
        }
        q.decode_slice_scalar(groups.remainder(), outs.into_remainder());
    }
}
