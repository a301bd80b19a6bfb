//! Normalized-absolute-error (NOA) bound derivation (paper §III-A).
//!
//! NOA is "a special case of ABS": the user bound `eb` is multiplied by the
//! value range `R = max − min` of the input, and the resulting absolute
//! bound drives the ordinary [`super::AbsQuantizer`]. The derived bound is
//! recorded in the archive header so decompression never needs the original
//! data (keeping the decoder embarrassingly parallel, §III-E).

use crate::exact::noa_within;
use crate::float::{PfplFloat, Word};
use rayon::prelude::*;

/// Outcome of deriving the NOA absolute bound from the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoaBound<F: PfplFloat> {
    /// A usable absolute bound `eb * (max - min)`.
    Abs(F),
    /// The derived bound is unusable (constant input, empty input, all-NaN
    /// input, or a non-finite range): compress in lossless passthrough mode.
    /// This is the only always-correct choice — any positive substitute
    /// bound could violate the mathematical NOA bound `eb * R`.
    Passthrough,
}

/// Scan the input (in parallel) and derive the NOA absolute bound.
///
/// NaNs are ignored by the scan; infinities make the range infinite, which
/// forces passthrough mode. `-0.0`/`+0.0` ties resolve either way without
/// affecting the result (`x - (-0.0) == x - 0.0` for the subtraction used).
pub fn derive_noa_bound<F: PfplFloat>(data: &[F], eb: F) -> NoaBound<F> {
    // Seed with (+∞, −∞) instead of folding Options: the inner loop is
    // then two branchless conditional moves per value, and NaNs fall out
    // for free (`NaN < lo` and `NaN > hi` are both false). Empty or
    // all-NaN input leaves the seeds crossed (`lo > hi`), which the
    // finite-bound check below converts to passthrough.
    let ident = || (F::from_f64(f64::INFINITY), F::from_f64(f64::NEG_INFINITY));
    let fold = |(lo, hi): (F, F), v: &F| {
        let v = *v;
        (
            if v < lo { v } else { lo },
            if v > hi { v } else { hi },
        )
    };
    let combine = |a: (F, F), b: (F, F)| {
        (
            if b.0 < a.0 { b.0 } else { a.0 },
            if b.1 > a.1 { b.1 } else { a.1 },
        )
    };
    let (lo, hi) = data
        .par_chunks(1 << 16)
        .map(|c| c.iter().fold(ident(), fold))
        .reduce(ident, combine);
    if !(lo <= hi) {
        return NoaBound::Passthrough;
    }
    // range = max - min; abs = eb * range, both in F's arithmetic. Each
    // operation rounds to nearest, so `abs` can land above the exact
    // eb·(max − min): step it down one ulp at a time while it does.
    let range = hi.add(F::from_bits(lo.to_bits() ^ F::SIGN_MASK));
    let mut abs = eb.mul(range);
    while abs.is_finite()
        && abs >= F::MIN_NORMAL
        && !noa_within(abs.to_f64(), 0.0, eb.to_f64(), hi.to_f64(), lo.to_f64())
    {
        abs = F::from_bits(abs.to_bits().wrapping_sub(F::Bits::ONE));
    }
    if abs.is_finite() && abs >= F::MIN_NORMAL {
        NoaBound::Abs(abs)
    } else {
        NoaBound::Passthrough
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_range() {
        let data = vec![1.0f32, -3.0, 2.0, 0.5];
        // range = 5, eb = 0.01 → abs = 0.05
        match derive_noa_bound(&data, 0.01f32) {
            NoaBound::Abs(b) => assert!((b - 0.05).abs() < 1e-7, "{b}"),
            NoaBound::Passthrough => panic!("expected usable bound"),
        }
    }

    #[test]
    fn nan_ignored() {
        let data = vec![f32::NAN, 1.0, f32::NAN, 3.0];
        match derive_noa_bound(&data, 0.5f32) {
            NoaBound::Abs(b) => assert!((b - 1.0).abs() < 1e-6),
            NoaBound::Passthrough => panic!(),
        }
    }

    #[test]
    fn degenerate_inputs_passthrough() {
        assert_eq!(
            derive_noa_bound(&[] as &[f32], 0.1),
            NoaBound::Passthrough
        );
        assert_eq!(
            derive_noa_bound(&[7.5f32; 100], 0.1),
            NoaBound::Passthrough,
            "zero range"
        );
        assert_eq!(
            derive_noa_bound(&[f32::NAN; 4], 0.1),
            NoaBound::Passthrough
        );
        assert_eq!(
            derive_noa_bound(&[f32::NEG_INFINITY, 1.0], 0.1),
            NoaBound::Passthrough,
            "infinite range"
        );
        assert_eq!(
            derive_noa_bound(&[f32::MIN, f32::MAX], 0.5),
            NoaBound::Passthrough,
            "range overflows f32"
        );
    }

    #[test]
    fn derived_bound_never_exceeds_the_exact_bound() {
        // Rounding `max − min` and `eb·range` to nearest each overshoots
        // here: the naive product is 0.0048705213703, the exact bound
        // 0.0048705213070.
        let (lo, hi) = (-2.5691774f32, 2.301_344_f32);
        let eb: f32 = crate::float::bound_toward_zero(1e-3);
        let naive = eb * (hi - lo);
        let exact = |b: f32| noa_within(b as f64, 0.0, eb as f64, hi as f64, lo as f64);
        assert!(!exact(naive));
        match derive_noa_bound(&[lo, 0.5, hi], eb) {
            NoaBound::Abs(b) => {
                assert!(exact(b));
                assert_eq!(b.to_bits(), naive.to_bits() - 1, "one ulp below");
            }
            NoaBound::Passthrough => panic!("expected usable bound"),
        }
    }

    #[test]
    fn matches_serial_scan_on_large_input() {
        let data: Vec<f64> = (0..200_000)
            .map(|i| ((i * 2654435761u64 % 1000003) as f64) * 1e-3 - 500.0)
            .collect();
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        match derive_noa_bound(&data, 1e-3f64) {
            NoaBound::Abs(b) => assert_eq!(b, 1e-3 * (hi - lo)),
            NoaBound::Passthrough => panic!(),
        }
    }
}
