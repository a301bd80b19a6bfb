//! Golden-archive fixtures: deterministic datasets and their canonical
//! compressed bytes.
//!
//! The committed files under `tests/golden/` pin the container format: if
//! any encoder change alters the bytes an archive serializes to, the
//! byte-stability test fails and the change must either be reverted or
//! explicitly acknowledged by regenerating the fixtures (a format bump).
//! The specs cover both precisions, all three bound kinds, and the
//! raw-fallback chunk path, each spanning multiple chunks plus a tail, plus
//! one double-precision REL fixture built from the quantizer's edge cases.

use pfpl::float::portable;
use pfpl::types::{ErrorBound, Precision};

/// The dataset family that feeds a golden fixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenData {
    /// A smooth fractal field: the common, well-compressing case.
    Smooth,
    /// Random finite bit patterns: incompressible under a tight bound,
    /// forcing raw-fallback chunks.
    Noise,
    /// Double-precision REL edge cases ([`rel_edges_f64`]).
    RelEdges,
}

/// One golden fixture: a name (the committed file is `<name>.pfpl`), the
/// precision and bound it is compressed under, and which dataset family
/// feeds it.
#[derive(Debug, Clone, Copy)]
pub struct GoldenSpec {
    /// File stem under `tests/golden/`.
    pub name: &'static str,
    /// Value precision of the source data.
    pub precision: Precision,
    /// Error bound the archive is compressed under.
    pub bound: ErrorBound,
    /// Dataset family.
    pub data: GoldenData,
    /// True if a frozen version-1 archive of this spec is committed at
    /// `tests/golden/<name>.pfpl`. Specs added after the v2 format bump
    /// have only the v2 fixture.
    pub v1: bool,
}

/// The full fixture matrix: f32/f64 × ABS/REL/NOA on smooth data, a
/// raw-fallback noise case per precision, and the f64 REL edge cases.
pub fn golden_specs() -> Vec<GoldenSpec> {
    use ErrorBound::{Abs, Noa, Rel};
    use GoldenData::{Noise, RelEdges, Smooth};
    use Precision::{Double, Single};
    let spec = |name, precision, bound, data, v1| GoldenSpec {
        name,
        precision,
        bound,
        data,
        v1,
    };
    vec![
        spec("f32_abs_smooth", Single, Abs(1e-3), Smooth, true),
        spec("f32_rel_smooth", Single, Rel(1e-4), Smooth, true),
        spec("f32_noa_smooth", Single, Noa(1e-4), Smooth, true),
        spec("f64_abs_smooth", Double, Abs(1e-6), Smooth, true),
        spec("f64_rel_smooth", Double, Rel(1e-7), Smooth, true),
        spec("f64_noa_smooth", Double, Noa(1e-6), Smooth, true),
        spec("f32_raw_noise", Single, Rel(1e-9), Noise, true),
        spec("f64_raw_noise", Double, Rel(1e-16), Noise, true),
        spec("f64_rel_edges", Double, Rel(1e-3), RelEdges, false),
    ]
}

/// splitmix64 — the per-index hash behind the noise datasets. Stateless by
/// index, so the dataset is a pure function of the spec name's seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic seed derived from the spec name (FNV-1a), so adding a
/// spec never shifts another spec's data.
fn seed_of(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Value counts chosen to span two full chunks plus a partial tail at each
/// precision (f32: 4096/chunk, f64: 2048/chunk).
fn golden_len(precision: Precision) -> usize {
    match precision {
        Precision::Single => 9000,
        Precision::Double => 4500,
    }
}

/// The double-precision source dataset for a spec (only valid for
/// [`Precision::Double`] specs; single-precision specs use
/// [`golden_values_f32`] so their noise spans f32's own exponent range).
pub fn golden_values_f64(spec: &GoldenSpec) -> Vec<f64> {
    assert_eq!(spec.precision, Precision::Double, "{} is single precision", spec.name);
    let n = golden_len(spec.precision);
    let seed = seed_of(spec.name);
    match spec.data {
        // Random finite bit patterns across the full exponent range:
        // incompressible under the tight relative bound, forcing the
        // raw-chunk fallback.
        GoldenData::Noise => (0..n as u64)
            .map(|i| {
                let mut j = i;
                loop {
                    let v = f64::from_bits(splitmix64(seed ^ j));
                    if v.is_finite() {
                        return v;
                    }
                    j = j.wrapping_add(n as u64);
                }
            })
            .collect(),
        GoldenData::Smooth => crate::gen::fractal_field_1d(seed, n, 8.0, 5, 0.55),
        GoldenData::RelEdges => rel_edges_f64(seed, n, spec.bound.value()),
    }
}

/// Special bit patterns the REL quantizer must route around its bin path:
/// ±0, positive and negative NaNs (quiet, signalling, assorted payloads),
/// ±∞, the extreme denormals and the extreme normals.
const REL_SPECIALS: [u64; 14] = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7FF8_0000_0000_0000,
    0xFFF8_0000_0000_0000,
    0x7FF0_0000_0000_0001,
    0xFFF0_0000_DEAD_BEEF,
    0x7FFF_FFFF_FFFF_FFFF,
    0xFFF4_5678_9ABC_DEF0,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800F_FFFF_FFFF_FFFF,
    0x7FEF_FFFF_FFFF_FFFF,
    0x0010_0000_0000_0000,
];

/// Double-precision REL edge cases under relative bound `eb`, in four
/// quarters, each value with a random sign:
///
/// 1. magnitudes swept log-uniformly from 1e-300 to 1e300;
/// 2. values within four ulps of a bin edge (the log-space midpoint
///    between two bins), where the encoder's fast accept/reject test is
///    ambiguous and the exact check decides;
/// 3. 32 whole groups of 8 denormals, then normals whose exp2 argument
///    lies near the −1022 and 1023 ends of the exponent range;
/// 4. plain values in `[0.5, 1.5)`.
///
/// Every 53rd value (from index 17) is replaced by one of the
/// `REL_SPECIALS` bit patterns, so specials land inside otherwise plain
/// groups of 8. Only the portable `log2`/`exp2` are used, so the data is identical on
/// every host.
pub fn rel_edges_f64(seed: u64, n: usize, eb: f64) -> Vec<f64> {
    // log2(1e300): the sweep spans 2^-L ..= 2^L.
    const L: f64 = 996.578_428_466_208_7;
    let binw = 2.0 * portable::log2(1.0 + eb);
    let q = n.div_ceil(4);
    (0..n)
        .map(|i| {
            if i % 53 == 17 {
                return f64::from_bits(REL_SPECIALS[(i / 53) % REL_SPECIALS.len()]);
            }
            let h = splitmix64(seed ^ i as u64);
            // 53 random bits as a fraction in [0, 1).
            let u = (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
            let j = i % q;
            let mag = match i / q {
                0 => portable::exp2(-L + 2.0 * L * j as f64 / (q - 1) as f64),
                1 => {
                    let k = ((2.0 * u - 1.0) * 995.0 / binw) as i64;
                    let edge = portable::exp2((k as f64 + 0.5) * binw);
                    f64::from_bits((edge.to_bits() as i64 + (h % 9) as i64 - 4) as u64)
                }
                2 if j < 256 => f64::from_bits((h & 0x000F_FFFF_FFFF_FFFF).max(1)),
                2 if j.is_multiple_of(2) => portable::exp2(-1022.0 + 2.0 * u),
                2 => portable::exp2(1021.0 + 2.99 * u),
                _ => 0.5 + u,
            };
            if h & 1 == 1 {
                -mag
            } else {
                mag
            }
        })
        .collect()
}

/// The single-precision source dataset for a spec (only valid for
/// [`Precision::Single`] specs).
pub fn golden_values_f32(spec: &GoldenSpec) -> Vec<f32> {
    assert_eq!(spec.precision, Precision::Single, "{} is double precision", spec.name);
    let n = golden_len(spec.precision);
    let seed = seed_of(spec.name);
    match spec.data {
        GoldenData::Noise => (0..n as u64)
            .map(|i| {
                let mut j = i;
                loop {
                    let v = f32::from_bits(splitmix64(seed ^ j) as u32);
                    if v.is_finite() {
                        return v;
                    }
                    j = j.wrapping_add(n as u64);
                }
            })
            .collect(),
        GoldenData::Smooth => crate::gen::fractal_field_1d(seed, n, 8.0, 5, 0.55)
            .into_iter()
            .map(|v| v as f32)
            .collect(),
        GoldenData::RelEdges => panic!("{}: the REL edge dataset is double precision", spec.name),
    }
}

/// Compress a spec's dataset to its canonical archive bytes (serial mode —
/// chunk payloads are mode-independent, but serial keeps the fixture
/// generation itself single-threaded and reproducible everywhere).
pub fn golden_archive(spec: &GoldenSpec) -> Vec<u8> {
    match spec.precision {
        Precision::Single => {
            pfpl::compress(&golden_values_f32(spec), spec.bound, pfpl::types::Mode::Serial)
                .expect("golden compression must succeed")
        }
        Precision::Double => {
            pfpl::compress(&golden_values_f64(spec), spec.bound, pfpl::types::Mode::Serial)
                .expect("golden compression must succeed")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfpl::container::RAW_FLAG;

    #[test]
    fn specs_are_unique_and_cover_both_precisions() {
        let specs = golden_specs();
        let names: std::collections::HashSet<_> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), specs.len());
        assert!(specs.iter().any(|s| s.precision == Precision::Single));
        assert!(specs.iter().any(|s| s.precision == Precision::Double));
    }

    #[test]
    fn archives_are_deterministic() {
        for spec in golden_specs() {
            assert_eq!(golden_archive(&spec), golden_archive(&spec), "{}", spec.name);
        }
    }

    #[test]
    fn noise_specs_produce_raw_chunks() {
        for spec in golden_specs()
            .iter()
            .filter(|s| s.data == GoldenData::Noise)
        {
            let archive = golden_archive(spec);
            let toc = pfpl::container::Toc::read(&archive).unwrap();
            assert!(
                toc.sizes.iter().any(|&s| s & RAW_FLAG != 0),
                "{} produced no raw chunks",
                spec.name
            );
        }
    }

    /// The edge fixture must pin quantizer words, so none of its chunks
    /// may fall back to raw storage, and every class it promises must be
    /// present.
    #[test]
    fn rel_edges_cover_every_class_and_stay_quantized() {
        let spec = golden_specs()
            .into_iter()
            .find(|s| s.data == GoldenData::RelEdges)
            .unwrap();
        let vals = golden_values_f64(&spec);
        let archive = golden_archive(&spec);
        let toc = pfpl::container::Toc::read(&archive).unwrap();
        assert!(
            toc.sizes.iter().all(|&s| s & RAW_FLAG == 0),
            "raw chunk in {}",
            spec.name
        );
        let has = |f: &dyn Fn(f64) -> bool| vals.iter().any(|&v| f(v));
        assert!(has(&|v| v == 0.0 && v.is_sign_negative()));
        assert!(has(&|v| v == 0.0 && v.is_sign_positive()));
        assert!(has(&|v| v.is_nan() && v.is_sign_negative()));
        assert!(has(&|v| v.is_nan() && v.is_sign_positive()));
        assert!(has(&|v| v == f64::INFINITY) && has(&|v| v == f64::NEG_INFINITY));
        assert!(has(&|v| v != 0.0 && v.abs() < f64::MIN_POSITIVE));
        assert!(has(&|v| v.abs() < 1.01e-300) && has(&|v| v.abs() > 0.99e300 && v.is_finite()));
        let (_, stats) =
            pfpl::compress_with_stats(&vals, spec.bound, pfpl::types::Mode::Serial).unwrap();
        assert!(stats.lossless_values > 0 && stats.lossless_values < vals.len() as u64 / 4);
    }
}
