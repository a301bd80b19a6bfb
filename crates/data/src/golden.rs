//! Golden-archive fixtures: deterministic datasets and their canonical
//! compressed bytes.
//!
//! The committed files under `tests/golden/` pin the container format: if
//! any encoder change alters the bytes an archive serializes to, the
//! byte-stability test fails and the change must either be reverted or
//! explicitly acknowledged by regenerating the fixtures (a format bump).
//! The specs cover both precisions, all three bound kinds, and the
//! raw-fallback chunk path, each spanning multiple chunks plus a tail.

use pfpl::types::{ErrorBound, Precision};

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
    /// True for incompressible noise inputs that force raw-fallback chunks.
    pub noise: bool,
}

/// The full fixture matrix: f32/f64 × ABS/REL/NOA on smooth data, plus a
/// raw-fallback noise case per precision.
pub fn golden_specs() -> Vec<GoldenSpec> {
    use ErrorBound::{Abs, Noa, Rel};
    use Precision::{Double, Single};
    vec![
        GoldenSpec { name: "f32_abs_smooth", precision: Single, bound: Abs(1e-3), noise: false },
        GoldenSpec { name: "f32_rel_smooth", precision: Single, bound: Rel(1e-4), noise: false },
        GoldenSpec { name: "f32_noa_smooth", precision: Single, bound: Noa(1e-4), noise: false },
        GoldenSpec { name: "f64_abs_smooth", precision: Double, bound: Abs(1e-6), noise: false },
        GoldenSpec { name: "f64_rel_smooth", precision: Double, bound: Rel(1e-7), noise: false },
        GoldenSpec { name: "f64_noa_smooth", precision: Double, bound: Noa(1e-6), noise: false },
        GoldenSpec { name: "f32_raw_noise", precision: Single, bound: Rel(1e-9), noise: true },
        GoldenSpec { name: "f64_raw_noise", precision: Double, bound: Rel(1e-16), noise: true },
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
    if spec.noise {
        // Random finite bit patterns across the full exponent range:
        // incompressible under the tight relative bound, forcing the
        // raw-chunk fallback.
        (0..n as u64)
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
            .collect()
    } else {
        crate::gen::fractal_field_1d(seed, n, 8.0, 5, 0.55)
    }
}

/// The single-precision source dataset for a spec (only valid for
/// [`Precision::Single`] specs).
pub fn golden_values_f32(spec: &GoldenSpec) -> Vec<f32> {
    assert_eq!(spec.precision, Precision::Single, "{} is double precision", spec.name);
    let n = golden_len(spec.precision);
    let seed = seed_of(spec.name);
    if spec.noise {
        (0..n as u64)
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
            .collect()
    } else {
        crate::gen::fractal_field_1d(seed, n, 8.0, 5, 0.55)
            .into_iter()
            .map(|v| v as f32)
            .collect()
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
        for spec in golden_specs().iter().filter(|s| s.noise) {
            let archive = golden_archive(spec);
            let toc = pfpl::container::Toc::read(&archive).unwrap();
            assert!(
                toc.sizes.iter().any(|&s| s & RAW_FLAG != 0),
                "{} produced no raw chunks",
                spec.name
            );
        }
    }
}
