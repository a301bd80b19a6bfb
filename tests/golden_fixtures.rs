//! Golden-archive byte-stability: the committed fixtures under
//! `tests/golden/` are the canonical serialization of known datasets.
//!
//! Two generations are pinned:
//!
//! * `tests/golden/v2/<name>.pfpl` — what the current writer emits. Any
//!   encoder change that alters these bytes must be a deliberate format
//!   decision, acknowledged by regenerating:
//!
//!   ```text
//!   PFPL_REGEN_GOLDEN=1 cargo test --test golden_fixtures
//!   ```
//!
//! * `tests/golden/<name>.pfpl` — **frozen** v1 archives written before
//!   per-chunk checksums existed. They are never regenerated: readers must
//!   accept them forever, and they must keep decoding bit-identically to
//!   their v2 counterparts. Deleting or rewriting them would silently drop
//!   the back-compat guarantee. Specs added after the format bump (the
//!   f64 REL edge cases) have no v1 fixture.

use pfpl::container::Toc;
use pfpl::types::{Mode, Precision};
use pfpl_data::golden::{golden_archive, golden_specs};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Frozen v1 fixture (committed before the format bump; never regenerated).
fn v1_fixture_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.pfpl"))
}

/// Current-format (v2) fixture.
fn v2_fixture_path(name: &str) -> PathBuf {
    golden_dir().join("v2").join(format!("{name}.pfpl"))
}

#[test]
fn golden_archives_are_byte_stable() {
    let regen = std::env::var("PFPL_REGEN_GOLDEN").is_ok();
    if regen {
        std::fs::create_dir_all(golden_dir().join("v2")).unwrap();
    }
    for spec in golden_specs() {
        let path = v2_fixture_path(spec.name);
        let bytes = golden_archive(&spec);
        if regen {
            // Only the v2 generation is ever (re)written; the v1 files are
            // frozen history.
            std::fs::write(&path, &bytes).unwrap();
            continue;
        }
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} — regenerate with PFPL_REGEN_GOLDEN=1 cargo test --test golden_fixtures",
                path.display()
            )
        });
        assert_eq!(
            committed, bytes,
            "{} serialized differently than the committed fixture — \
             an encoder change altered the format",
            spec.name
        );
    }
}

/// Every committed fixture — both generations — decodes identically
/// through the serial, parallel, and streaming paths.
#[test]
fn golden_archives_decode_identically_on_all_paths() {
    for spec in golden_specs() {
        let v1 = spec.v1.then(|| v1_fixture_path(spec.name));
        for path in v1.into_iter().chain([v2_fixture_path(spec.name)]) {
            let archive = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            match spec.precision {
                Precision::Single => assert_paths_agree::<f32>(&archive, spec.name),
                Precision::Double => assert_paths_agree::<f64>(&archive, spec.name),
            }
        }
    }
}

/// The back-compat contract: every frozen v1 fixture still parses as
/// version 1, decodes bit-identically to its v2 counterpart, and the v2
/// bytes cost exactly one header-checksum word plus one table word per
/// chunk — bounded by 0.05 % on these datasets.
#[test]
fn v1_fixtures_decode_unchanged_and_match_v2() {
    for spec in golden_specs().into_iter().filter(|s| s.v1) {
        let v1 = std::fs::read(v1_fixture_path(spec.name)).unwrap();
        let v2 = std::fs::read(v2_fixture_path(spec.name)).unwrap();
        let toc1 = Toc::read(&v1).unwrap();
        let toc2 = Toc::read(&v2).unwrap();
        assert_eq!(toc1.version, 1, "{}: v1 fixture was rewritten", spec.name);
        assert_eq!(toc2.version, 2, "{}", spec.name);
        assert!(toc1.checksums.is_empty(), "{}", spec.name);
        assert_eq!(toc1.sizes, toc2.sizes, "{}: payload layout changed", spec.name);
        assert_eq!(
            &v1[toc1.payload_start..],
            &v2[toc2.payload_start..],
            "{}: chunk payloads are not version-invariant",
            spec.name
        );
        // v2 overhead is exactly the header checksum + one word per chunk —
        // at most 8 bytes per 16 KiB of input, i.e. ≤ 0.05 % of the
        // uncompressed data the archive represents (the compression-ratio
        // impact), however well the payload compresses.
        let overhead = 4 + 4 * toc2.sizes.len();
        assert_eq!(v2.len(), v1.len() + overhead, "{}", spec.name);
        let word = match spec.precision {
            Precision::Single => 4,
            Precision::Double => 8,
        };
        let uncompressed = toc2.header.count as f64 * word as f64;
        assert!(
            (overhead as f64) <= 0.0005 * uncompressed,
            "{}: checksum overhead {overhead}B exceeds 0.05% of {uncompressed}B of data",
            spec.name,
        );
        match spec.precision {
            Precision::Single => assert_versions_decode_equal::<f32>(&v1, &v2, spec.name),
            Precision::Double => assert_versions_decode_equal::<f64>(&v1, &v2, spec.name),
        }
    }
}

fn assert_versions_decode_equal<F: pfpl::float::PfplFloat>(v1: &[u8], v2: &[u8], name: &str) {
    let a: Vec<F> = pfpl::decompress(v1, Mode::Serial).unwrap();
    let b: Vec<F> = pfpl::decompress(v2, Mode::Serial).unwrap();
    let bits = |v: &[F]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b), "{name}: v1 and v2 decode differently");
    // Salvage on the clean v1 fixture must agree with strict decode too.
    let (vals, report) = pfpl::decompress_salvage::<F>(v1, Mode::Serial, F::ZERO).unwrap();
    assert!(report.is_clean(), "{name}: {}", report.summary());
    assert_eq!(bits(&a), bits(&vals), "{name}: v1 salvage diverged");
}

fn assert_paths_agree<F: pfpl::float::PfplFloat>(archive: &[u8], name: &str) {
    let serial: Vec<F> = pfpl::decompress(archive, Mode::Serial).unwrap();
    let parallel: Vec<F> = pfpl::decompress(archive, Mode::Parallel).unwrap();
    let mut streamed: Vec<F> = Vec::new();
    for chunk in pfpl::decompress_chunks::<F>(archive).unwrap() {
        streamed.extend(chunk.unwrap());
    }
    let bits = |v: &[F]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&serial), bits(&parallel), "{name}: serial vs parallel");
    assert_eq!(bits(&serial), bits(&streamed), "{name}: serial vs stream");
}
