//! Lane-vs-scalar equivalence of the eight-lane f64 REL kernels
//! (`pfpl::quantize::rel_lanes`) against their scalar definitions:
//! `float::portable::{log2, exp2}`, per-value `RelQuantizer::encode` and
//! per-word `RelQuantizer::decode`. Every comparison is bit for bit.
//!
//! The kernels need AVX-512F and AVX-512DQ; on other hosts each test
//! prints a skip note and passes (the production dispatch then runs the
//! scalar loop, which the rest of the suite covers).

use pfpl::float::portable;
use pfpl::quantize::{rel_lanes, Quantizer, RelQuantizer};

/// True if the lane kernels can run here; otherwise prints why the
/// calling test is skipped.
fn lanes_or_skip(test: &str) -> bool {
    let ok = rel_lanes::available();
    if !ok {
        eprintln!("{test}: skipped, host lacks AVX-512F/DQ");
    }
    ok
}

/// splitmix64 stream: deterministic test data.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn next_up(x: f64) -> f64 {
    if x >= 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// Compare `log2_x8` with scalar `log2` on `xs`, eight at a time.
fn check_log2(xs: &[f64]) {
    for g in xs.chunks(8) {
        let mut lane = [1.0; 8];
        lane[..g.len()].copy_from_slice(g);
        let got = rel_lanes::log2_x8(lane).unwrap();
        let want = lane.map(portable::log2);
        assert_eq!(bits(&got), bits(&want), "log2 of {lane:?}");
    }
}

/// Compare `exp2_x8` with scalar `exp2` on `ys`, eight at a time.
fn check_exp2(ys: &[f64]) {
    for g in ys.chunks(8) {
        let mut lane = [0.0; 8];
        lane[..g.len()].copy_from_slice(g);
        let got = rel_lanes::exp2_x8(lane).unwrap();
        let want = lane.map(portable::exp2);
        assert_eq!(bits(&got), bits(&want), "exp2 of {lane:?}");
    }
}

#[test]
fn log2_matches_scalar_on_random_bit_patterns() {
    if !lanes_or_skip("log2_matches_scalar_on_random_bit_patterns") {
        return;
    }
    let mut rng = Rng(1);
    // Every positive finite pattern class: normals across the exponent
    // range, denormals (exponent field 0), mantissas at both ends.
    let mut xs: Vec<f64> = (0..200_000)
        .map(|_| loop {
            let v = f64::from_bits(rng.next() >> 1);
            if v.is_finite() && v > 0.0 {
                break v;
            }
        })
        .collect();
    xs.extend((0..40_000).map(|_| f64::from_bits((rng.next() & 0x000F_FFFF_FFFF_FFFF).max(1))));
    xs.extend([
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE,
        f64::MAX,
        1.0,
        next_up(1.0),
        next_down(1.0),
        std::f64::consts::SQRT_2,
        next_up(std::f64::consts::SQRT_2),
        next_down(std::f64::consts::SQRT_2),
        2.0,
        0.5,
    ]);
    check_log2(&xs);
}

#[test]
fn exp2_matches_scalar_across_the_lane_domain() {
    if !lanes_or_skip("exp2_matches_scalar_across_the_lane_domain") {
        return;
    }
    let mut rng = Rng(2);
    let mut ys: Vec<f64> = (0..200_000)
        .map(|_| -1022.0 + 2045.0 * rng.unit())
        .collect();
    ys.retain(|&y| y > -1022.0 && y < 1023.0);
    // Small arguments, half-integers (the rounding ties) and both ends of
    // the domain, walked by ulps.
    ys.extend((0..20_000).map(|_| (rng.unit() - 0.5) * 4.0));
    for k in -1021..=1022 {
        let h = k as f64 + 0.5;
        ys.extend([k as f64, h, next_up(h), next_down(h)]);
    }
    let mut lo = next_up(-1022.0);
    let mut hi = next_down(1023.0);
    for _ in 0..64 {
        ys.extend([lo, hi]);
        lo = next_up(lo);
        hi = next_down(hi);
    }
    ys.extend([
        -1021.5,
        next_up(-1021.5),
        next_down(-1021.5),
        1022.5,
        next_up(1022.5),
        next_down(1022.5),
    ]);
    ys.extend([0.0, -0.0]);
    check_exp2(&ys);
}

/// Lane `encode_slice` against per-value `encode` (words and lossless
/// count), and the scalar batch loop, at the full length and every
/// unaligned tail.
fn check_encode(q: &RelQuantizer<f64>, vals: &[f64]) {
    let want: Vec<u64> = vals.iter().map(|&v| q.encode(v)).collect();
    let want_ll = want.iter().filter(|&&w| q.is_lossless_word(w)).count() as u64;
    for cut in [
        vals.len(),
        vals.len().saturating_sub(1),
        vals.len().saturating_sub(5),
    ] {
        let mut got = vec![0u64; cut];
        let ll = rel_lanes::encode_slice(q, &vals[..cut], &mut got).unwrap();
        assert_eq!(
            got,
            want[..cut],
            "lane encode diverged (eb {:e})",
            q.bound()
        );
        let expect_ll = want[..cut]
            .iter()
            .filter(|&&w| q.is_lossless_word(w))
            .count() as u64;
        assert_eq!(ll, expect_ll, "lane lossless count");
    }
    let mut scalar = vec![0u64; vals.len()];
    assert_eq!(q.encode_slice_scalar(vals, &mut scalar), want_ll);
    assert_eq!(scalar, want);
    // The trait dispatch takes the lanes too.
    let mut via_trait = vec![0u64; vals.len()];
    assert_eq!(q.encode_slice(vals, &mut via_trait), want_ll);
    assert_eq!(via_trait, want);
}

/// Lane `decode_slice` against per-word `decode`.
fn check_decode(q: &RelQuantizer<f64>, words: &[u64]) {
    let want: Vec<f64> = words.iter().map(|&w| q.decode(w)).collect();
    let mut got = vec![0.0; words.len()];
    assert!(rel_lanes::decode_slice(q, words, &mut got));
    assert_eq!(
        bits(&got),
        bits(&want),
        "lane decode diverged (eb {:e})",
        q.bound()
    );
    let mut via_trait = vec![0.0; words.len()];
    q.decode_slice(words, &mut via_trait);
    assert_eq!(bits(&via_trait), bits(&want));
}

fn specials() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::from_bits(0xFFF0_0000_DEAD_BEEF),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

/// The bounds every encode test runs under: ordinary, tight, loose and
/// extreme (an `exp2` argument past the lane domain, `binw` near its
/// smallest nonzero value, and `binw == 0`).
const BOUNDS: [f64; 9] = [1e-1, 1e-3, 1e-7, 1e-12, 0.9, 7.0, 1e30, 2.3e-16, 1e-17];

#[test]
fn encode_matches_scalar_with_a_special_in_every_lane() {
    if !lanes_or_skip("encode_matches_scalar_with_a_special_in_every_lane") {
        return;
    }
    for eb in BOUNDS {
        let q = RelQuantizer::<f64>::new(eb).unwrap();
        for s in specials() {
            for pos in 0..8 {
                let mut vals: Vec<f64> = (0..32)
                    .map(|i| (i as f64 * 0.37).sin() * 1e3 + 1e-3)
                    .collect();
                vals[16 + pos] = s;
                check_encode(&q, &vals);
            }
        }
    }
}

#[test]
fn encode_matches_scalar_on_extreme_magnitudes_and_denormals() {
    if !lanes_or_skip("encode_matches_scalar_on_extreme_magnitudes_and_denormals") {
        return;
    }
    let mut rng = Rng(3);
    let mut vals = vec![
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        1e300,
        -1e-300,
        1e-310,
        -5e-324,
    ];
    // Whole groups of denormals, of values near 2^±1022, and mixed.
    vals.extend((0..64).map(|_| f64::from_bits(rng.next() & 0x800F_FFFF_FFFF_FFFF | 1)));
    vals.extend(
        (0..64)
            .map(|i| portable::exp2(if i % 2 == 0 { -1022.5 } else { 1021.0 } + 2.0 * rng.unit())),
    );
    vals.extend((0..64).map(|_| f64::from_bits(rng.next() & 0x7FEF_FFFF_FFFF_FFFF | 1)));
    for eb in BOUNDS {
        check_encode(&RelQuantizer::<f64>::new(eb).unwrap(), &vals);
    }
}

/// Values whose bin magnitude is exactly the largest encodable one and
/// one past it, at a bound tight enough to reach them.
#[test]
fn encode_matches_scalar_at_the_bin_magnitude_limit() {
    if !lanes_or_skip("encode_matches_scalar_at_the_bin_magnitude_limit") {
        return;
    }
    let eb = 1e-13;
    let q = RelQuantizer::<f64>::new(eb).unwrap();
    let max_mag = (1u64 << 50) - 2;
    let binw = 2.0 * portable::log2(1.0 + eb);
    let mut vals = Vec::new();
    for d in -3i64..=3 {
        let c = portable::exp2((max_mag as i64 + d) as f64 * binw);
        let mut x = c;
        for _ in 0..24 {
            vals.extend([x, -x, 1.0 / x]);
            x = next_up(x);
        }
    }
    let words: Vec<u64> = vals.iter().map(|&v| q.encode(v)).collect();
    let mags: Vec<u64> = words
        .iter()
        .filter(|&&w| !q.is_lossless_word(w))
        .map(|&w| (w - 1) & ((1 << 50) - 1))
        .collect();
    assert!(mags.contains(&max_mag), "no value reached the largest bin");
    assert!(
        words.iter().any(|&w| q.is_lossless_word(w)),
        "no value overflowed the largest bin"
    );
    check_encode(&q, &vals);
}

/// Values a few ulps either side of the log-space midpoint between two
/// bins: at the lower edge of the upper bin `|a - recon|` equals `eb * a`
/// up to rounding, so the fast test is inconclusive and the exact check
/// decides, both ways.
#[test]
fn encode_matches_scalar_in_the_ambiguity_band() {
    if !lanes_or_skip("encode_matches_scalar_in_the_ambiguity_band") {
        return;
    }
    let mut rng = Rng(4);
    for eb in [1e-1, 1e-3, 1e-6, 3e-9] {
        let q = RelQuantizer::<f64>::new(eb).unwrap();
        let binw = 2.0 * portable::log2(1.0 + eb);
        let mut vals = Vec::new();
        let (mut accepted, mut rejected, mut band) = (0, 0, 0);
        for _ in 0..512 {
            let k = ((2.0 * rng.unit() - 1.0) * 900.0 / binw) as i64;
            let edge = portable::exp2((k as f64 + 0.5) * binw);
            for d in -6i64..=6 {
                let a = f64::from_bits((edge.to_bits() as i64 + d) as u64);
                let w = q.encode(a);
                if q.is_lossless_word(w) {
                    rejected += 1;
                } else {
                    accepted += 1;
                    let r = q.decode(w);
                    let ratio = (a - r).abs() / (eb * a);
                    band += (ratio > 1.0 - 1e-6) as u32;
                }
                vals.push(if rng.next() & 1 == 0 { a } else { -a });
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "eb {eb:e}: {accepted} accepted, {rejected} rejected"
        );
        assert!(
            band > 0,
            "eb {eb:e}: no accepted value sat in the ambiguity band"
        );
        check_encode(&q, &vals);
    }
}

#[test]
fn encode_matches_scalar_on_random_bit_patterns() {
    if !lanes_or_skip("encode_matches_scalar_on_random_bit_patterns") {
        return;
    }
    let mut rng = Rng(5);
    for eb in BOUNDS {
        let q = RelQuantizer::<f64>::new(eb).unwrap();
        let vals: Vec<f64> = (0..20_000).map(|_| f64::from_bits(rng.next())).collect();
        check_encode(&q, &vals);
        // Mostly plain groups, so the lanes (not the fallback) run.
        let smooth: Vec<f64> = (0..20_000)
            .map(|i| (i as f64 * 1e-3).sin() * portable::exp2(60.0 * rng.unit() - 30.0))
            .collect();
        check_encode(&q, &smooth);
    }
}

/// Every word class: bins from real encodes, ±0 codes, lossless words
/// (finite, NaN payloads, ±∞), and forged bin words the encoder never
/// emits (bin magnitudes past the encodable maximum, the negative zero
/// code, raw random payloads).
#[test]
fn decode_matches_scalar_on_every_word_class() {
    if !lanes_or_skip("decode_matches_scalar_on_every_word_class") {
        return;
    }
    let mut rng = Rng(6);
    let mag_mask = (1u64 << 50) - 1;
    for eb in BOUNDS {
        let q = RelQuantizer::<f64>::new(eb).unwrap();
        let mut vals: Vec<f64> = (0..4_096).map(|i| (i as f64 * 0.01).cos() * 1e5).collect();
        vals.extend(specials());
        vals.extend((0..1_024).map(|_| f64::from_bits(rng.next())));
        let mut words: Vec<u64> = vals.iter().map(|&v| q.encode(v)).collect();
        let encoded = words.len();
        // Forged: random payloads in the bin region (top 12 bits clear
        // after the XOR), bin magnitudes at and past the limits, and the
        // zero code with the bin sign set.
        words.extend((0..4_096).map(|_| rng.next() >> 12));
        for vsign in [0u64, 1] {
            for bsign in [0u64, 1] {
                for mag in [0, 1, (1 << 49) - 1, mag_mask - 2, mag_mask - 1, mag_mask] {
                    words.push(((vsign << 51) | (bsign << 50) | mag) + 1);
                }
            }
        }
        // Fully random words (mostly lossless) and all-bin groups of one
        // random magnitude each.
        words.extend((0..1_024).map(|_| rng.next()));
        for _ in 0..256 {
            let w = ((rng.next() >> 12) & !mag_mask) | ((rng.next() % 20_000) + 1);
            words.extend([w; 8]);
        }
        check_decode(&q, &words);
        check_decode(&q, &words[..encoded]);
    }
}
