//! Deterministic structure-aware fuzzing of every PFPL decode path.
//!
//! The decode contract under test (see `docs/FORMAT.md` and the tentpole of
//! this subsystem): for **arbitrary** input bytes, every decoder —
//! [`pfpl::decompress`] serial and parallel, [`pfpl::decompress_chunks`],
//! the device-sim decoder, and the fused/staged chunk kernels — either
//! returns `Ok` or a structured [`pfpl::Error`]; it never panics, never
//! reads out of bounds, and never allocates unboundedly from forged length
//! fields. On `Ok` for a clean archive, every value must satisfy the error
//! bound it was compressed under.
//!
//! Everything is driven by one xorshift64* stream seeded from the CLI
//! (`pfpl fuzz --seed N --iters M`): a failing run reproduces exactly from
//! its seed, offline, with no ambient entropy anywhere.

pub mod gen;
pub mod mutate;
pub mod rng;

use gen::{gen_case, Case};
use pfpl::chunk::decompress_chunk_staged;
use pfpl::container::Toc;
use pfpl::exact::noa_within;
use pfpl::float::PfplFloat;
use pfpl::salvage::{ChunkStatus, SalvageReport};
use pfpl::types::{ErrorBound, Mode};
use pfpl::{Archive, ChunkDecoder, Error};
use pfpl_device_sim::pfpl_gpu::{GpuDevice, WarpTranspose};
use rng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Aggregate result of a fuzz run. The run is a pass iff
/// [`FuzzReport::is_clean`]; the counters exist so CI logs show what was
/// actually exercised, not just a green checkmark.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Iterations completed.
    pub iterations: u64,
    /// Valid archives generated (one per iteration).
    pub cases: u64,
    /// Mutants derived from them.
    pub mutants: u64,
    /// Individual decode invocations across all paths.
    pub decode_calls: u64,
    /// Decodes that returned `Ok`.
    pub ok_decodes: u64,
    /// Decodes that returned a structured error.
    pub err_decodes: u64,
    /// Decodes that panicked — any nonzero value is a contract violation.
    pub panics: u64,
    /// Clean-archive values outside their error bound — must stay zero.
    pub bound_violations: u64,
    /// Cross-path disagreements (Ok/Err divergence, differing Ok bits,
    /// wrong output length) — must stay zero.
    pub mismatches: u64,
    /// Human-readable descriptions of the first few failures.
    pub failures: Vec<String>,
}

impl FuzzReport {
    /// True when the run found no contract violation.
    pub fn is_clean(&self) -> bool {
        self.panics == 0 && self.bound_violations == 0 && self.mismatches == 0
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    /// One-paragraph summary for CLI / CI logs.
    pub fn summary(&self) -> String {
        format!(
            "{} iterations: {} archives, {} mutants, {} decode calls \
             ({} ok / {} rejected) | panics: {}, bound violations: {}, \
             cross-path mismatches: {} -> {}",
            self.iterations,
            self.cases,
            self.mutants,
            self.decode_calls,
            self.ok_decodes,
            self.err_decodes,
            self.panics,
            self.bound_violations,
            self.mismatches,
            if self.is_clean() { "PASS" } else { "FAIL" }
        )
    }
}

/// Outcome of one decode invocation.
enum Outcome<F> {
    Ok(Vec<F>),
    Err(Error),
    Panic(String),
}

/// Run `f` under `catch_unwind`, folding the three possible results.
fn catching<F>(f: impl FnOnce() -> pfpl::Result<Vec<F>>) -> Outcome<F> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Outcome::Ok(v),
        Ok(Err(e)) => Outcome::Err(e),
        Err(p) => Outcome::Panic(panic_message(&p)),
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// Chunk-level decode driver over [`Archive`] that routes through
/// [`pfpl::chunk::decompress_chunk_staged`] when `staged` — so the fuzzer
/// exercises the staged reference kernel and the fused kernel as two
/// separately-callable paths, under the same verify-before-decode contract
/// as the strict drivers.
fn chunk_level_decode<F: PfplFloat>(archive: &[u8], staged: bool) -> pfpl::Result<Vec<F>> {
    let ar = Archive::<F>::open(archive)?;
    ar.check_layout()?;
    let mut out = vec![F::ZERO; ar.count()];
    ar.for_each_chunk(&mut out, Mode::Serial, |i, vals, s| {
        let c = ar.verified(i)?;
        if !staged {
            return ar.decode(&c, vals, s);
        }
        c.decode_with(|p, raw| match ar.decoder() {
            ChunkDecoder::Abs(q) => decompress_chunk_staged(q, p, raw, vals, s),
            ChunkDecoder::Rel(q) => decompress_chunk_staged(q, p, raw, vals, s),
            ChunkDecoder::Pass(q) => decompress_chunk_staged(q, p, raw, vals, s),
        })
    })
    .into_iter()
    .collect::<pfpl::Result<()>>()?;
    Ok(out)
}

/// Decode `archive` through every path. Path names are stable (used in
/// failure reports).
fn decode_all<F>(archive: &[u8], device: &GpuDevice) -> Vec<(&'static str, Outcome<F>)>
where
    F: PfplFloat,
    F::Bits: WarpTranspose,
{
    vec![
        (
            "serial",
            catching(|| pfpl::decompress::<F>(archive, Mode::Serial)),
        ),
        (
            "parallel",
            catching(|| pfpl::decompress::<F>(archive, Mode::Parallel)),
        ),
        (
            "stream",
            catching(|| {
                let mut out = Vec::new();
                for chunk in pfpl::decompress_chunks::<F>(archive)? {
                    out.extend(chunk?);
                }
                Ok(out)
            }),
        ),
        ("device-sim", catching(|| device.decompress::<F>(archive))),
        (
            "chunk-fused",
            catching(|| chunk_level_decode::<F>(archive, false)),
        ),
        (
            "chunk-staged",
            catching(|| chunk_level_decode::<F>(archive, true)),
        ),
    ]
}

/// Check one decode-path sweep for contract violations: no panics, Ok/Err
/// agreement across paths, bit-identical Ok values with the header-claimed
/// length. `label` names the input (operator + iteration) for reports.
/// Returns the first `Ok` value set, if any.
fn check_outcomes<F>(
    label: &str,
    archive: &[u8],
    outcomes: Vec<(&'static str, Outcome<F>)>,
    expect_ok: bool,
    report: &mut FuzzReport,
) -> Option<Vec<F>>
where
    F: PfplFloat,
{
    report.decode_calls += outcomes.len() as u64;
    let mut first_ok: Option<(&'static str, Vec<F>)> = None;
    let mut first_err: Option<&'static str> = None;
    for (path, outcome) in outcomes {
        match outcome {
            Outcome::Panic(msg) => {
                report.panics += 1;
                report.fail(format!("PANIC in {path} on {label}: {msg}"));
            }
            Outcome::Err(e) => {
                report.err_decodes += 1;
                if expect_ok {
                    report.mismatches += 1;
                    report.fail(format!("{path} rejected a valid archive ({label}): {e}"));
                }
                first_err.get_or_insert(path);
            }
            Outcome::Ok(vals) => {
                report.ok_decodes += 1;
                match &first_ok {
                    None => {
                        // The output length must be what the (parseable)
                        // header claims — an Ok with any other length means
                        // a desynced loop slipped through validation.
                        if let Ok(Toc { header: h, .. }) = Toc::read(archive) {
                            if h.precision == F::PRECISION && vals.len() as u64 != h.count {
                                report.mismatches += 1;
                                report.fail(format!(
                                    "{path} returned {} values, header claims {} ({label})",
                                    vals.len(),
                                    h.count
                                ));
                            }
                        }
                        first_ok = Some((path, vals));
                    }
                    Some((ref_path, ref_vals)) => {
                        let same = ref_vals.len() == vals.len()
                            && ref_vals
                                .iter()
                                .zip(&vals)
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                        if !same {
                            report.mismatches += 1;
                            report.fail(format!(
                                "{path} and {ref_path} decoded different values ({label})"
                            ));
                        }
                    }
                }
            }
        }
    }
    // Every path performs the same validation, so Ok/Err divergence on the
    // same bytes is a real inconsistency (one path accepted what another
    // proved malformed).
    if let (Some((ok_path, _)), Some(err_path)) = (&first_ok, first_err) {
        report.mismatches += 1;
        report.fail(format!(
            "{ok_path} accepted but {err_path} rejected the same bytes ({label})"
        ));
    }
    first_ok.map(|(_, v)| v)
}

/// Verify the paper's guarantee value-by-value on a clean decode: every
/// reconstructed value is bit-exact (lossless fallback, specials,
/// passthrough) or within the bound the archive was compressed under.
fn verify_bound<F: PfplFloat>(case: &Case<F>, decoded: &[F], report: &mut FuzzReport) {
    let Ok(toc) = Toc::read(&case.archive) else {
        report.mismatches += 1;
        report.fail("clean archive failed to re-parse".into());
        return;
    };
    if decoded.len() != case.data.len() {
        report.bound_violations += 1;
        report.fail(format!(
            "clean decode returned {} values, input had {}",
            decoded.len(),
            case.data.len()
        ));
        return;
    }
    let eb = case.bound.value();
    // NOA is checked against the user bound times the original data's
    // range, decided exactly — not against the header's derived bound,
    // which is the very value the quantizer enforced. The derived bound
    // itself must lie within that exact bound too.
    let range = value_range(&case.data);
    let noa_holds = |v: f64, r: f64| range.is_some_and(|(lo, hi)| noa_within(v, r, eb, hi, lo));
    let derived = toc.header.derived_bound;
    if matches!(case.bound, ErrorBound::Noa(_)) && derived != 0.0 && !noa_holds(derived, 0.0) {
        report.bound_violations += 1;
        report.fail(format!(
            "derived NOA bound {derived:e} exceeds {eb:e} × range (pattern {:?})",
            case.pattern
        ));
    }
    for (i, (a, b)) in case.data.iter().zip(decoded).enumerate() {
        if a.to_bits() == b.to_bits() {
            continue;
        }
        let (av, bv) = (a.to_f64(), b.to_f64());
        let within = match case.bound {
            // The user bound is authoritative: the derived bound is
            // rounded toward zero, so checking against `eb` is exact.
            ErrorBound::Abs(_) => (av - bv).abs() <= eb,
            ErrorBound::Rel(_) => (av - bv).abs() <= eb * av.abs(),
            ErrorBound::Noa(_) => av.is_finite() && bv.is_finite() && noa_holds(av, bv),
        };
        if !within {
            report.bound_violations += 1;
            report.fail(format!(
                "bound violated at value {i}: {av} -> {bv} under {:?} (pattern {:?})",
                case.bound, case.pattern
            ));
            return;
        }
    }
}

/// `(min, max)` of the non-NaN values, or `None` when that range is empty
/// or infinite (NOA then stores every value losslessly).
fn value_range<F: PfplFloat>(data: &[F]) -> Option<(f64, f64)> {
    let (lo, hi) = data
        .iter()
        .map(|v| v.to_f64())
        .filter(|v| !v.is_nan())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), v| {
            (l.min(v), h.max(v))
        });
    (lo.is_finite() && hi.is_finite()).then_some((lo, hi))
}

/// Mid-stream fault injection for [`pfpl::decompress_chunks`]: corrupt a
/// byte inside a later chunk's payload, then stream — chunks before the
/// corruption must still decode to the clean values; the corrupted chunk
/// and everything after must return `Ok` or `Err` without panicking.
fn fault_injection<F>(rng: &mut Rng, case: &Case<F>, clean: &[F], report: &mut FuzzReport)
where
    F: PfplFloat,
{
    let Ok(ar) = Archive::<F>::open(&case.archive) else {
        return;
    };
    if ar.chunks() < 2 || ar.check_layout().is_err() {
        return;
    }
    // Pick a non-empty chunk other than the first.
    let k = rng.range(1, ar.chunks());
    if ar.claimed(k) == 0 {
        return;
    }
    let mut m = case.archive.clone();
    let off = rng.range(ar.offset(k), ar.offset(k) + ar.claimed(k));
    m[off] ^= rng.nonzero_byte();

    let vpc = pfpl::chunk::values_per_chunk::<F>();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut decoded_before = 0usize;
        let iter = match pfpl::decompress_chunks::<F>(&m) {
            Ok(it) => it,
            // Rejecting up front is allowed (e.g. the flip landed in a
            // region a stricter future validation covers).
            Err(_) => return Ok(0),
        };
        for (i, chunk) in iter.enumerate() {
            if let Ok(vals) = chunk {
                if i < k {
                    let lo = i * vpc;
                    let same = vals.len() == (lo + vals.len()).min(clean.len()) - lo
                        && vals
                            .iter()
                            .zip(&clean[lo..])
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        return Err(format!("pre-fault chunk {i} diverged from clean decode"));
                    }
                    decoded_before += 1;
                }
            }
        }
        Ok(decoded_before)
    }));
    report.decode_calls += 1;
    match run {
        Ok(Ok(_)) => report.ok_decodes += 1,
        Ok(Err(msg)) => {
            report.mismatches += 1;
            report.fail(format!("fault injection: {msg}"));
        }
        Err(p) => {
            report.panics += 1;
            report.fail(format!(
                "PANIC streaming past mid-stream fault: {}",
                panic_message(&p)
            ));
        }
    }
}

/// One fuzz iteration at precision `F`: generate a valid archive, verify
/// it decodes identically (and in bound) on every path, then attack it
/// with mutants and mid-stream faults.
fn iterate<F, G>(rng: &mut Rng, device: &GpuDevice, report: &mut FuzzReport)
where
    F: PfplFloat,
    F::Bits: WarpTranspose,
    G: PfplFloat,
    G::Bits: WarpTranspose,
{
    let case = match catch_unwind(AssertUnwindSafe(|| gen_case::<F>(rng))) {
        Ok(c) => c,
        Err(p) => {
            report.panics += 1;
            report.fail(format!("PANIC generating case: {}", panic_message(&p)));
            return;
        }
    };
    report.cases += 1;

    // Clean archive: every path must accept, agree, and hold the bound.
    let outcomes = decode_all::<F>(&case.archive, device);
    let clean = check_outcomes("clean archive", &case.archive, outcomes, true, report);
    if let Some(clean) = &clean {
        verify_bound(&case, clean, report);
    }

    // Wrong-precision probe: must be a structured PrecisionMismatch.
    report.decode_calls += 1;
    match catching(|| pfpl::decompress::<G>(&case.archive, Mode::Serial)) {
        Outcome::Err(Error::PrecisionMismatch { .. }) => report.err_decodes += 1,
        Outcome::Err(_) => report.err_decodes += 1,
        Outcome::Ok(_) => {
            report.mismatches += 1;
            report.fail("wrong-precision decode returned Ok".into());
        }
        Outcome::Panic(msg) => {
            report.panics += 1;
            report.fail(format!("PANIC on wrong-precision decode: {msg}"));
        }
    }

    // Mutants: panic-free and cross-path consistent, Ok or not.
    for _ in 0..rng.range(1, 4) {
        let (mutant, op) = mutate::mutate(rng, &case.archive);
        report.mutants += 1;
        let label = format!("mutant[{op}]");
        let outcomes = decode_all::<F>(&mutant, device);
        check_outcomes(&label, &mutant, outcomes, false, report);
    }

    // Mid-stream fault injection on multi-chunk archives.
    if let Some(clean) = &clean {
        if rng.chance(1, 3) {
            fault_injection(rng, &case, clean, report);
        }
    }
}

/// Run `iters` fuzz iterations from `seed`. Deterministic: same seed and
/// iteration count → same archives, same mutants, same verdict. Panics
/// raised by decoders are caught and counted (the default panic hook is
/// silenced for the duration so expected unwinds don't spam stderr).
pub fn run(seed: u64, iters: u64) -> FuzzReport {
    let mut rng = Rng::new(seed);
    let device = GpuDevice::new(pfpl_device_sim::configs::RTX_4090);
    let mut report = FuzzReport::default();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for _ in 0..iters {
        if rng.chance(1, 2) {
            iterate::<f32, f64>(&mut rng, &device, &mut report);
        } else {
            iterate::<f64, f32>(&mut rng, &device, &mut report);
        }
        report.iterations += 1;
    }
    std::panic::set_hook(prev_hook);
    report
}

/// One recovery-oracle iteration at precision `F`: generate a valid
/// archive, check that salvage of the *clean* archive is a no-op, then
/// corrupt one byte in each of K ∈ 1..=4 distinct chunk payloads and
/// verify the salvage contract:
///
/// * strict decode rejects the archive, blaming the first corrupted chunk;
/// * all three salvage backends (serial, parallel, device-sim) return
///   bit-identical values and identical reports;
/// * every untouched chunk is reported `Ok` and decodes bit-identically to
///   the clean archive — corruption must never silently alter a chunk it
///   did not land in;
/// * every touched chunk is flagged `ChecksumMismatch` and its output
///   range holds exactly the fill value.
fn salvage_iterate<F>(rng: &mut Rng, device: &GpuDevice, report: &mut FuzzReport)
where
    F: PfplFloat,
    F::Bits: WarpTranspose,
{
    let case = match catch_unwind(AssertUnwindSafe(|| gen_case::<F>(rng))) {
        Ok(c) => c,
        Err(p) => {
            report.panics += 1;
            report.fail(format!("PANIC generating case: {}", panic_message(&p)));
            return;
        }
    };
    report.cases += 1;
    let archive = &case.archive;
    let Ok(ar) = Archive::<F>::open(archive) else {
        report.mismatches += 1;
        report.fail("clean archive failed to re-parse".into());
        return;
    };
    if ar.check_layout().is_err() {
        report.mismatches += 1;
        report.fail("clean archive has inconsistent size table".into());
        return;
    }
    report.decode_calls += 1;
    let clean = match catching(|| pfpl::decompress::<F>(archive, Mode::Serial)) {
        Outcome::Ok(v) => {
            report.ok_decodes += 1;
            v
        }
        Outcome::Err(e) => {
            report.err_decodes += 1;
            report.mismatches += 1;
            report.fail(format!("strict decode rejected a clean archive: {e}"));
            return;
        }
        Outcome::Panic(msg) => {
            report.panics += 1;
            report.fail(format!("PANIC on clean strict decode: {msg}"));
            return;
        }
    };
    let fill = F::from_f64(f64::NAN);

    // Salvage of the clean archive must be a clean report and a
    // bit-identical decode.
    report.decode_calls += 1;
    match catch_unwind(AssertUnwindSafe(|| {
        pfpl::decompress_salvage::<F>(archive, Mode::Serial, fill)
    })) {
        Ok(Ok((vals, rep))) => {
            report.ok_decodes += 1;
            if !rep.is_clean() || !bits_equal(&vals, &clean) {
                report.mismatches += 1;
                report.fail("salvage of a clean archive was not a clean no-op".into());
            }
        }
        Ok(Err(e)) => {
            report.err_decodes += 1;
            report.mismatches += 1;
            report.fail(format!("salvage refused a clean archive: {e}"));
        }
        Err(p) => {
            report.panics += 1;
            report.fail(format!("PANIC salvaging clean archive: {}", panic_message(&p)));
        }
    }

    // Pick K distinct chunks with non-empty payloads and flip one byte in
    // each, re-rolling on the (astronomically unlikely) digest collision so
    // every corruption is detectable by construction.
    let mut pool: Vec<usize> = (0..ar.chunks()).filter(|&i| ar.claimed(i) > 0).collect();
    if pool.is_empty() {
        return;
    }
    let k = rng.range(1, 5).min(pool.len());
    let mut touched = Vec::with_capacity(k);
    for _ in 0..k {
        touched.push(pool.swap_remove(rng.below(pool.len())));
    }
    touched.sort_unstable();
    let mut m = archive.clone();
    for &c in &touched {
        let (lo, hi) = (ar.offset(c), ar.offset(c) + ar.claimed(c));
        loop {
            let off = rng.range(lo, hi);
            let mask = rng.nonzero_byte();
            m[off] ^= mask;
            let damaged = Archive::<F>::open(&m)
                .is_ok_and(|a| matches!(a.chunk(c), Err(ChunkStatus::ChecksumMismatch { .. })));
            if damaged {
                break;
            }
            m[off] ^= mask;
        }
    }
    report.mutants += 1;

    // Strict decode must reject, blaming the first corrupted chunk (the
    // serial driver verifies in order and earlier chunks are intact).
    report.decode_calls += 1;
    match catching(|| pfpl::decompress::<F>(&m, Mode::Serial)) {
        Outcome::Err(Error::ChecksumMismatch { chunk, .. }) => {
            report.err_decodes += 1;
            if chunk != touched[0] {
                report.mismatches += 1;
                report.fail(format!(
                    "strict decode blamed chunk {chunk}, first corrupted is {}",
                    touched[0]
                ));
            }
        }
        Outcome::Err(e) => {
            report.err_decodes += 1;
            report.mismatches += 1;
            report.fail(format!(
                "strict decode of corrupted archive returned {e}, expected a checksum mismatch"
            ));
        }
        Outcome::Ok(_) => {
            report.mismatches += 1;
            report.fail("strict decode accepted an archive with corrupted payloads".into());
        }
        Outcome::Panic(msg) => {
            report.panics += 1;
            report.fail(format!("PANIC on strict decode of corrupted archive: {msg}"));
        }
    }

    // All three salvage backends must succeed and agree exactly.
    type SalvageRun<F> = std::thread::Result<pfpl::Result<(Vec<F>, SalvageReport)>>;
    let mut results: Vec<(&'static str, (Vec<F>, SalvageReport))> = Vec::new();
    let runs: [(&'static str, SalvageRun<F>); 3] = [
        (
            "salvage-serial",
            catch_unwind(AssertUnwindSafe(|| {
                pfpl::decompress_salvage::<F>(&m, Mode::Serial, fill)
            })),
        ),
        (
            "salvage-parallel",
            catch_unwind(AssertUnwindSafe(|| {
                pfpl::decompress_salvage::<F>(&m, Mode::Parallel, fill)
            })),
        ),
        (
            "salvage-device",
            catch_unwind(AssertUnwindSafe(|| device.decompress_salvage::<F>(&m, fill))),
        ),
    ];
    for (path, run) in runs {
        report.decode_calls += 1;
        match run {
            Ok(Ok(r)) => {
                report.ok_decodes += 1;
                results.push((path, r));
            }
            Ok(Err(e)) => {
                report.err_decodes += 1;
                report.mismatches += 1;
                report.fail(format!("{path} refused a salvageable archive: {e}"));
            }
            Err(p) => {
                report.panics += 1;
                report.fail(format!("PANIC in {path}: {}", panic_message(&p)));
            }
        }
    }
    let Some((ref_path, (ref_vals, ref_rep))) = results.first() else {
        return;
    };
    for (path, (vals, rep)) in &results[1..] {
        if !bits_equal(vals, ref_vals) {
            report.mismatches += 1;
            report.fail(format!("{path} and {ref_path} salvaged different values"));
        }
        if rep != ref_rep {
            report.mismatches += 1;
            report.fail(format!("{path} and {ref_path} produced different reports"));
        }
    }

    // The oracle proper: untouched chunks bit-identical to clean, touched
    // chunks flagged and filled. Any other shape is a silent-wrong decode.
    if ref_rep.chunks.len() != ar.chunks() || ref_vals.len() != clean.len() {
        report.mismatches += 1;
        report.fail("salvage report/output shape disagrees with the archive".into());
        return;
    }
    let vpc = pfpl::chunk::values_per_chunk::<F>();
    for (c, cr) in ref_rep.chunks.iter().enumerate() {
        let lo = c * vpc;
        let hi = ((c + 1) * vpc).min(ref_vals.len());
        if touched.binary_search(&c).is_ok() {
            if !matches!(cr.status, ChunkStatus::ChecksumMismatch { .. }) {
                report.mismatches += 1;
                report.fail(format!(
                    "corrupted chunk {c} reported as {} instead of a checksum mismatch",
                    cr.status
                ));
            }
            if ref_vals[lo..hi].iter().any(|v| v.to_bits() != fill.to_bits()) {
                report.mismatches += 1;
                report.fail(format!("corrupted chunk {c} was not filled"));
            }
        } else {
            if !cr.status.is_ok() {
                report.mismatches += 1;
                report.fail(format!("intact chunk {c} flagged as {}", cr.status));
            }
            if !bits_equal(&ref_vals[lo..hi], &clean[lo..hi]) {
                report.mismatches += 1;
                report.fail(format!(
                    "SILENT WRONG: intact chunk {c} salvaged to different bits"
                ));
            }
        }
    }
}

/// Bit-exact slice equality (tolerates no NaN-insensitive comparison).
fn bits_equal<F: PfplFloat>(a: &[F], b: &[F]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run `iters` recovery-oracle iterations from `seed` (the
/// `pfpl fuzz --mode salvage` entry point). Deterministic like [`run`];
/// the verdict is clean only if no corruption was ever silently absorbed,
/// misattributed, or decoded differently across salvage backends.
pub fn run_salvage(seed: u64, iters: u64) -> FuzzReport {
    let mut rng = Rng::new(seed);
    let device = GpuDevice::new(pfpl_device_sim::configs::RTX_4090);
    let mut report = FuzzReport::default();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for _ in 0..iters {
        if rng.chance(1, 2) {
            salvage_iterate::<f32>(&mut rng, &device, &mut report);
        } else {
            salvage_iterate::<f64>(&mut rng, &device, &mut report);
        }
        report.iterations += 1;
    }
    std::panic::set_hook(prev_hook);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_clean_and_deterministic() {
        let a = run(42, 30);
        assert!(a.is_clean(), "failures: {:#?}", a.failures);
        assert_eq!(a.iterations, 30);
        assert!(a.cases > 0 && a.mutants > 0 && a.decode_calls > 0);
        let b = run(42, 30);
        assert_eq!(a.decode_calls, b.decode_calls);
        assert_eq!(a.ok_decodes, b.ok_decodes);
        assert_eq!(a.err_decodes, b.err_decodes);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = run(1, 20);
        let b = run(2, 20);
        assert!(a.is_clean() && b.is_clean());
        // Same shape of work, different random walk: decode tallies almost
        // surely differ.
        assert!(
            a.ok_decodes != b.ok_decodes || a.err_decodes != b.err_decodes,
            "seeds 1 and 2 produced identical tallies"
        );
    }

    #[test]
    fn report_summary_mentions_verdict() {
        let r = run(7, 5);
        assert!(r.summary().contains("PASS"));
    }

    #[test]
    fn salvage_oracle_is_clean_and_deterministic() {
        let a = run_salvage(42, 25);
        assert!(a.is_clean(), "failures: {:#?}", a.failures);
        assert_eq!(a.iterations, 25);
        assert!(a.mutants > 0, "no corrupted archives were exercised");
        let b = run_salvage(42, 25);
        assert_eq!(a.decode_calls, b.decode_calls);
        assert_eq!(a.ok_decodes, b.ok_decodes);
        assert_eq!(a.err_decodes, b.err_decodes);
    }

    #[test]
    fn salvage_oracle_exercises_multi_chunk_corruption() {
        // Over a modest run the K ∈ 1..=4 draw must hit K ≥ 2 (multi-chunk
        // damage) — the counters can't show K directly, so assert the run
        // corrupts archives at a healthy rate instead of degenerating into
        // the empty/one-chunk early returns.
        let r = run_salvage(1337, 40);
        assert!(r.is_clean(), "failures: {:#?}", r.failures);
        assert!(
            r.mutants * 2 >= r.cases,
            "only {}/{} cases were corruptible",
            r.mutants,
            r.cases
        );
    }
}
