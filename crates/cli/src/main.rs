//! `pfpl` — command-line front end, mirroring the usage of the paper's
//! reference binaries on SDRBench-style raw float dumps.
//!
//! ```text
//! pfpl compress   -i data.f32 -o data.pfpl --type f32 --bound abs --eb 1e-3
//! pfpl decompress -i data.pfpl -o restored.f32
//! pfpl info       -i data.pfpl
//! pfpl verify     -a data.pfpl                  # integrity only (checksums)
//! pfpl verify     -a data.pfpl -i data.f32      # + error-bound check
//! pfpl salvage    -i damaged.pfpl -o rescued.f32
//! pfpl fuzz       --seed 42 --iters 2000 --mode salvage
//! ```
//!
//! Exit status: 0 on success, 1 on any failure — including a damaged
//! archive reported by `verify` or `salvage` (so scripts can gate on it).

use pfpl::container::{Header, Toc};
use pfpl::float::{PfplFloat, Word};
use pfpl::types::{BoundKind, ErrorBound, Mode, Precision};
use pfpl::{CompressStats, SalvageReport};
use std::process::ExitCode;
use std::time::Instant;

mod opts;
use opts::Opts;

/// A CLI failure: the message, plus whether it stems from bad invocation
/// syntax (print usage) or from a runtime condition like an unreadable
/// file or a damaged archive (usage would only bury the diagnosis).
struct CliError {
    msg: String,
    show_usage: bool,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError {
            msg: msg.into(),
            show_usage: true,
        }
    }

    fn runtime(msg: impl Into<String>) -> Self {
        CliError {
            msg: msg.into(),
            show_usage: false,
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pfpl: {}", e.msg);
            if e.show_usage {
                eprintln!("{}", opts::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<String, CliError> {
    let (cmd, opts) = Opts::parse(argv).map_err(CliError::usage)?;
    if let Some(n) = opts.threads().map_err(CliError::usage)? {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .map_err(|e| CliError::runtime(format!("--threads: {e}")))?;
    }
    match cmd.as_str() {
        "compress" => compress(&opts),
        "decompress" => decompress(&opts),
        "info" => info(&opts),
        "verify" => verify(&opts),
        "salvage" => salvage(&opts),
        "fuzz" => fuzz(&opts),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}

/// Uncompressed-bytes-per-second throughput, the convention used
/// throughout the paper's tables.
fn gbs(bytes: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return f64::INFINITY;
    }
    bytes as f64 / secs / 1e9
}

fn read_file(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

/// A raw little-endian dump of `F` values.
fn read_values<F: PfplFloat>(path: &str) -> Result<Vec<F>, CliError> {
    let bytes = read_file(path)?;
    let wb = F::Bits::BITS as usize / 8;
    if bytes.len() % wb != 0 {
        return Err(CliError::runtime(format!(
            "{path}: size {} is not a multiple of {wb}",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(wb)
        .map(|c| F::from_bits(F::Bits::read_le(c)))
        .collect())
}

/// The values' little-endian bytes, written into one pre-sized buffer.
fn to_le_bytes<F: PfplFloat>(vals: &[F]) -> Vec<u8> {
    let wb = F::Bits::BITS as usize / 8;
    let mut out = vec![0u8; vals.len() * wb];
    for (d, v) in out.chunks_exact_mut(wb).zip(vals) {
        v.to_bits().write_le(d);
    }
    out
}

/// `pfpl::compress_with_stats`, returning the seconds spent in that call
/// alone: the GB/s the CLI prints is the library's, not the file read's.
fn compress_timed<F: PfplFloat>(
    data: &[F],
    bound: ErrorBound,
    mode: Mode,
) -> Result<(Vec<u8>, CompressStats, f64), CliError> {
    let start = Instant::now();
    let (archive, stats) = pfpl::compress_with_stats(data, bound, mode)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    Ok((archive, stats, start.elapsed().as_secs_f64()))
}

/// `pfpl::decompress` timed alone (as [`compress_timed`]), then converted
/// to the output bytes.
fn decompress_timed<F: PfplFloat>(
    archive: &[u8],
    mode: Mode,
    input: &str,
) -> Result<(Vec<u8>, f64), CliError> {
    let start = Instant::now();
    let vals: Vec<F> =
        pfpl::decompress(archive, mode).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    let secs = start.elapsed().as_secs_f64();
    Ok((to_le_bytes(&vals), secs))
}

fn compress(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let output = o.require("-o").map_err(CliError::usage)?;
    let bound = o.bound().map_err(CliError::usage)?;
    let is_double = o.is_double().map_err(CliError::usage)?;
    let mode = o.mode();
    let (archive, stats, secs) = if is_double {
        compress_timed(&read_values::<f64>(input)?, bound, mode)?
    } else {
        compress_timed(&read_values::<f32>(input)?, bound, mode)?
    };
    let word = if is_double { 8 } else { 4 };
    write_file(output, &archive)?;
    Ok(format!(
        "{} -> {} | {} values, ratio {:.2}x, unquantizable {:.4}%, {:.3} GB/s",
        input,
        output,
        stats.total_values,
        stats.ratio(),
        stats.lossless_fraction() * 100.0,
        gbs(stats.total_values as usize * word, secs)
    ))
}

fn decompress(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let output = o.require("-o").map_err(CliError::usage)?;
    let archive = read_file(input)?;
    let Toc { header, .. } =
        Toc::read(&archive).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    let mode = o.mode();
    let (bytes, secs) = match header.precision {
        Precision::Single => decompress_timed::<f32>(&archive, mode, input)?,
        Precision::Double => decompress_timed::<f64>(&archive, mode, input)?,
    };
    write_file(output, &bytes)?;
    Ok(format!(
        "{} -> {} | {} values ({:?}, {:?} bound {:.3e}), {:.3} GB/s",
        input,
        output,
        header.count,
        header.precision,
        header.kind,
        header.user_bound,
        gbs(bytes.len(), secs)
    ))
}

fn info(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let archive = read_file(input)?;
    let toc = Toc::read(&archive).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    let (h, payload_start) = (toc.header, toc.payload_start);
    let raw_chunks = toc
        .sizes
        .iter()
        .filter(|&&s| s & pfpl::container::RAW_FLAG != 0)
        .count();
    let word = match h.precision {
        Precision::Single => 4,
        Precision::Double => 8,
    };
    Ok(format!(
        "archive:      {input}\n\
         format:       v{}{}\n\
         precision:    {:?}\n\
         bound:        {} {:.6e}{}\n\
         values:       {}\n\
         chunks:       {} ({raw_chunks} stored raw)\n\
         header+table: {payload_start} bytes\n\
         payload:      {} bytes\n\
         ratio:        {:.3}x",
        toc.version,
        if toc.version >= 2 {
            " (per-chunk checksums)"
        } else {
            " (no checksums)"
        },
        h.precision,
        h.kind.name(),
        h.user_bound,
        if h.passthrough { " (passthrough)" } else { "" },
        h.count,
        h.chunk_count,
        archive.len() - payload_start,
        (h.count * word) as f64 / archive.len() as f64,
    ))
}

/// `verify -a <archive>`: archive-only integrity check against the stored
/// checksums (v2). With `-i <raw floats>` it additionally decompresses and
/// measures the reconstruction error against the original data. Either
/// failure exits nonzero with a per-chunk damage report.
fn verify(o: &Opts) -> Result<String, CliError> {
    let arch_path = o.require("-a").map_err(CliError::usage)?;
    let archive = read_file(arch_path)?;
    let toc = Toc::read(&archive).map_err(|e| CliError::runtime(format!("{arch_path}: {e}")))?;
    let report = match toc.header.precision {
        Precision::Single => pfpl::verify_archive::<f32>(&archive),
        Precision::Double => pfpl::verify_archive::<f64>(&archive),
    }
    .map_err(|e| CliError::runtime(format!("{arch_path}: {e}")))?;
    if !report.is_clean() {
        return Err(CliError::runtime(format!(
            "{arch_path}: DAMAGED\n{}",
            report.summary()
        )));
    }
    let Some(input) = o.get("-i") else {
        return Ok(format!("OK: {arch_path}: {}", report.summary()));
    };
    bound_check(input, arch_path, &archive, toc.header)
}

/// The data-vs-archive half of `verify`: decode and measure the actual
/// maximum error against the original values.
fn bound_check(input: &str, arch_path: &str, archive: &[u8], h: Header) -> Result<String, CliError> {
    let eb = h.user_bound;
    let metric = h.kind.name();
    let (max_err, n) = match h.precision {
        Precision::Single => max_error::<f32>(input, arch_path, archive, h.kind)?,
        Precision::Double => max_error::<f64>(input, arch_path, archive, h.kind)?,
    };
    if max_err <= eb {
        Ok(format!(
            "OK: {n} values, max {metric} error {max_err:.6e} <= bound {eb:.6e}"
        ))
    } else {
        Err(CliError::runtime(format!(
            "BOUND VIOLATED: max {metric} error {max_err:.6e} > bound {eb:.6e}"
        )))
    }
}

/// Decode `archive` and return its maximum `kind` error against the raw
/// values in `input`, with the value count.
fn max_error<F: PfplFloat>(
    input: &str,
    arch_path: &str,
    archive: &[u8],
    kind: BoundKind,
) -> Result<(f64, usize), CliError> {
    let orig = read_values::<F>(input)?;
    let recon: Vec<F> = pfpl::decompress(archive, Mode::Parallel)
        .map_err(|e| CliError::runtime(format!("{arch_path}: {e}")))?;
    if orig.len() != recon.len() {
        return Err(CliError::runtime(format!(
            "length mismatch: input {} vs archive {}",
            orig.len(),
            recon.len()
        )));
    }
    Ok((measure(&orig, &recon, kind), orig.len()))
}

/// `salvage -i <archive> -o <raw floats>`: decode everything that still
/// verifies, fill damaged chunks with `--fill` (default NaN), and write
/// the result regardless. Exits nonzero when anything was damaged, with
/// the per-chunk report on stderr — the rescued output is still on disk.
fn salvage(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let output = o.require("-o").map_err(CliError::usage)?;
    let fill = o.f64_or("--fill", f64::NAN).map_err(CliError::usage)?;
    let mode = o.mode();
    let archive = read_file(input)?;
    let toc = Toc::read(&archive).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    let (bytes, report) = match toc.header.precision {
        Precision::Single => salvage_bytes::<f32>(&archive, mode, fill),
        Precision::Double => salvage_bytes::<f64>(&archive, mode, fill),
    }
    .map_err(|e| CliError::runtime(format!("{input}: unsalvageable: {e}")))?;
    write_file(output, &bytes)?;
    if report.is_clean() {
        Ok(format!(
            "{input} -> {output} | {} values, {}",
            toc.header.count,
            report.summary()
        ))
    } else {
        Err(CliError::runtime(format!(
            "{input}: DAMAGED (salvaged what survived into {output})\n{}",
            report.summary()
        )))
    }
}

/// `pfpl::decompress_salvage` as little-endian output bytes, damaged
/// chunks filled with `fill` rounded to `F`.
fn salvage_bytes<F: PfplFloat>(
    archive: &[u8],
    mode: Mode,
    fill: f64,
) -> pfpl::Result<(Vec<u8>, SalvageReport)> {
    let (vals, report) = pfpl::decompress_salvage(archive, mode, F::from_f64(fill))?;
    Ok((to_le_bytes(&vals), report))
}

/// Deterministic structure-aware fuzzing (see the `pfpl-fuzz` crate):
/// `--mode decode` attacks every decode path with mutants, `--mode
/// salvage` runs the corruption-recovery oracle. Exit status reflects the
/// verdict, so CI can run `pfpl fuzz --seed 42 --iters 2000` directly as
/// a smoke gate.
fn fuzz(o: &Opts) -> Result<String, CliError> {
    let seed = o.u64_or("--seed", 42).map_err(CliError::usage)?;
    let iters = o.u64_or("--iters", 1000).map_err(CliError::usage)?;
    let mode = o.get("--mode").unwrap_or("decode");
    let report = match mode {
        "decode" => pfpl_fuzz::run(seed, iters),
        "salvage" => pfpl_fuzz::run_salvage(seed, iters),
        other => {
            return Err(CliError::usage(format!(
                "unknown --mode `{other}` (decode|salvage)"
            )))
        }
    };
    let summary = format!("fuzz[{mode}] seed {seed}: {}", report.summary());
    if report.is_clean() {
        Ok(summary)
    } else {
        Err(CliError::runtime(format!(
            "{summary}\n{}",
            report
                .failures
                .iter()
                .map(|f| format!("  - {f}"))
                .collect::<Vec<_>>()
                .join("\n")
        )))
    }
}

/// Maximum `kind` error of `recon` against `orig`, computed in f64.
fn measure<F: PfplFloat>(orig: &[F], recon: &[F], kind: BoundKind) -> f64 {
    let pairs = || {
        orig.iter()
            .zip(recon)
            .map(|(a, b)| (a.to_f64(), b.to_f64()))
            .filter(|(a, _)| a.is_finite())
    };
    let mut max = 0.0f64;
    match kind {
        BoundKind::Abs => {
            for (a, b) in pairs() {
                max = max.max((a - b).abs());
            }
        }
        BoundKind::Rel => {
            for (a, b) in pairs().filter(|&(a, _)| a != 0.0) {
                max = max.max(((a - b) / a).abs());
            }
        }
        BoundKind::Noa => {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (a, _) in pairs() {
                lo = lo.min(a);
                hi = hi.max(a);
            }
            let range = hi - lo;
            if range > 0.0 {
                for (a, b) in pairs() {
                    max = max.max((a - b).abs() / range);
                }
            }
        }
    }
    max
}

/// Map the ErrorBound constructor choices (shared with `opts`).
pub(crate) fn make_bound(kind: &str, eb: f64) -> Result<ErrorBound, String> {
    match kind {
        "abs" => Ok(ErrorBound::Abs(eb)),
        "rel" => Ok(ErrorBound::Rel(eb)),
        "noa" => Ok(ErrorBound::Noa(eb)),
        other => Err(format!("unknown bound type `{other}` (abs|rel|noa)")),
    }
}
