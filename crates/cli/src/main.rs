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
use pfpl::types::{BoundKind, ErrorBound, Mode, Precision};
use std::process::ExitCode;

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

fn read_values_f32(path: &str) -> Result<Vec<f32>, CliError> {
    let bytes = read_file(path)?;
    if bytes.len() % 4 != 0 {
        return Err(CliError::runtime(format!(
            "{path}: size {} is not a multiple of 4",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn read_values_f64(path: &str) -> Result<Vec<f64>, CliError> {
    let bytes = read_file(path)?;
    if bytes.len() % 8 != 0 {
        return Err(CliError::runtime(format!(
            "{path}: size {} is not a multiple of 8",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
}

fn to_le_bytes_f32(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn to_le_bytes_f64(vals: &[f64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn compress(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let output = o.require("-o").map_err(CliError::usage)?;
    let bound = o.bound().map_err(CliError::usage)?;
    let is_double = o.is_double().map_err(CliError::usage)?;
    let mode = o.mode();
    let start = std::time::Instant::now();
    let (archive, stats) = if is_double {
        let data = read_values_f64(input)?;
        pfpl::compress_with_stats(&data, bound, mode).map_err(|e| CliError::runtime(e.to_string()))?
    } else {
        let data = read_values_f32(input)?;
        pfpl::compress_with_stats(&data, bound, mode).map_err(|e| CliError::runtime(e.to_string()))?
    };
    let secs = start.elapsed().as_secs_f64();
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
    let start = std::time::Instant::now();
    let bytes: Vec<u8> = match header.precision {
        Precision::Single => {
            let vals: Vec<f32> = pfpl::decompress(&archive, mode)
                .map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
            to_le_bytes_f32(&vals)
        }
        Precision::Double => {
            let vals: Vec<f64> = pfpl::decompress(&archive, mode)
                .map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
            to_le_bytes_f64(&vals)
        }
    };
    let secs = start.elapsed().as_secs_f64();
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
    let decode_err = |e: pfpl::Error| CliError::runtime(format!("{arch_path}: {e}"));
    let (max_err, metric, n) = match h.precision {
        Precision::Single => {
            let orig = read_values_f32(input)?;
            let recon: Vec<f32> = pfpl::decompress(archive, Mode::Parallel).map_err(decode_err)?;
            if orig.len() != recon.len() {
                return Err(CliError::runtime(format!(
                    "length mismatch: input {} vs archive {}",
                    orig.len(),
                    recon.len()
                )));
            }
            let orig64: Vec<f64> = orig.iter().map(|&v| v as f64).collect();
            let rec64: Vec<f64> = recon.iter().map(|&v| v as f64).collect();
            (measure(&orig64, &rec64, h.kind), h.kind.name(), orig.len())
        }
        Precision::Double => {
            let orig = read_values_f64(input)?;
            let recon: Vec<f64> = pfpl::decompress(archive, Mode::Parallel).map_err(decode_err)?;
            if orig.len() != recon.len() {
                return Err(CliError::runtime(format!(
                    "length mismatch: input {} vs archive {}",
                    orig.len(),
                    recon.len()
                )));
            }
            (measure(&orig, &recon, h.kind), h.kind.name(), orig.len())
        }
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
    let salvage_err = |e: pfpl::Error| CliError::runtime(format!("{input}: unsalvageable: {e}"));
    let (bytes, report) = match toc.header.precision {
        Precision::Single => {
            let (vals, report) = pfpl::decompress_salvage::<f32>(&archive, mode, fill as f32)
                .map_err(salvage_err)?;
            (to_le_bytes_f32(&vals), report)
        }
        Precision::Double => {
            let (vals, report) =
                pfpl::decompress_salvage::<f64>(&archive, mode, fill).map_err(salvage_err)?;
            (to_le_bytes_f64(&vals), report)
        }
    };
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

fn measure(orig: &[f64], recon: &[f64], kind: BoundKind) -> f64 {
    let mut max = 0.0f64;
    match kind {
        BoundKind::Abs => {
            for (a, b) in orig.iter().zip(recon) {
                if a.is_finite() {
                    max = max.max((a - b).abs());
                }
            }
        }
        BoundKind::Rel => {
            for (a, b) in orig.iter().zip(recon) {
                if a.is_finite() && *a != 0.0 {
                    max = max.max(((a - b) / a).abs());
                }
            }
        }
        BoundKind::Noa => {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &a in orig {
                if a.is_finite() {
                    lo = lo.min(a);
                    hi = hi.max(a);
                }
            }
            let range = hi - lo;
            if range > 0.0 {
                for (a, b) in orig.iter().zip(recon) {
                    if a.is_finite() {
                        max = max.max((a - b).abs() / range);
                    }
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
