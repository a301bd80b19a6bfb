//! Top-level compression and decompression entry points.
//!
//! The serial and parallel paths (and the simulated-GPU path in
//! `pfpl-device-sim`) produce **bit-for-bit identical** archives: chunking
//! makes the work units independent, and every arithmetic operation in the
//! pipeline is IEEE-exact, so only scheduling differs.
//!
//! Archive assembly is single-pass in both modes. Serial compression
//! reserves the header and size table up front, streams chunk payloads
//! directly into the archive, and backpatches the table. Parallel
//! compression gives each worker a disjoint slot in a pre-allocated slab
//! and compacts the slots with one exclusive-prefix-sum pass. Neither mode
//! allocates or copies per-chunk intermediates.
//!
//! Per-chunk work routes through [`chunk::compress_chunk`] /
//! [`chunk::compress_chunk_into`], so every full chunk runs the fused
//! four-stage tile kernel (§III-E) in both modes; only the final partial
//! chunk can take the staged fallback. Decompression inherits the fused
//! decode the same way via [`chunk::decompress_chunk`].

use crate::archive::Archive;
use crate::chunk::{self, Scratch, CHUNK_BYTES};
use crate::container::{patch_tables, payload_checksum, Header, RAW_FLAG, V2_HEADER_LEN};
use crate::error::{Error, Result};
use crate::float::{bound_toward_zero, PfplFloat, Word};
use crate::quantize::{
    derive_noa_bound, AbsQuantizer, NoaBound, PassthroughQuantizer, Quantizer, RelQuantizer,
};
use crate::stats::CompressStats;
use crate::types::{BoundKind, ErrorBound, Mode};
use rayon::prelude::*;

/// Everything an encoder settles before its first chunk: the validated
/// bound, the quantizer it selects (NOA's derived from the data's range)
/// and the header fields that record it. Every encoder — one-shot
/// serial/parallel, [`crate::StreamCompressor`] and the device simulator —
/// builds one, so none can disagree with another on a header byte.
pub struct Plan<F: PfplFloat> {
    /// The quantizer every chunk is encoded with: the same enum a decoder
    /// rebuilds from the header.
    pub quantizer: ChunkDecoder<F>,
    header: Header,
}

impl<F: PfplFloat> Plan<F> {
    /// Plan a one-shot compression of `data` under `bound`.
    pub fn new(data: &[F], bound: ErrorBound) -> Result<Self> {
        let plan = Self::build(bound, |eb| Ok(derive_noa_bound(data, eb)))?;
        let nchunks = data.len().div_ceil(chunk::values_per_chunk::<F>());
        if nchunks > (RAW_FLAG - 1) as usize {
            return Err(Error::Corrupt(format!(
                "input too large: {nchunks} chunks exceed the 31-bit chunk counter"
            )));
        }
        Ok(plan)
    }

    /// Plan a streaming compression. NOA is rejected: its derived bound
    /// needs the global value range before the first chunk is encoded.
    pub(crate) fn streaming(bound: ErrorBound) -> Result<Self> {
        Self::build(bound, |_| {
            Err(Error::InvalidErrorBound(
                "NOA requires the global value range and cannot be streamed; \
                 use pfpl::compress, or derive an ABS bound yourself"
                    .into(),
            ))
        })
    }

    fn build(bound: ErrorBound, noa: impl FnOnce(F) -> Result<NoaBound<F>>) -> Result<Self> {
        let eb = bound.value();
        if !(eb > 0.0) || !eb.is_finite() {
            return Err(Error::InvalidErrorBound(format!(
                "bound must be finite and > 0; got {eb}"
            )));
        }
        let eb_f: F = bound_toward_zero(eb);
        let (quantizer, derived) = match bound.kind() {
            BoundKind::Abs => (ChunkDecoder::Abs(AbsQuantizer::new(eb_f)?), eb_f),
            BoundKind::Rel => (ChunkDecoder::Rel(RelQuantizer::new(eb_f)?), eb_f),
            BoundKind::Noa => match noa(eb_f)? {
                NoaBound::Abs(abs_eb) => (ChunkDecoder::Abs(AbsQuantizer::new(abs_eb)?), abs_eb),
                NoaBound::Passthrough => (ChunkDecoder::Pass(PassthroughQuantizer), F::ZERO),
            },
        };
        let header = Header {
            precision: F::PRECISION,
            kind: bound.kind(),
            passthrough: matches!(quantizer, ChunkDecoder::Pass(_)),
            user_bound: eb,
            derived_bound: derived.to_f64(),
            count: 0,
            chunk_count: 0,
        };
        Ok(Self { quantizer, header })
    }

    /// The archive header for `count` values.
    pub fn header(&self, count: u64) -> Header {
        let vpc = chunk::values_per_chunk::<F>() as u64;
        Header {
            count,
            chunk_count: count.div_ceil(vpc) as u32,
            ..self.header
        }
    }
}

/// Compress a slice of values under the given error bound.
///
/// See [`ErrorBound`] for the three bound types and [`Mode`] for the
/// execution policy. The returned archive decompresses on any PFPL
/// implementation (serial, parallel, simulated GPU) to identical bytes.
pub fn compress<F: PfplFloat>(data: &[F], bound: ErrorBound, mode: Mode) -> Result<Vec<u8>> {
    compress_with_stats(data, bound, mode).map(|(a, _)| a)
}

/// [`compress`] plus per-run statistics (lossless-fallback counts, raw
/// chunks, sizes).
pub fn compress_with_stats<F: PfplFloat>(
    data: &[F],
    bound: ErrorBound,
    mode: Mode,
) -> Result<(Vec<u8>, CompressStats)> {
    let plan = Plan::new(data, bound)?;
    let header = plan.header(data.len() as u64);
    Ok(match &plan.quantizer {
        ChunkDecoder::Abs(q) => run_compress(data, q, &header, mode),
        ChunkDecoder::Rel(q) => run_compress(data, q, &header, mode),
        ChunkDecoder::Pass(q) => run_compress(data, q, &header, mode),
    })
}

fn run_compress<F: PfplFloat, Q: Quantizer<F>>(
    data: &[F],
    q: &Q,
    header: &Header,
    mode: Mode,
) -> (Vec<u8>, CompressStats) {
    let vpc = chunk::values_per_chunk::<F>();
    let nchunks = header.chunk_count as usize;
    let mut lossless = 0u64;
    let mut raw_chunks = 0u64;
    let archive = match mode {
        Mode::Serial => {
            // Single-pass assembly: reserve header + size table up front
            // (worst-case payload capacity so the Vec never reallocates),
            // stream each chunk's payload straight into the archive, then
            // backpatch the size table. One scratch set is reused for every
            // chunk, mirroring the paper's L1-resident double buffer — no
            // per-chunk buffer, no second copy, no per-chunk allocation.
            let raw_total = data.len() * (F::Bits::BITS as usize / 8);
            let mut archive = Vec::with_capacity(V2_HEADER_LEN + 8 * nchunks + raw_total);
            header.write_placeholder(&mut archive);
            let mut sizes = vec![0u32; nchunks];
            let mut checksums = vec![0u32; nchunks];
            let mut scratch = Scratch::default();
            for (i, c) in data.chunks(vpc).enumerate() {
                let start = archive.len();
                let info = chunk::compress_chunk(q, c, &mut scratch, &mut archive);
                let mut s = (archive.len() - start) as u32;
                if info.raw {
                    s |= RAW_FLAG;
                    raw_chunks += 1;
                }
                sizes[i] = s;
                checksums[i] = payload_checksum(i, &archive[start..]);
                lossless += info.lossless_values;
            }
            patch_tables(&mut archive, &sizes, &checksums);
            archive
        }
        Mode::Parallel => {
            // Slab assembly: one CHUNK_BYTES slot per chunk (payloads never
            // exceed the raw size, so every payload fits its slot). Workers
            // compress into disjoint slots via par_chunks_mut — no per-chunk
            // buffers — then a sequential exclusive-prefix-sum pass compacts
            // the slots into the final archive.
            let mut slab = vec![0u8; nchunks * CHUNK_BYTES];
            // Each worker also digests its own payload while it is still
            // hot in cache — the checksum rides along with the compression
            // pass instead of costing a second sweep over the slab.
            let metas: Vec<(usize, chunk::ChunkInfo, u32)> = slab
                .par_chunks_mut(CHUNK_BYTES)
                .enumerate()
                .map_init(Scratch::default, |scratch, (i, slot)| {
                    let lo = i * vpc;
                    let hi = data.len().min(lo + vpc);
                    let (len, info) = chunk::compress_chunk_into(q, &data[lo..hi], scratch, slot);
                    let digest = payload_checksum(i, &slot[..len]);
                    (len, info, digest)
                })
                .collect();
            let mut sizes = Vec::with_capacity(nchunks);
            let mut checksums = Vec::with_capacity(nchunks);
            let mut payload_len = 0usize;
            for (len, info, digest) in &metas {
                let mut s = *len as u32;
                if info.raw {
                    s |= RAW_FLAG;
                    raw_chunks += 1;
                }
                sizes.push(s);
                checksums.push(*digest);
                lossless += info.lossless_values;
                payload_len += len;
            }
            let mut archive = Vec::with_capacity(V2_HEADER_LEN + 8 * nchunks + payload_len);
            header.write(&sizes, &checksums, &mut archive);
            for (i, (len, _, _)) in metas.iter().enumerate() {
                archive.extend_from_slice(&slab[i * CHUNK_BYTES..i * CHUNK_BYTES + len]);
            }
            archive
        }
    };

    let stats = CompressStats {
        total_values: data.len() as u64,
        lossless_values: lossless,
        chunks: nchunks as u64,
        raw_chunks,
        input_bytes: (data.len() * (F::Bits::BITS as usize / 8)) as u64,
        output_bytes: archive.len() as u64,
    };
    (archive, stats)
}

/// The quantizer an archive's chunks are coded with. Encoders get it from
/// their [`Plan`]; decoders rebuild it from the header once, in
/// [`Archive::open`], so a chunk decodes to identical bits no matter which
/// driver asked.
pub enum ChunkDecoder<F: PfplFloat> {
    /// ABS/NOA archives decode through the absolute quantizer.
    Abs(AbsQuantizer<F>),
    /// REL archives decode through the relative quantizer.
    Rel(RelQuantizer<F>),
    /// NOA-degenerate (zero-range) archives are lossless passthrough.
    Pass(PassthroughQuantizer),
}

impl<F: PfplFloat> ChunkDecoder<F> {
    /// Build the quantizer the encoder used; `derived_bound` is exactly
    /// representable in `F` by construction. The caller must already have
    /// checked `header.precision == F::PRECISION`.
    pub fn from_header(header: &Header) -> Result<Self> {
        let derived = F::from_f64(header.derived_bound);
        Ok(if header.passthrough {
            ChunkDecoder::Pass(PassthroughQuantizer)
        } else {
            match header.kind {
                BoundKind::Abs | BoundKind::Noa => ChunkDecoder::Abs(AbsQuantizer::new(derived)?),
                BoundKind::Rel => ChunkDecoder::Rel(RelQuantizer::new(derived)?),
            }
        })
    }

    /// Decode one chunk payload into `vals` (fused kernel on full chunks,
    /// staged fallback on partials). Errors are payload-relative; rebase
    /// with [`Error::in_chunk`].
    pub fn decode_chunk(
        &self,
        payload: &[u8],
        raw: bool,
        vals: &mut [F],
        scratch: &mut Scratch<F>,
    ) -> Result<()> {
        match self {
            ChunkDecoder::Abs(q) => chunk::decompress_chunk(q, payload, raw, vals, scratch),
            ChunkDecoder::Rel(q) => chunk::decompress_chunk(q, payload, raw, vals, scratch),
            ChunkDecoder::Pass(q) => chunk::decompress_chunk(q, payload, raw, vals, scratch),
        }
    }

    /// The quantizer as a trait object, for decode kernels outside this
    /// crate (the device simulator's block decoder).
    pub fn quantizer(&self) -> &dyn Quantizer<F> {
        match self {
            ChunkDecoder::Abs(q) => q,
            ChunkDecoder::Rel(q) => q,
            ChunkDecoder::Pass(q) => q,
        }
    }
}

/// Decompress an archive produced by [`compress`] (any implementation).
///
/// On v2 archives every chunk's stored checksum is verified against its
/// payload bytes *before* the chunk is decoded, so storage or transport
/// corruption surfaces as [`Error::ChecksumMismatch`] naming the damaged
/// chunk — not as a structural error in whatever stage the damaged bits
/// happened to confuse. v1 archives carry no checksums; for them this is
/// identical to [`decompress_unverified`].
pub fn decompress<F: PfplFloat>(archive: &[u8], mode: Mode) -> Result<Vec<F>> {
    run_decompress(archive, mode, true)
}

/// [`decompress`] without per-chunk checksum verification.
///
/// For archives already protected end-to-end by the storage layer (or for
/// measuring the checksum tax — see `profile_stages`). Decoding is still
/// total over arbitrary bytes; what is lost is only the guarantee that a
/// structural error names the chunk whose bytes were actually damaged.
pub fn decompress_unverified<F: PfplFloat>(archive: &[u8], mode: Mode) -> Result<Vec<F>> {
    run_decompress(archive, mode, false)
}

fn run_decompress<F: PfplFloat>(archive: &[u8], mode: Mode, verify: bool) -> Result<Vec<F>> {
    let mut ar = Archive::<F>::open(archive)?;
    ar.check_layout()?;
    if !verify {
        ar = ar.without_checksums();
    }
    let mut out = vec![F::ZERO; ar.count()];
    ar.for_each_chunk(&mut out, mode, |i, vals, scratch| {
        ar.decode(&ar.verified(i)?, vals, scratch)
    })
    .into_iter()
    .collect::<Result<()>>()?;
    Ok(out)
}

/// Compress single-precision data. See [`compress`].
pub fn compress_f32(data: &[f32], bound: ErrorBound, mode: Mode) -> Result<Vec<u8>> {
    compress(data, bound, mode)
}

/// Compress double-precision data. See [`compress`].
pub fn compress_f64(data: &[f64], bound: ErrorBound, mode: Mode) -> Result<Vec<u8>> {
    compress(data, bound, mode)
}

/// Decompress single-precision data. See [`decompress`].
pub fn decompress_f32(archive: &[u8], mode: Mode) -> Result<Vec<f32>> {
    decompress(archive, mode)
}

/// Decompress double-precision data. See [`decompress`].
pub fn decompress_f64(archive: &[u8], mode: Mode) -> Result<Vec<f64>> {
    decompress(archive, mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_f32(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.0021).sin() * 40.0 + (i as f32 * 0.00013).cos() * 7.0)
            .collect()
    }

    #[test]
    fn abs_roundtrip_within_bound() {
        let data = smooth_f32(100_000);
        for &eb in &[1e-1f64, 1e-2, 1e-3, 1e-4] {
            let arch = compress(&data, ErrorBound::Abs(eb), Mode::Serial).unwrap();
            let back: Vec<f32> = decompress(&arch, Mode::Serial).unwrap();
            assert_eq!(back.len(), data.len());
            for (a, b) in data.iter().zip(&back) {
                assert!((*a as f64 - *b as f64).abs() <= eb);
            }
            assert!(arch.len() < data.len() * 4, "must compress at eb={eb}");
        }
    }

    #[test]
    fn serial_parallel_identical() {
        let data = smooth_f32(300_000);
        for bound in [
            ErrorBound::Abs(1e-3),
            ErrorBound::Rel(1e-3),
            ErrorBound::Noa(1e-3),
        ] {
            let a = compress(&data, bound, Mode::Serial).unwrap();
            let b = compress(&data, bound, Mode::Parallel).unwrap();
            assert_eq!(a, b, "modes must agree for {bound:?}");
            let da: Vec<f32> = decompress(&a, Mode::Serial).unwrap();
            let db: Vec<f32> = decompress(&b, Mode::Parallel).unwrap();
            assert_eq!(
                da.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                db.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn rel_roundtrip_within_bound() {
        let data: Vec<f64> = (0..50_000)
            .map(|i| ((i as f64 * 0.001).sin() + 1.5) * 10f64.powi((i % 7) - 3))
            .collect();
        let eb = 1e-3;
        let arch = compress(&data, ErrorBound::Rel(eb), Mode::Parallel).unwrap();
        let back: Vec<f64> = decompress(&arch, Mode::Parallel).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!(((a - b) / a).abs() <= eb, "a={a} b={b}");
        }
    }

    #[test]
    fn noa_roundtrip_within_bound() {
        let data = smooth_f32(80_000);
        let (lo, hi) = data
            .iter()
            .fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let range = (hi - lo) as f64;
        let eb = 1e-3;
        let arch = compress(&data, ErrorBound::Noa(eb), Mode::Serial).unwrap();
        let back: Vec<f32> = decompress(&arch, Mode::Serial).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((*a as f64 - *b as f64).abs() <= eb * range * (1.0 + 1e-6));
        }
    }

    #[test]
    fn noa_constant_input_passthrough() {
        let data = vec![42.5f32; 10_000];
        let arch = compress(&data, ErrorBound::Noa(1e-2), Mode::Serial).unwrap();
        let back: Vec<f32> = decompress(&arch, Mode::Serial).unwrap();
        assert!(back.iter().all(|&v| v == 42.5));
        // Constant data compresses extremely well even in passthrough.
        assert!(arch.len() < data.len(), "archive {} bytes", arch.len());
    }

    #[test]
    fn empty_input() {
        let arch = compress::<f32>(&[], ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        let back: Vec<f32> = decompress(&arch, Mode::Parallel).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn precision_mismatch_detected() {
        let arch = compress(&[1.0f32, 2.0], ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        assert!(matches!(
            decompress::<f64>(&arch, Mode::Serial),
            Err(Error::PrecisionMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_archives_rejected_not_panicking() {
        let data = smooth_f32(10_000);
        let arch = compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        // Truncations at various points must error, never panic.
        for cut in [0, 10, 35, 36, 40, arch.len() / 2, arch.len() - 1] {
            let _ = decompress::<f32>(&arch[..cut], Mode::Serial);
        }
        // Flip bytes in the size table region (v2 tables start at 40).
        let mut bad = arch.clone();
        bad[41] ^= 0xFF;
        let _ = decompress::<f32>(&bad, Mode::Serial);
    }

    #[test]
    fn stats_are_consistent() {
        let mut data = smooth_f32(50_000);
        data[123] = f32::NAN;
        data[456] = f32::INFINITY;
        let (arch, stats) =
            compress_with_stats(&data, ErrorBound::Abs(1e-3), Mode::Parallel).unwrap();
        assert_eq!(stats.total_values, 50_000);
        assert!(stats.lossless_values >= 2);
        assert_eq!(stats.output_bytes as usize, arch.len());
        assert_eq!(stats.input_bytes, 200_000);
        assert!(stats.ratio() > 1.0);
    }

    #[test]
    fn special_values_survive() {
        let mut data = smooth_f32(5_000);
        data[0] = f32::NAN;
        data[1] = f32::NEG_INFINITY;
        data[2] = f32::INFINITY;
        data[3] = -0.0;
        data[4] = f32::from_bits(0x0000_0001); // denormal
        let arch = compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        let back: Vec<f32> = decompress(&arch, Mode::Serial).unwrap();
        assert!(back[0].is_nan());
        assert_eq!(back[1], f32::NEG_INFINITY);
        assert_eq!(back[2], f32::INFINITY);
        assert!((back[3]).abs() <= 1e-3);
        assert!((back[4] as f64 - data[4] as f64).abs() <= 1e-3);
    }

    #[test]
    fn f64_all_bounds_roundtrip() {
        let data: Vec<f64> = (0..30_000).map(|i| (i as f64 * 0.01).cos() * 100.0).collect();
        for bound in [
            ErrorBound::Abs(1e-6),
            ErrorBound::Rel(1e-6),
            ErrorBound::Noa(1e-6),
        ] {
            let arch = compress(&data, bound, Mode::Parallel).unwrap();
            let back: Vec<f64> = decompress(&arch, Mode::Parallel).unwrap();
            assert_eq!(back.len(), data.len());
            match bound {
                ErrorBound::Abs(eb) => {
                    for (a, b) in data.iter().zip(&back) {
                        assert!((a - b).abs() <= eb);
                    }
                }
                ErrorBound::Rel(eb) => {
                    for (a, b) in data.iter().zip(&back) {
                        assert!(((a - b) / a).abs() <= eb || a == b);
                    }
                }
                ErrorBound::Noa(eb) => {
                    let span = 200.0; // cos * 100 → range 200
                    for (a, b) in data.iter().zip(&back) {
                        assert!((a - b).abs() <= eb * span * 1.01);
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_bounds_error() {
        let data = [1.0f32];
        for b in [
            ErrorBound::Abs(0.0),
            ErrorBound::Abs(-1.0),
            ErrorBound::Abs(f64::NAN),
            ErrorBound::Abs(f64::INFINITY),
            ErrorBound::Rel(0.0),
            ErrorBound::Noa(-0.5),
        ] {
            assert!(compress(&data, b, Mode::Serial).is_err(), "{b:?}");
        }
    }
}
