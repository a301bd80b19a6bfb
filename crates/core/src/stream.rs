//! Incremental (streaming) compression and decompression.
//!
//! The paper's motivating deployments (§I) compress data *as it is
//! produced* — instruments and simulations emit values continuously, and
//! buffering a whole dataset before compressing defeats the purpose.
//! Because PFPL's chunks are fully independent, the archive can be built
//! incrementally with only one 16 KiB chunk of input state; this module
//! provides that interface.
//!
//! [`StreamCompressor::finish`] produces **byte-identical** output to
//! [`crate::compress()`] for the same concatenated input (tested), so
//! streamed archives interoperate with every other implementation.
//!
//! The encoder is allocation-free in steady state: chunk payloads stream
//! straight onto the growing payload buffer through the shared scratch
//! set, and chunk-aligned pushes bypass the pending buffer entirely —
//! each such push runs the fused four-stage tile kernel
//! ([`chunk::compress_chunk`], §III-E) directly on the caller's slice,
//! from input values to zero-eliminated payload bytes in one pass.
//! `finish` splices header, size table, and payloads with a single copy
//! (the chunk count — and hence the table size — is unknown until then).
//!
//! NOA is not streamable — its derived bound needs the global value range
//! before the first chunk is encoded — and is rejected at construction,
//! matching the paper's observation that only the NOA quantizer needs a
//! pre-pass (§III-E).

use crate::archive::Archive;
use crate::chunk::{self, Scratch};
use crate::compress::{ChunkDecoder, Plan};
use crate::container::{payload_checksum, RAW_FLAG, V2_HEADER_LEN};
use crate::error::Result;
use crate::float::{PfplFloat, Word};
use crate::stats::CompressStats;
use crate::types::ErrorBound;

/// Incremental PFPL encoder: feed values in pushes of any size, collect a
/// standard archive at the end.
pub struct StreamCompressor<F: PfplFloat> {
    plan: Plan<F>,
    pending: Vec<F>,
    sizes: Vec<u32>,
    checksums: Vec<u32>,
    payloads: Vec<u8>,
    scratch: Scratch<F>,
    lossless: u64,
    raw_chunks: u64,
    total: u64,
}

impl<F: PfplFloat> StreamCompressor<F> {
    /// Create a streaming encoder for an ABS or REL bound.
    ///
    /// Returns [`crate::Error::InvalidErrorBound`] for NOA (needs the
    /// global range) or for an unusable bound value.
    pub fn new(bound: ErrorBound) -> Result<Self> {
        Ok(Self {
            plan: Plan::streaming(bound)?,
            pending: Vec::with_capacity(chunk::values_per_chunk::<F>()),
            sizes: Vec::new(),
            checksums: Vec::new(),
            payloads: Vec::new(),
            scratch: Scratch::default(),
            lossless: 0,
            raw_chunks: 0,
            total: 0,
        })
    }

    /// Compress one chunk's worth of values straight onto `payloads`.
    fn compress_vals(&mut self, vals: &[F]) {
        let start = self.payloads.len();
        let (scratch, out) = (&mut self.scratch, &mut self.payloads);
        let info = match &self.plan.quantizer {
            ChunkDecoder::Abs(q) => chunk::compress_chunk(q, vals, scratch, out),
            ChunkDecoder::Rel(q) => chunk::compress_chunk(q, vals, scratch, out),
            ChunkDecoder::Pass(q) => chunk::compress_chunk(q, vals, scratch, out),
        };
        let len = (self.payloads.len() - start) as u32;
        // Digest the payload while it is still cache-hot; the chunk index
        // (= the table position being appended) seeds the checksum.
        self.checksums
            .push(payload_checksum(self.sizes.len(), &self.payloads[start..]));
        self.sizes
            .push(len | if info.raw { RAW_FLAG } else { 0 });
        self.lossless += info.lossless_values;
        self.raw_chunks += info.raw as u64;
    }

    fn flush_chunk(&mut self) {
        debug_assert!(!self.pending.is_empty());
        // mem::take keeps the pending buffer's capacity; no allocation.
        let pending = std::mem::take(&mut self.pending);
        self.compress_vals(&pending);
        self.pending = pending;
        self.pending.clear();
    }

    /// Append values to the stream.
    ///
    /// Full chunks that start at a chunk boundary are compressed directly
    /// from `data` — they never pass through the pending buffer, so large
    /// pushes cost one pipeline pass and zero staging copies.
    pub fn push(&mut self, data: &[F]) {
        let vpc = chunk::values_per_chunk::<F>();
        self.total += data.len() as u64;
        let mut rest = data;
        while !rest.is_empty() {
            if self.pending.is_empty() && rest.len() >= vpc {
                let (head, tail) = rest.split_at(vpc);
                self.compress_vals(head);
                rest = tail;
                continue;
            }
            let take = (vpc - self.pending.len()).min(rest.len());
            self.pending.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.pending.len() == vpc {
                self.flush_chunk();
            }
        }
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Finalize: emit the archive (byte-identical to [`crate::compress()`]
    /// over the same input) and the compression statistics.
    pub fn finish(mut self) -> (Vec<u8>, CompressStats) {
        if !self.pending.is_empty() {
            self.flush_chunk();
        }
        let header = self.plan.header(self.total);
        let mut archive =
            Vec::with_capacity(V2_HEADER_LEN + 8 * self.sizes.len() + self.payloads.len());
        header.write(&self.sizes, &self.checksums, &mut archive);
        archive.extend_from_slice(&self.payloads);
        let stats = CompressStats {
            total_values: self.total,
            lossless_values: self.lossless,
            chunks: self.sizes.len() as u64,
            raw_chunks: self.raw_chunks,
            input_bytes: self.total * (F::Bits::BITS as u64 / 8),
            output_bytes: archive.len() as u64,
        };
        (archive, stats)
    }
}

/// Iterate the chunks of an archive without materializing the whole
/// output — the reader-side streaming counterpart.
///
/// The iterator **resyncs after a bad chunk** rather than aborting: chunk
/// boundaries come from the (validated) size table, not from the payload
/// bytes themselves, so one damaged chunk yields one `Err` item and the
/// next iteration continues at the next chunk's payload. On v2 archives
/// each chunk's checksum is verified before decoding, so damage surfaces
/// as [`crate::Error::ChecksumMismatch`] naming exactly the corrupted chunk; on
/// v1 archives only structural decode errors can flag a chunk. Chunks that
/// decode cleanly are bit-identical to the strict whole-archive decode.
pub fn decompress_chunks<F: PfplFloat>(
    archive: &[u8],
) -> Result<impl Iterator<Item = Result<Vec<F>>> + '_> {
    let ar = Archive::<F>::open(archive)?;
    ar.check_layout()?;
    let mut scratch = Scratch::default();
    Ok((0..ar.chunks()).map(move |i| {
        let c = ar.verified(i)?;
        let mut vals = vec![F::ZERO; ar.chunk_values(i).len()];
        ar.decode(&c, &mut vals, &mut scratch).map(|()| vals)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Toc;
    use crate::error::Error;
    use crate::types::Mode;

    fn signal(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.002).sin() * 9.0).collect()
    }

    #[test]
    fn streamed_archive_is_byte_identical() {
        let data = signal(100_000);
        for bound in [ErrorBound::Abs(1e-3), ErrorBound::Rel(1e-3)] {
            let whole = crate::compress(&data, bound, Mode::Serial).unwrap();
            // Push in awkward sizes.
            let mut enc = StreamCompressor::<f32>::new(bound).unwrap();
            let mut i = 0;
            let mut step = 1;
            while i < data.len() {
                let hi = (i + step).min(data.len());
                enc.push(&data[i..hi]);
                i = hi;
                step = step * 3 % 10_007 + 1;
            }
            let (streamed, stats) = enc.finish();
            assert_eq!(whole, streamed, "{bound:?}");
            assert_eq!(stats.total_values, data.len() as u64);
        }
    }

    #[test]
    fn noa_rejected() {
        assert!(matches!(
            StreamCompressor::<f32>::new(ErrorBound::Noa(1e-3)),
            Err(Error::InvalidErrorBound(_))
        ));
    }

    #[test]
    fn empty_stream() {
        let enc = StreamCompressor::<f64>::new(ErrorBound::Abs(1e-6)).unwrap();
        assert!(enc.is_empty());
        let (archive, stats) = enc.finish();
        assert_eq!(stats.total_values, 0);
        let back: Vec<f64> = crate::decompress(&archive, Mode::Serial).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn chunked_decode_matches_whole() {
        let data = signal(50_000);
        let archive = crate::compress(&data, ErrorBound::Abs(1e-2), Mode::Parallel).unwrap();
        let whole: Vec<f32> = crate::decompress(&archive, Mode::Serial).unwrap();
        let mut streamed = Vec::new();
        for chunk in decompress_chunks::<f32>(&archive).unwrap() {
            streamed.extend(chunk.unwrap());
        }
        assert_eq!(
            whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            streamed.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chunked_decode_resyncs_past_a_damaged_chunk() {
        let data = signal(20_000); // 5 f32 chunks
        let archive = crate::compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        let clean: Vec<f32> = crate::decompress(&archive, Mode::Serial).unwrap();
        let toc = Toc::read(&archive).unwrap();
        let damaged = 2usize;
        let off = toc.payload_start
            + toc.sizes[..damaged]
                .iter()
                .map(|&s| (s & !RAW_FLAG) as usize)
                .sum::<usize>();
        let mut bad = archive.clone();
        bad[off] ^= 0xFF;
        let items: Vec<_> = decompress_chunks::<f32>(&bad).unwrap().collect();
        assert_eq!(items.len(), 5);
        let vpc = chunk::values_per_chunk::<f32>();
        for (i, item) in items.iter().enumerate() {
            if i == damaged {
                assert!(
                    matches!(item, Err(Error::ChecksumMismatch { chunk: 2, .. })),
                    "{item:?}"
                );
            } else {
                let vals = item.as_ref().expect("undamaged chunk must decode");
                let want = &clean[i * vpc..(i * vpc + vals.len())];
                assert!(vals
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn chunked_decode_streams_rel_and_noa_archives() {
        let data = signal(30_000);
        for bound in [ErrorBound::Rel(1e-3), ErrorBound::Noa(1e-3)] {
            let archive = crate::compress(&data, bound, Mode::Serial).unwrap();
            let n: usize = decompress_chunks::<f32>(&archive)
                .unwrap()
                .map(|c| c.unwrap().len())
                .sum();
            assert_eq!(n, data.len());
        }
    }
}
