//! The archive reader view: one parse, one verdict per chunk.
//!
//! PFPL chunks are independent and are found by prefix-summing the stored
//! size table (§III-E), so every decoder needs the same things before it
//! touches a payload: a validated table of contents ([`Toc::read`]), the
//! precision check, the quantizer the header names, and each chunk's
//! extent and checksum verdict. [`Archive::open`] does all of that once.
//! Strict decode, salvage, verification, the chunk iterator, the device
//! simulator and the fuzz harness are loops over this view that differ
//! only in what they do with a damaged chunk:
//!
//! * fail-fast drivers call [`Archive::check_layout`] and then
//!   [`Archive::verified`], which turns a damaged chunk into the
//!   structured [`Error`] naming it;
//! * salvage and verify take [`Archive::chunk`]'s [`ChunkStatus`] verdict
//!   as the chunk's report entry and carry on.

use crate::chunk::{self, Scratch};
use crate::compress::ChunkDecoder;
use crate::container::{chunk_offsets, payload_checksum, Toc, RAW_FLAG};
use crate::error::{Error, Result};
use crate::float::PfplFloat;
use crate::salvage::ChunkStatus;
use crate::types::Mode;
use rayon::prelude::*;
use std::ops::Range;

/// A parsed archive whose header has been verified and whose precision is
/// `F`.
pub struct Archive<'a, F: PfplFloat> {
    toc: Toc,
    payload: &'a [u8],
    decoder: ChunkDecoder<F>,
    /// Payload-relative `(start, claimed)` per chunk. Lenient: `start` is
    /// clamped to the payload length, so a truncated payload region leaves
    /// later chunks short or empty instead of failing the whole archive.
    extents: Vec<(usize, usize)>,
}

/// One chunk whose payload is present and, on v2, matches its checksum;
/// only [`Archive::chunk`] makes one.
#[derive(Debug, Clone, Copy)]
pub struct ChunkRef<'a> {
    index: usize,
    /// Archive-absolute byte offset of the payload.
    offset: usize,
    payload: &'a [u8],
    raw: bool,
}

impl ChunkRef<'_> {
    /// Run a decode kernel on this chunk's payload and rebase its
    /// payload-relative error onto the chunk ([`Error::in_chunk`]).
    pub fn decode_with(&self, kernel: impl FnOnce(&[u8], bool) -> Result<()>) -> Result<()> {
        kernel(self.payload, self.raw).map_err(|e| e.in_chunk(self.index, self.offset))
    }
}

impl<'a, F: PfplFloat> Archive<'a, F> {
    /// Parse `bytes` ([`Toc::read`], the trust boundary), check that it
    /// holds `F` values ([`Error::PrecisionMismatch`]), rebuild the
    /// quantizer its header names, and lay out every chunk's extent.
    ///
    /// Succeeds on archives whose payload region is damaged or truncated;
    /// those surface per chunk, or through [`Archive::check_layout`].
    pub fn open(bytes: &'a [u8]) -> Result<Self> {
        let toc = Toc::read(bytes)?;
        if toc.header.precision != F::PRECISION {
            return Err(Error::PrecisionMismatch {
                archive: toc.header.precision,
                requested: F::PRECISION,
            });
        }
        let decoder = ChunkDecoder::from_header(&toc.header)?;
        let payload = &bytes[toc.payload_start..];
        let mut acc = 0u64;
        let extents = toc
            .sizes
            .iter()
            .map(|&s| {
                let claimed = (s & !RAW_FLAG) as usize;
                let start = acc.min(payload.len() as u64) as usize;
                acc = acc.saturating_add(claimed as u64);
                (start, claimed)
            })
            .collect();
        Ok(Self {
            toc,
            payload,
            decoder,
            extents,
        })
    }

    /// Skip per-chunk checksum verification, as for a v1 archive.
    pub(crate) fn without_checksums(mut self) -> Self {
        self.toc.checksums.clear();
        self
    }

    /// The archive's table of contents.
    pub fn toc(&self) -> &Toc {
        &self.toc
    }

    /// The quantizer the header names.
    pub fn decoder(&self) -> &ChunkDecoder<F> {
        &self.decoder
    }

    /// Number of values the archive holds.
    pub fn count(&self) -> usize {
        // `Toc::read` matched count against the physically present
        // tables, so this is capped by the archive's real length.
        self.toc.header.count as usize
    }

    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.extents.len()
    }

    /// The output range chunk `i` decodes into.
    pub fn chunk_values(&self, i: usize) -> Range<usize> {
        let vpc = chunk::values_per_chunk::<F>();
        i * vpc..self.count().min((i + 1) * vpc)
    }

    /// Archive-absolute offset where the size table places chunk `i` (it
    /// may lie at the end of a truncated archive).
    pub fn offset(&self, i: usize) -> usize {
        self.toc.payload_start + self.extents[i].0
    }

    /// Payload length the size table claims for chunk `i`.
    pub fn claimed(&self, i: usize) -> usize {
        self.extents[i].1
    }

    /// The strict layout check for fail-fast drivers: the size table's
    /// prefix sum must not overflow and must claim exactly the payload
    /// bytes present ([`chunk_offsets`]'s errors).
    pub fn check_layout(&self) -> Result<()> {
        chunk_offsets(&self.toc.sizes, self.payload.len(), self.toc.payload_start).map(drop)
    }

    /// Chunk `i`'s payload, or the verdict that it cannot be decoded:
    /// [`ChunkStatus::Truncated`] when the archive ends inside it, or
    /// [`ChunkStatus::ChecksumMismatch`] when its v2 checksum disagrees.
    pub fn chunk(&self, i: usize) -> std::result::Result<ChunkRef<'a>, ChunkStatus> {
        let (start, claimed) = self.extents[i];
        let have = (self.payload.len() - start).min(claimed);
        if have < claimed {
            return Err(ChunkStatus::Truncated { claimed, have });
        }
        let payload = &self.payload[start..start + claimed];
        if let Some(stored) = self.toc.chunk_checksum(i) {
            let computed = payload_checksum(i, payload);
            if computed != stored {
                return Err(ChunkStatus::ChecksumMismatch { stored, computed });
            }
        }
        Ok(ChunkRef {
            index: i,
            offset: self.offset(i),
            payload,
            raw: self.toc.sizes[i] & RAW_FLAG != 0,
        })
    }

    /// [`Archive::chunk`] for fail-fast drivers: the verdict becomes the
    /// structured error naming the chunk. (Truncation cannot reach it once
    /// [`Archive::check_layout`] has passed.)
    pub fn verified(&self, i: usize) -> Result<ChunkRef<'a>> {
        self.chunk(i).map_err(|status| match status {
            ChunkStatus::ChecksumMismatch { stored, computed } => Error::ChecksumMismatch {
                chunk: i,
                offset: self.offset(i),
                stored,
                computed,
            },
            status => Error::Corrupt(format!("chunk {i}: {status}")),
        })
    }

    /// Decode a chunk into `vals` with the header's quantizer (fused
    /// kernel on full chunks, staged on partials); errors name the chunk.
    pub fn decode(&self, c: &ChunkRef<'_>, vals: &mut [F], scratch: &mut Scratch<F>) -> Result<()> {
        c.decode_with(|p, raw| self.decoder.decode_chunk(p, raw, vals, scratch))
    }

    /// The chunk loop shared by every CPU driver: split `out` into
    /// per-chunk slices and run `work(i, vals, scratch)` on each, in order
    /// on this thread ([`Mode::Serial`]) or on the pool with one scratch
    /// set per worker ([`Mode::Parallel`]). Results come back in chunk
    /// order either way.
    pub fn for_each_chunk<R: Send>(
        &self,
        out: &mut [F],
        mode: Mode,
        work: impl Fn(usize, &mut [F], &mut Scratch<F>) -> R + Sync + Send,
    ) -> Vec<R> {
        let vpc = chunk::values_per_chunk::<F>();
        match mode {
            Mode::Serial => {
                let mut scratch = Scratch::default();
                out.chunks_mut(vpc)
                    .enumerate()
                    .map(|(i, vals)| work(i, vals, &mut scratch))
                    .collect()
            }
            Mode::Parallel => out
                .par_chunks_mut(vpc)
                .enumerate()
                .map_init(Scratch::default, |scratch, (i, vals)| {
                    work(i, vals, scratch)
                })
                .collect(),
        }
    }
}
