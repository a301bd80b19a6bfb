//! Fault-isolated salvage decoding.
//!
//! Strict decompression is all-or-nothing: one damaged bit anywhere fails
//! the whole archive. But PFPL chunks are fully independent (§III — the
//! property that makes the format chunk-parallel), so damage is physically
//! confined to the 16 KiB chunk holding it. This module exploits that:
//! [`decompress_salvage`] verifies and decodes every chunk *independently*,
//! returns the caller-chosen fill value for damaged chunks, and reports
//! per-chunk what happened — turning a bit-rotted archive from a total
//! loss into a bounded hole.
//!
//! Guarantees (enforced by `tests/salvage.rs`, the corruption matrix, and
//! the fuzz recovery oracle):
//!
//! * every intact chunk decodes **bit-identically** to the strict path, on
//!   the serial, parallel, and device-sim backends alike;
//! * a damaged chunk is **flagged, never silently wrong**: its output
//!   range holds exactly the fill value, and its report entry says why
//!   ([`ChunkStatus::ChecksumMismatch`] on v2; structural
//!   [`ChunkStatus::PayloadError`] / [`ChunkStatus::Truncated`] on both
//!   versions);
//! * the only unsalvageable failures are a damaged *header* (nothing can
//!   be trusted without it — [`Archive::open`] is still the gate) and a
//!   precision mismatch.
//!
//! v1 archives carry no checksums, so v1 salvage is best-effort: only
//! structurally-invalid payloads are caught. v2's per-chunk checksums
//! close that gap — any byte damage is detected before decoding.

use crate::archive::{Archive, ChunkRef};
use crate::chunk::{self, Scratch};
use crate::error::Result;
use crate::float::PfplFloat;
use crate::types::Mode;
use std::fmt;

/// Outcome of salvaging one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkStatus {
    /// The chunk verified (v2) and decoded; its values are bit-identical
    /// to a strict decode.
    Ok,
    /// The stored v2 checksum disagrees with the payload bytes: the chunk
    /// was damaged in storage or transit. Output range holds the fill.
    ChecksumMismatch {
        /// Checksum stored in the archive's checksum table.
        stored: u32,
        /// Checksum computed over the payload bytes present.
        computed: u32,
    },
    /// The archive ends (or a preceding chunk's claimed extent runs out)
    /// before this chunk's payload: `have` of the `claimed` bytes are
    /// present. Output range holds the fill.
    Truncated {
        /// Payload bytes the size table claims for this chunk.
        claimed: usize,
        /// Payload bytes physically present.
        have: usize,
    },
    /// The payload bytes are structurally invalid (the checksum matched on
    /// v2 — so on v2 this indicates an encoder bug or a forged archive
    /// rather than bit-rot; on v1 it is the only damage signal there is).
    /// Output range holds the fill.
    PayloadError {
        /// Human-readable decode error, with archive-absolute offsets.
        detail: String,
    },
}

impl ChunkStatus {
    /// True for [`ChunkStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ChunkStatus::Ok)
    }
}

impl fmt::Display for ChunkStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkStatus::Ok => write!(f, "ok"),
            ChunkStatus::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            ChunkStatus::Truncated { claimed, have } => {
                write!(f, "truncated ({have} of {claimed} payload bytes present)")
            }
            ChunkStatus::PayloadError { detail } => write!(f, "payload error: {detail}"),
        }
    }
}

/// Per-chunk salvage outcome with its archive coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkReport {
    /// Chunk index.
    pub chunk: usize,
    /// Archive-absolute byte offset where the size table places this
    /// chunk's payload (it may lie past the end of a truncated archive).
    pub offset: usize,
    /// Payload length the size table claims (raw flag stripped).
    pub len: usize,
    /// Number of values this chunk covers in the output.
    pub values: usize,
    /// What happened to it.
    pub status: ChunkStatus,
}

/// Result of a whole-archive salvage or verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Container version of the archive (1 = no checksums, best-effort).
    pub version: u16,
    /// One entry per chunk, in chunk order.
    pub chunks: Vec<ChunkReport>,
}

impl SalvageReport {
    /// Number of damaged (non-`Ok`) chunks.
    pub fn damaged(&self) -> usize {
        self.chunks.iter().filter(|c| !c.status.is_ok()).count()
    }

    /// True when every chunk salvaged cleanly.
    pub fn is_clean(&self) -> bool {
        self.damaged() == 0
    }

    /// Multi-line human-readable report: one line per damaged chunk plus a
    /// summary line (what `pfpl verify` / `pfpl salvage` print).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for c in self.chunks.iter().filter(|c| !c.status.is_ok()) {
            out.push_str(&format!(
                "chunk {:>6} @ byte {:>10} ({} bytes, {} values): {}\n",
                c.chunk, c.offset, c.len, c.values, c.status
            ));
        }
        let total = self.chunks.len();
        let bad = self.damaged();
        let lost: usize = self
            .chunks
            .iter()
            .filter(|c| !c.status.is_ok())
            .map(|c| c.values)
            .sum();
        out.push_str(&format!(
            "{}/{} chunks intact, {} damaged ({} values lost){}",
            total - bad,
            total,
            bad,
            lost,
            if self.version < 2 {
                " [v1 archive: no checksums, structural checks only]"
            } else {
                ""
            }
        ));
        out
    }
}

impl<'a, F: PfplFloat> Archive<'a, F> {
    /// Salvage one chunk: [`Archive::chunk`]'s verdict, then `decode` on a
    /// chunk that passed it. Infallible — failures land in the returned
    /// report. Shared with the device simulator's salvage kernel so every
    /// backend reports a damaged archive identically.
    pub fn salvage_chunk(
        &self,
        i: usize,
        decode: impl FnOnce(ChunkRef<'a>) -> Result<()>,
    ) -> ChunkReport {
        let status = match self.chunk(i) {
            Ok(c) => match decode(c) {
                Ok(()) => ChunkStatus::Ok,
                Err(e) => ChunkStatus::PayloadError {
                    detail: e.to_string(),
                },
            },
            Err(status) => status,
        };
        ChunkReport {
            chunk: i,
            offset: self.offset(i),
            len: self.claimed(i),
            values: self.chunk_values(i).len(),
            status,
        }
    }
}

/// Decompress as much of a (possibly damaged) archive as can be trusted.
///
/// Every chunk is verified and decoded independently: intact chunks come
/// back bit-identical to [`crate::decompress`], damaged chunks come back
/// as `fill` and are flagged in the report. The output always has the
/// header-claimed length.
///
/// Errors only when nothing at all can be salvaged: the header fails to
/// parse or verify, or the archive's precision is not `F`
/// ([`Archive::open`] — without a trusted header there is no precision, no
/// count, and no table).
pub fn decompress_salvage<F: PfplFloat>(
    archive: &[u8],
    mode: Mode,
    fill: F,
) -> Result<(Vec<F>, SalvageReport)> {
    let ar = Archive::<F>::open(archive)?;
    let mut out = vec![fill; ar.count()];
    let chunks = ar.for_each_chunk(&mut out, mode, |i, vals, scratch| {
        let report = ar.salvage_chunk(i, |c| ar.decode(&c, vals, scratch));
        if !report.status.is_ok() {
            vals.fill(fill);
        }
        report
    });
    Ok((
        out,
        SalvageReport {
            version: ar.toc().version,
            chunks,
        },
    ))
}

/// Archive-only integrity check: verify the header, every chunk checksum
/// (v2), and every chunk's structural decodability, without materializing
/// the output. This is what `pfpl verify -a` runs — it needs no raw input
/// and no knowledge of the original data.
///
/// Errors under exactly the same conditions as [`decompress_salvage`]
/// (unparseable header); otherwise the report lists per-chunk damage.
pub fn verify_archive<F: PfplFloat>(archive: &[u8]) -> Result<SalvageReport> {
    let ar = Archive::<F>::open(archive)?;
    let mut scratch = Scratch::default();
    let mut vals = vec![F::ZERO; chunk::values_per_chunk::<F>()];
    let chunks = (0..ar.chunks())
        .map(|i| {
            let n = ar.chunk_values(i).len();
            ar.salvage_chunk(i, |c| ar.decode(&c, &mut vals[..n], &mut scratch))
        })
        .collect();
    Ok(SalvageReport {
        version: ar.toc().version,
        chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{Toc, RAW_FLAG};
    use crate::error::Error;
    use crate::types::ErrorBound;

    fn archive_5_chunks() -> (Vec<f32>, Vec<u8>) {
        let data: Vec<f32> = (0..18_000).map(|i| (i as f32 * 0.003).sin() * 7.0).collect();
        let archive = crate::compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        (data, archive)
    }

    #[test]
    fn clean_archive_salvages_identically_to_strict() {
        let (_, archive) = archive_5_chunks();
        let strict: Vec<f32> = crate::decompress(&archive, Mode::Serial).unwrap();
        for mode in [Mode::Serial, Mode::Parallel] {
            let (vals, report) = decompress_salvage::<f32>(&archive, mode, f32::NAN).unwrap();
            assert!(report.is_clean());
            assert_eq!(report.chunks.len(), 5);
            assert!(vals
                .iter()
                .zip(&strict)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn damaged_chunk_is_filled_and_flagged() {
        let (_, archive) = archive_5_chunks();
        let strict: Vec<f32> = crate::decompress(&archive, Mode::Serial).unwrap();
        let toc = Toc::read(&archive).unwrap();
        let damaged = 3usize;
        let off = toc.payload_start
            + toc.sizes[..damaged]
                .iter()
                .map(|&s| (s & !RAW_FLAG) as usize)
                .sum::<usize>();
        let mut bad = archive.clone();
        bad[off + 5] ^= 0x20;
        let fill = -123.5f32;
        for mode in [Mode::Serial, Mode::Parallel] {
            let (vals, report) = decompress_salvage::<f32>(&bad, mode, fill).unwrap();
            assert_eq!(report.damaged(), 1);
            let r = &report.chunks[damaged];
            assert_eq!(r.offset, off);
            assert!(
                matches!(r.status, ChunkStatus::ChecksumMismatch { .. }),
                "{:?}",
                r.status
            );
            let vpc = chunk::values_per_chunk::<f32>();
            for (i, (v, s)) in vals.iter().zip(&strict).enumerate() {
                if i / vpc == damaged {
                    assert_eq!(v.to_bits(), fill.to_bits(), "value {i} not filled");
                } else {
                    assert_eq!(v.to_bits(), s.to_bits(), "value {i} not bit-identical");
                }
            }
            // Strict decode must refuse the same archive, naming the chunk.
            assert!(matches!(
                crate::decompress::<f32>(&bad, mode),
                Err(Error::ChecksumMismatch { chunk: 3, .. })
            ));
        }
    }

    #[test]
    fn truncated_archive_salvages_leading_chunks() {
        let (_, archive) = archive_5_chunks();
        let strict: Vec<f32> = crate::decompress(&archive, Mode::Serial).unwrap();
        let toc = Toc::read(&archive).unwrap();
        // Cut mid-way through chunk 2's payload.
        let cut = toc.payload_start
            + toc.sizes[..2]
                .iter()
                .map(|&s| (s & !RAW_FLAG) as usize)
                .sum::<usize>()
            + 7;
        let (vals, report) =
            decompress_salvage::<f32>(&archive[..cut], Mode::Serial, 0.0f32).unwrap();
        assert_eq!(vals.len(), strict.len());
        assert_eq!(report.damaged(), 3);
        for (i, r) in report.chunks.iter().enumerate() {
            if i < 2 {
                assert!(r.status.is_ok(), "chunk {i}: {}", r.status);
            } else {
                assert!(
                    matches!(r.status, ChunkStatus::Truncated { .. }),
                    "chunk {i}: {}",
                    r.status
                );
            }
        }
        let vpc = chunk::values_per_chunk::<f32>();
        assert!(vals[..2 * vpc]
            .iter()
            .zip(&strict[..2 * vpc])
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(vals[2 * vpc..].iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn headerless_bytes_are_unsalvageable() {
        assert!(decompress_salvage::<f32>(&[], Mode::Serial, 0.0).is_err());
        let (_, archive) = archive_5_chunks();
        let mut bad = archive.clone();
        bad[16] ^= 0xFF; // fixed-field damage → header checksum fails
        assert!(decompress_salvage::<f32>(&bad, Mode::Serial, 0.0).is_err());
        assert!(decompress_salvage::<f64>(&archive, Mode::Serial, 0.0).is_err());
    }

    #[test]
    fn verify_archive_matches_salvage_report() {
        let (_, archive) = archive_5_chunks();
        assert!(verify_archive::<f32>(&archive).unwrap().is_clean());
        let toc = Toc::read(&archive).unwrap();
        let mut bad = archive.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // damages the final chunk's payload
        let report = verify_archive::<f32>(&bad).unwrap();
        assert_eq!(report.damaged(), 1);
        assert_eq!(
            report.chunks.last().unwrap().chunk,
            toc.sizes.len() - 1
        );
        let (_, salvage_report) = decompress_salvage::<f32>(&bad, Mode::Serial, 0.0f32).unwrap();
        assert_eq!(report, salvage_report);
        assert!(report.summary().contains("4/5 chunks intact"));
    }
}
