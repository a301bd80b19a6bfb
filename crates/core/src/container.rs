//! Archive container format.
//!
//! Format **v2** (written by this crate; v1 archives remain readable):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PFPL" (little-endian 0x4C50_4650)
//! 4       2     version (2; readers also accept 1)
//! 6       1     flags: bit0 = precision (0 f32 / 1 f64),
//!               bits1-2 = bound kind (ABS/REL/NOA), bit3 = passthrough,
//!               bits4-7 must be zero
//! 7       1     reserved (0)
//! 8       8     user error bound (f64 bits)
//! 16      8     derived bound actually used by the quantizer, widened to
//!               f64 (for NOA this is eb*(max-min); 0 in passthrough mode)
//! 24      8     value count (u64)
//! 32      4     chunk count (u32)
//! 36      4     header checksum: checksum32(HEADER_SEED, bytes[0..36])   [v2 only]
//! 40      4*c   per-chunk payload sizes; bit 31 flags a raw chunk
//! 40+4c   4*c   per-chunk payload checksums:                             [v2 only]
//!               checksum32(chunk_index, payload bytes)
//! 40+8c   ...   concatenated chunk payloads
//! ```
//!
//! v1 differs only by `version = 1`, no header checksum (size table starts
//! at offset 36), and no checksum table (payloads start at `36 + 4c`).
//!
//! The per-chunk size table is the serialization of the paper's
//! "concatenated compressed chunks whose sizes are separately stored"; the
//! decoder prefix-sums it to find each chunk's offset, which is what makes
//! decompression chunk-parallel (§III-E). The v2 checksum table extends it
//! with one integrity word per chunk, computed by
//! [`crate::checksum::checksum32`] over the stored payload bytes (raw
//! chunks included) and seeded by the chunk index, so the same 16 KiB
//! independence that enables parallelism also bounds the blast radius of
//! storage corruption to one chunk (see [`crate::salvage`]).
//!
//! [`Toc::read`] is the parse boundary for untrusted archives: every
//! length it returns is validated against the bytes physically present, so
//! no allocation downstream is sized from an unvalidated header field.
//! Decoders reach it through [`crate::Archive::open`], which adds the
//! precision check, the quantizer and per-chunk extents (see
//! `docs/FORMAT.md` § Validation rules).

use crate::checksum::{checksum32, chunk_seed, HEADER_SEED};
use crate::error::{Error, Result};
use crate::types::{BoundKind, Precision};

/// Magic number ("PFPL" as little-endian bytes).
pub const MAGIC: u32 = u32::from_le_bytes(*b"PFPL");
/// Container format version written by this crate.
pub const VERSION: u16 = 2;
/// Oldest container format version readers still accept.
pub const MIN_VERSION: u16 = 1;
/// Length of the fixed header fields shared by v1 and v2 (up to and
/// including the chunk count). In a v1 archive the size table starts here.
pub const HEADER_LEN: usize = 36;
/// Full v2 fixed-header length: [`HEADER_LEN`] plus the header checksum.
/// In a v2 archive the size table starts here.
pub const V2_HEADER_LEN: usize = HEADER_LEN + 4;
/// Flag bit marking a chunk as raw in the size table.
pub const RAW_FLAG: u32 = 1 << 31;

/// Parsed archive header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    /// Data precision.
    pub precision: Precision,
    /// Error-bound type.
    pub kind: BoundKind,
    /// True when NOA degenerated to lossless passthrough (zero range).
    pub passthrough: bool,
    /// The user-requested bound (as supplied, in f64).
    pub user_bound: f64,
    /// The bound the quantizer actually used, in the data's precision
    /// (exactly representable; widened to f64 for storage).
    pub derived_bound: f64,
    /// Number of values in the archive.
    pub count: u64,
    /// Number of chunks.
    pub chunk_count: u32,
}

/// Parsed archive table of contents: the header plus both per-chunk
/// tables, produced by [`Toc::read`] — the single parse/trust boundary for
/// both format versions.
#[derive(Debug, Clone, PartialEq)]
pub struct Toc {
    /// The fixed header fields.
    pub header: Header,
    /// The container version the archive was written with (1 or 2).
    pub version: u16,
    /// Per-chunk payload sizes (bit 31 = raw flag), one per chunk.
    pub sizes: Vec<u32>,
    /// Per-chunk payload checksums, one per chunk for v2; empty for v1.
    pub checksums: Vec<u32>,
    /// Archive offset at which chunk payloads begin.
    pub payload_start: usize,
}

impl Toc {
    /// Stored checksum for chunk `i`, or `None` for v1 archives (which
    /// carry no checksums).
    pub fn chunk_checksum(&self, i: usize) -> Option<u32> {
        self.checksums.get(i).copied()
    }

    /// Archive offset of the size table (version-dependent).
    pub fn sizes_offset(&self) -> usize {
        if self.version >= 2 {
            V2_HEADER_LEN
        } else {
            HEADER_LEN
        }
    }

    /// Archive offset of the checksum table, or `None` for v1.
    pub fn checksums_offset(&self) -> Option<usize> {
        (self.version >= 2).then(|| V2_HEADER_LEN + self.sizes.len() * 4)
    }

    /// Parse an archive's header and tables.
    ///
    /// Total over arbitrary input: every structural claim the fixed header
    /// makes is validated before it is used —
    ///
    /// * magic and version first ([`Error::BadHeader`]); then, for v2, the
    ///   header checksum over bytes `0..36` — so any further fixed-field
    ///   corruption in a v2 archive is reported as a checksum mismatch
    ///   rather than a misleading field-level complaint;
    /// * reserved byte and undefined flag bits ([`Error::BadHeader`]);
    /// * `chunk_count == ceil(count / values_per_chunk)`, so a forged
    ///   count cannot desync downstream per-chunk loops or size an
    ///   allocation beyond what the (physically present) tables support
    ///   ([`Error::CountMismatch`]);
    /// * the full size table — and for v2 the checksum table — is present
    ///   in `buf` ([`Error::Truncated`]); all offset arithmetic is
    ///   checked, so a huge `chunk_count` cannot wrap.
    pub fn read(buf: &[u8]) -> Result<Toc> {
        if buf.len() < HEADER_LEN {
            return Err(Error::Truncated {
                offset: 0,
                needed: HEADER_LEN,
                have: buf.len(),
                what: "fixed header",
            });
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(Error::BadHeader(format!("bad magic {magic:#010x}")));
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(Error::BadHeader(format!("unsupported version {version}")));
        }
        let fixed_end = if version >= 2 {
            if buf.len() < V2_HEADER_LEN {
                return Err(Error::Truncated {
                    offset: HEADER_LEN,
                    needed: 4,
                    have: buf.len() - HEADER_LEN,
                    what: "header checksum",
                });
            }
            let stored = u32::from_le_bytes(buf[HEADER_LEN..V2_HEADER_LEN].try_into().unwrap());
            let computed = checksum32(HEADER_SEED, &buf[..HEADER_LEN]);
            if stored != computed {
                return Err(Error::BadHeader(format!(
                    "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )));
            }
            V2_HEADER_LEN
        } else {
            HEADER_LEN
        };
        let flags = buf[6];
        if flags & 0xF0 != 0 {
            return Err(Error::BadHeader(format!(
                "undefined flag bits set in {flags:#04x}"
            )));
        }
        if buf[7] != 0 {
            return Err(Error::BadHeader(format!(
                "reserved byte must be 0, got {:#04x}",
                buf[7]
            )));
        }
        let precision = Precision::from_tag(flags & 1).expect("1-bit tag");
        let kind = BoundKind::from_tag((flags >> 1) & 0b11)
            .ok_or_else(|| Error::BadHeader(format!("bad bound kind in flags {flags:#04x}")))?;
        let passthrough = flags >> 3 & 1 == 1;
        if passthrough && kind != BoundKind::Noa {
            return Err(Error::BadHeader(format!(
                "passthrough flag is only defined for NOA, found {} in flags {flags:#04x}",
                kind.name()
            )));
        }
        let user_bound = f64::from_bits(u64::from_le_bytes(buf[8..16].try_into().unwrap()));
        let derived_bound = f64::from_bits(u64::from_le_bytes(buf[16..24].try_into().unwrap()));
        let count = u64::from_le_bytes(buf[24..32].try_into().unwrap());
        let chunk_count = u32::from_le_bytes(buf[32..36].try_into().unwrap());

        // A forged count must not survive to downstream loops (or to the
        // output allocation): the chunk count it implies has to match the
        // stored one exactly, and the matching tables have to be
        // physically present below. Together these cap every
        // header-derived quantity by the archive's real length.
        let vpc = (crate::chunk::CHUNK_BYTES / precision.word_bytes()) as u64;
        let expected_chunks = count.div_ceil(vpc);
        if chunk_count as u64 != expected_chunks {
            return Err(Error::CountMismatch {
                count,
                chunk_count,
                expected_chunks,
            });
        }

        // Checked table extent: `chunk_count * 4` (×2 for v2) cannot wrap
        // in u64, and the cast back to usize only happens once the tables
        // are known to fit inside `buf`.
        let entry_words: u64 = if version >= 2 { 2 } else { 1 };
        let tables_end = fixed_end as u64 + chunk_count as u64 * 4 * entry_words;
        if (buf.len() as u64) < tables_end {
            return Err(Error::Truncated {
                offset: buf.len(),
                needed: (tables_end - buf.len() as u64) as usize,
                have: 0,
                what: "chunk size/checksum tables",
            });
        }
        let tables_end = tables_end as usize;
        let read_table = |off: usize| -> Vec<u32> {
            buf[off..off + chunk_count as usize * 4]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let sizes = read_table(fixed_end);
        let checksums = if version >= 2 {
            read_table(fixed_end + chunk_count as usize * 4)
        } else {
            Vec::new()
        };
        Ok(Toc {
            header: Header {
                precision,
                kind,
                passthrough,
                user_bound,
                derived_bound,
                count,
                chunk_count,
            },
            version,
            sizes,
            checksums,
            payload_start: tables_end,
        })
    }
}

impl Header {
    /// Serialize the fixed v2 header: the 36 shared fields followed by the
    /// header checksum over them.
    fn write_fixed(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        let flags = self.precision.tag()
            | (self.kind.tag() << 1)
            | ((self.passthrough as u8) << 3);
        out.push(flags);
        out.push(0);
        out.extend_from_slice(&self.user_bound.to_bits().to_le_bytes());
        out.extend_from_slice(&self.derived_bound.to_bits().to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.chunk_count.to_le_bytes());
        let digest = checksum32(HEADER_SEED, &out[start..start + HEADER_LEN]);
        out.extend_from_slice(&digest.to_le_bytes());
    }

    /// Serialize the v2 header, size table, and checksum table into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != self.chunk_count` or `checksums.len() !=
    /// self.chunk_count` — in release builds too. A mismatched table would
    /// produce an archive whose decoder loops desync from its payloads; an
    /// encoder bug this basic must fail loudly rather than emit a corrupt
    /// archive.
    pub fn write(&self, sizes: &[u32], checksums: &[u32], out: &mut Vec<u8>) {
        assert_eq!(
            sizes.len(),
            self.chunk_count as usize,
            "size table length must equal the header chunk count"
        );
        assert_eq!(
            checksums.len(),
            self.chunk_count as usize,
            "checksum table length must equal the header chunk count"
        );
        self.write_fixed(out);
        for &s in sizes {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for &c in checksums {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Serialize the v2 header followed by zeroed size- and checksum-table
    /// placeholders.
    ///
    /// Single-pass assembly: reserve both tables up front, stream chunk
    /// payloads directly after them, then backpatch the real entries with
    /// [`patch_tables`] once they are known. (The header checksum itself
    /// needs no backpatching — it covers only the fixed fields, all known
    /// up front.)
    pub fn write_placeholder(&self, out: &mut Vec<u8>) {
        self.write_fixed(out);
        let tables = self.chunk_count as usize * 8;
        out.resize(out.len() + tables, 0);
    }
}

/// Overwrite the size- and checksum-table regions of a v2 archive whose
/// header was written with [`Header::write_placeholder`]. The archive must
/// start at the header (tables at [`V2_HEADER_LEN`]) and hold at least
/// `8 * sizes.len()` table bytes; `sizes` and `checksums` must have equal
/// length.
pub fn patch_tables(archive: &mut [u8], sizes: &[u32], checksums: &[u32]) {
    assert_eq!(sizes.len(), checksums.len(), "table lengths must match");
    let sizes_tab = &mut archive[V2_HEADER_LEN..V2_HEADER_LEN + sizes.len() * 4];
    for (slot, &s) in sizes_tab.chunks_exact_mut(4).zip(sizes) {
        slot.copy_from_slice(&s.to_le_bytes());
    }
    let checks_off = V2_HEADER_LEN + sizes.len() * 4;
    let checks_tab = &mut archive[checks_off..checks_off + checksums.len() * 4];
    for (slot, &c) in checks_tab.chunks_exact_mut(4).zip(checksums) {
        slot.copy_from_slice(&c.to_le_bytes());
    }
}

/// Checksum of `payload` as stored for chunk `i` in the v2 table:
/// [`checksum32`] seeded by the chunk index.
pub fn payload_checksum(i: usize, payload: &[u8]) -> u32 {
    checksum32(chunk_seed(i), payload)
}

/// Compute per-chunk payload offsets (exclusive prefix sum of sizes with
/// the raw flag stripped) with checked arithmetic, verifying the total
/// against the `payload_len` bytes actually present. `payload_base` is the
/// archive offset of the payload region, used only to report absolute byte
/// offsets in errors.
pub fn chunk_offsets(sizes: &[u32], payload_len: usize, payload_base: usize) -> Result<Vec<usize>> {
    let mut offsets = Vec::with_capacity(sizes.len() + 1);
    let mut acc = 0u64;
    for (i, &s) in sizes.iter().enumerate() {
        offsets.push(acc as usize);
        acc = match acc.checked_add((s & !RAW_FLAG) as u64) {
            // Reject as soon as the running sum exceeds what the archive
            // can hold — keeps `acc as usize` exact on 32-bit hosts too.
            Some(a) if a <= payload_len as u64 => a,
            _ => {
                return Err(Error::SizeTableOverflow {
                    chunk: i,
                    total: acc.saturating_add((s & !RAW_FLAG) as u64),
                })
            }
        };
    }
    offsets.push(acc as usize);
    if acc != payload_len as u64 {
        return Err(Error::Truncated {
            offset: payload_base + acc as usize,
            needed: payload_len - acc as usize,
            have: 0,
            what: "trailing bytes not claimed by any chunk",
        });
    }
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            precision: Precision::Single,
            kind: BoundKind::Noa,
            passthrough: false,
            user_bound: 1e-3,
            // 3 f32 chunks: count must satisfy ceil(count / 4096) == 3.
            derived_bound: 0.042,
            count: 12_000,
            chunk_count: 3,
        }
    }

    /// Serialize a v1 archive prefix (fixed fields + size table only) for
    /// back-compat tests — the crate itself no longer writes v1.
    fn write_v1(h: &Header, sizes: &[u32], out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&1u16.to_le_bytes());
        let flags =
            h.precision.tag() | (h.kind.tag() << 1) | ((h.passthrough as u8) << 3);
        out.push(flags);
        out.push(0);
        out.extend_from_slice(&h.user_bound.to_bits().to_le_bytes());
        out.extend_from_slice(&h.derived_bound.to_bits().to_le_bytes());
        out.extend_from_slice(&h.count.to_le_bytes());
        out.extend_from_slice(&h.chunk_count.to_le_bytes());
        for &s in sizes {
            out.extend_from_slice(&s.to_le_bytes());
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let sizes = vec![100, 200 | RAW_FLAG, 50];
        let checks = vec![0xAAAA_0001, 0xBBBB_0002, 0xCCCC_0003];
        let mut buf = Vec::new();
        h.write(&sizes, &checks, &mut buf);
        assert_eq!(buf.len(), V2_HEADER_LEN + 24);
        let toc = Toc::read(&buf).unwrap();
        assert_eq!(h, toc.header);
        assert_eq!(toc.version, VERSION);
        assert_eq!(sizes, toc.sizes);
        assert_eq!(checks, toc.checksums);
        assert_eq!(toc.payload_start, V2_HEADER_LEN + 24);
        assert_eq!(toc.sizes_offset(), V2_HEADER_LEN);
        assert_eq!(toc.checksums_offset(), Some(V2_HEADER_LEN + 12));
        assert_eq!(toc.chunk_checksum(1), Some(0xBBBB_0002));
        assert_eq!(toc.chunk_checksum(3), None);
    }

    #[test]
    fn v1_archives_still_parse() {
        let h = sample_header();
        let sizes = vec![7, 8 | RAW_FLAG, 9];
        let mut buf = Vec::new();
        write_v1(&h, &sizes, &mut buf);
        let toc = Toc::read(&buf).unwrap();
        assert_eq!(toc.version, 1);
        assert_eq!(toc.header, h);
        assert_eq!(toc.sizes, sizes);
        assert!(toc.checksums.is_empty());
        assert_eq!(toc.payload_start, HEADER_LEN + 12);
        assert_eq!(toc.sizes_offset(), HEADER_LEN);
        assert_eq!(toc.checksums_offset(), None);
        assert_eq!(toc.chunk_checksum(0), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Toc::read(&[]).is_err());
        assert!(Toc::read(&[0u8; 36]).is_err());
        let h = sample_header();
        let mut buf = Vec::new();
        h.write(&[1, 2, 3], &[9, 9, 9], &mut buf);
        let mut bad = buf.clone();
        bad[4] = 99; // version
        assert!(Toc::read(&bad).is_err());
        let mut bad = buf.clone();
        bad[6] |= 0b110; // invalid bound kind 3 — caught by header checksum
        assert!(Toc::read(&bad).is_err());
        let mut bad = buf.clone();
        bad[6] |= 0x40; // undefined flag bit
        assert!(Toc::read(&bad).is_err());
        let mut bad = buf.clone();
        bad[7] = 1; // reserved byte
        assert!(Toc::read(&bad).is_err());
        assert!(Toc::read(&buf[..44]).is_err(), "truncated size table");
        assert!(
            Toc::read(&buf[..V2_HEADER_LEN + 12]).is_err(),
            "size table present but checksum table truncated"
        );
    }

    #[test]
    fn header_checksum_guards_every_fixed_byte() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.write(&[1, 2, 3], &[9, 9, 9], &mut buf);
        // Flipping any bit of the fixed fields (past magic+version, whose
        // own checks fire first) must be rejected — in particular bound
        // bytes, which v1 had no way to validate.
        for i in 6..HEADER_LEN {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert!(Toc::read(&bad).is_err(), "flip at fixed byte {i} accepted");
        }
        // And damaging the stored digest itself is equally fatal.
        for i in HEADER_LEN..V2_HEADER_LEN {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(matches!(Toc::read(&bad), Err(Error::BadHeader(_))));
        }
    }

    #[test]
    fn rejects_count_chunk_desync() {
        let mut h = sample_header();
        h.count = 123_456; // ceil(123456 / 4096) = 31, header claims 3
        let mut buf = Vec::new();
        h.write(&[1, 2, 3], &[0, 0, 0], &mut buf);
        assert!(matches!(
            Toc::read(&buf),
            Err(Error::CountMismatch {
                expected_chunks: 31,
                ..
            })
        ));
    }

    #[test]
    fn rejects_passthrough_outside_noa() {
        let mut h = sample_header();
        h.kind = BoundKind::Abs;
        h.passthrough = true;
        let mut buf = Vec::new();
        h.write(&[1, 2, 3], &[0, 0, 0], &mut buf);
        assert!(matches!(Toc::read(&buf), Err(Error::BadHeader(_))));
    }

    #[test]
    fn huge_chunk_count_is_rejected_without_allocating() {
        // A header claiming u32::MAX chunks must fail on the (absent)
        // tables, not try to materialize them.
        let mut h = sample_header();
        h.chunk_count = u32::MAX;
        h.count = u64::MAX / 4096 * 4096; // keep count/chunk ratio plausible
        let mut buf = Vec::new();
        h.write_fixed(&mut buf);
        let res = Toc::read(&buf);
        assert!(
            matches!(res, Err(Error::CountMismatch { .. }) | Err(Error::Truncated { .. })),
            "{res:?}"
        );
    }

    #[test]
    fn placeholder_plus_patch_matches_direct_write() {
        let h = sample_header();
        let sizes = vec![100, 200 | RAW_FLAG, 50];
        let checks = vec![0x1111_1111, 0x2222_2222, 0x3333_3333];
        let mut direct = Vec::new();
        h.write(&sizes, &checks, &mut direct);
        let mut patched = Vec::new();
        h.write_placeholder(&mut patched);
        assert_eq!(patched.len(), V2_HEADER_LEN + 24);
        patch_tables(&mut patched, &sizes, &checks);
        assert_eq!(direct, patched);
    }

    #[test]
    #[should_panic(expected = "size table length")]
    fn write_rejects_mismatched_table_in_release_too() {
        let h = sample_header(); // chunk_count = 3
        let mut buf = Vec::new();
        h.write(&[1, 2], &[0, 0], &mut buf);
    }

    #[test]
    #[should_panic(expected = "checksum table length")]
    fn write_rejects_mismatched_checksum_table() {
        let h = sample_header(); // chunk_count = 3
        let mut buf = Vec::new();
        h.write(&[1, 2, 3], &[0, 0], &mut buf);
    }

    #[test]
    fn offsets_checked() {
        let sizes = [10u32, 20 | RAW_FLAG, 30];
        let offs = chunk_offsets(&sizes, 60, 0).unwrap();
        assert_eq!(offs, vec![0, 10, 30, 60]);
        assert!(chunk_offsets(&sizes, 61, 0).is_err());
        assert!(chunk_offsets(&sizes, 59, 0).is_err());
    }

    #[test]
    fn offsets_overflow_rejected() {
        // Sizes that wrap a 32-bit (or even 64-bit) prefix sum must be
        // caught by checked arithmetic, not wrapped into bogus offsets.
        let sizes = vec![0x7FFF_FFFFu32; 8];
        assert!(matches!(
            chunk_offsets(&sizes, 100, 0),
            Err(Error::SizeTableOverflow { .. })
        ));
    }
}
