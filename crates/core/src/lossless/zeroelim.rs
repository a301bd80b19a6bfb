//! Lossless stage 3: zero-byte elimination with iterated bitmap
//! compression (Fig. 5). This is the only stage that actually shrinks data.
//!
//! A bitmap flags the nonzero bytes of the input (one bit per byte); zero
//! bytes are dropped. The bitmap itself — a fixed 1/8 of the input — is then
//! compressed by the *repeat* variant of the same idea: a second, 8×-smaller
//! bitmap flags which bitmap bytes differ from their predecessor, and only
//! those are emitted. That repeat step is applied [`LEVELS`] (4) times, so a
//! 16 KiB chunk's final bitmap is a single byte.
//!
//! Serialized layout (all sizes derivable from the uncompressed length):
//!
//! ```text
//! [bitmap_4][nonrep_4][nonrep_3][nonrep_2][nonrep_1][nonzero data bytes]
//! ```
//!
//! where `nonrep_k` are the non-repeating bytes of `bitmap_{k-1}` flagged by
//! `bitmap_k` (predecessor initialized to zero at each level).
//!
//! Every encoder and decoder here — the staged [`encode_to_scratch`] /
//! [`decode_into`] and the streaming [`PlaneScratch`] — is built on two
//! primitives:
//!
//! * the 8-byte **group kernel**, `compress_group` / `expand_group`: one
//!   bitmap byte and its survivors, packed in ascending byte order. It is
//!   the definition of the format's level-0 bytes.
//! * the 64-byte **line kernel**, `line::compress` / `line::expand`: eight
//!   bitmap bytes (one `u64` mask) and the line's survivors. Its scalar
//!   version, eight group-kernel calls, is the definition and is compiled
//!   on every host; an AVX-512 BW+VBMI2 version (`vptestmb` +
//!   `vpcompressb` / `vpexpandb`) is chosen at runtime where the host has
//!   it, and emits the same bytes because compaction keeps ascending byte
//!   order.
//!
//! Encoding is split into a staging step ([`encode_to_scratch`]) that
//! computes every piece into reusable [`Scratch`] buffers and returns the
//! total serialized length, and emit steps ([`append_encoded`] /
//! [`write_encoded`]) that assemble the pieces into a `Vec` or a
//! caller-provided slot. This lets the chunk pipeline decide raw fallback
//! *before* any archive bytes are written, and lets parallel workers write
//! straight into disjoint slab slots — no per-chunk allocation either way.

use crate::error::{Error, Result};

/// Number of repeat-elimination rounds applied to the bitmap (paper: 4).
pub const LEVELS: usize = 4;

fn bitmap_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// Reusable buffers for [`encode_to_scratch`] and [`decode_into`]. All
/// buffers start empty and grow to the working set of the first chunk;
/// steady-state use performs no heap allocation.
#[derive(Default)]
pub struct Scratch {
    /// Surviving (nonzero) data bytes in `data[..data_len]`; the buffer
    /// only grows, so restaging never zero-fills it.
    data: Vec<u8>,
    data_len: usize,
    /// Level-0 (nonzero) bitmap.
    level0: Vec<u8>,
    levels: Levels,
}

/// The repeat levels over a level-0 bitmap, shared by both encoders and
/// both decoders.
#[derive(Default)]
struct Levels {
    /// The top (level-`LEVELS`) bitmap once built.
    top: Vec<u8>,
    /// Ping-pong partner of `top` while building and decoding.
    tmp: Vec<u8>,
    /// Non-repeating bytes of bitmap levels 0..LEVELS-1.
    nonreps: [Vec<u8>; LEVELS],
}

impl Levels {
    /// Build every repeat level over `level0`, returning their serialized
    /// length.
    fn build(&mut self, level0: &[u8]) -> usize {
        for (k, nr) in self.nonreps.iter_mut().enumerate() {
            nr.clear();
            if k == 0 {
                build_nonrepeat_into(level0, &mut self.top, nr);
            } else {
                build_nonrepeat_into(&self.top, &mut self.tmp, nr);
                std::mem::swap(&mut self.top, &mut self.tmp);
            }
        }
        self.top.len() + self.nonreps.iter().map(Vec::len).sum::<usize>()
    }

    /// The serialized level bytes in order: the top bitmap, then the
    /// non-repeating bytes from the highest level down.
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(&self.top[..]).chain(self.nonreps.iter().rev().map(Vec::as_slice))
    }
}

/// Copy `parts` back to back into `dst`, whose length must be their total.
fn write_parts<'a>(parts: impl Iterator<Item = &'a [u8]>, dst: &mut [u8]) {
    let mut off = 0usize;
    for part in parts {
        dst[off..off + part.len()].copy_from_slice(part);
        off += part.len();
    }
    debug_assert_eq!(off, dst.len());
}

/// SWAR: bit `i` of the result is set iff byte `i` of `x` is nonzero.
#[inline(always)]
fn nonzero_byte_mask(x: u64) -> u8 {
    const LOW: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    // bit 7 of each byte set iff the byte is nonzero
    let m = (((x & LOW).wrapping_add(LOW)) | x) & !LOW;
    // gather the eight bit-7 indicators into one byte, byte 0 → bit 0
    ((m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Pack the bytes of `group` flagged in `mask` into the head of `dst` in
/// ascending byte order, returning their count. A full mask is one 8-byte
/// copy; otherwise one iteration per set bit.
#[inline(always)]
fn pack_group(group: [u8; 8], mask: u8, dst: &mut [u8]) -> usize {
    if mask == 0xFF {
        dst[..8].copy_from_slice(&group);
        return 8;
    }
    let mut m = mask;
    let mut k = 0usize;
    while m != 0 {
        dst[k] = group[m.trailing_zeros() as usize];
        k += 1;
        m &= m - 1;
    }
    k
}

/// Group kernel, encode side: the bitmap byte of `group` (bit `i` set iff
/// byte `i` is nonzero) and its nonzero bytes packed into the head of
/// `dst`. Returns `(mask, survivors)`; `dst` must hold the survivors
/// (8 bytes always suffice).
#[inline(always)]
fn compress_group(group: [u8; 8], dst: &mut [u8]) -> (u8, usize) {
    let mask = nonzero_byte_mask(u64::from_le_bytes(group));
    (mask, pack_group(group, mask, dst))
}

/// Group kernel, decode side: the inverse of [`compress_group`]. Scatters
/// the first `mask.count_ones()` bytes of `src` to the set bit positions
/// of `mask`, zeros elsewhere.
#[inline(always)]
fn expand_group(mask: u8, src: &[u8]) -> [u8; 8] {
    if mask == 0xFF {
        return src[..8].try_into().unwrap();
    }
    let mut group = [0u8; 8];
    let mut m = mask;
    let mut k = 0usize;
    while m != 0 {
        group[m.trailing_zeros() as usize] = src[k];
        k += 1;
        m &= m - 1;
    }
    group
}

/// The 64-byte line kernel. Byte `j` of a line mask (little-endian) is the
/// group-kernel mask of the line's 8-byte group `j`, and survivors are
/// packed in ascending byte order, so [`compress_scalar`] — eight group
/// kernel calls — is the definition. [`compress`] / [`expand`] run the
/// AVX-512 BW+VBMI2 kernel where the host has it, detected at runtime.
mod line {
    use super::{compress_group, expand_group};

    /// True when [`compress`] / [`expand`] run the AVX-512 kernel here.
    #[cfg(test)]
    pub fn vector_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            return true;
        }
        false
    }

    /// Pack the nonzero bytes of `bytes` into the head of `dst`; returns
    /// `(mask, survivors)` where bit `i` of `mask` is set iff `bytes[i]`
    /// is nonzero. `dst` must be at least 64 bytes: the vector kernel
    /// stores a whole line, and the bytes past the survivors are garbage
    /// for the caller to ignore or overwrite.
    #[inline]
    pub fn compress(bytes: &[u8; 64], dst: &mut [u8]) -> (u64, usize) {
        // One contract for both kernels, so a caller that breaks it fails
        // on every host (encode side only, never reachable from archive
        // bytes).
        assert!(dst.len() >= 64);
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            // SAFETY: the kernel's target features were detected just above.
            return unsafe { avx512::compress(bytes, dst) };
        }
        compress_scalar(bytes, dst)
    }

    /// Inverse of [`compress`]: scatter the first `mask.count_ones()`
    /// bytes of `src` to the set bit positions of `mask`, zeros elsewhere.
    /// Only those bytes of `src` are read, so `src` may be shorter than
    /// 64 bytes.
    #[inline]
    pub fn expand(mask: u64, src: &[u8], out: &mut [u8; 64]) {
        // One contract for both kernels. Every decode caller first proves
        // the payload holds all survivors (`begin_decode`'s exact-count
        // check / `expand_into`'s `needed <= avail` check), so this is not
        // reachable from archive bytes.
        assert!(src.len() >= mask.count_ones() as usize);
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            // SAFETY: the kernel's target features were detected just above.
            unsafe { avx512::expand(mask, src, out) };
            return;
        }
        expand_scalar(mask, src, out)
    }

    /// The definition of [`compress`]: one group-kernel call per 8 bytes.
    pub fn compress_scalar(bytes: &[u8; 64], dst: &mut [u8]) -> (u64, usize) {
        let mut mask = 0u64;
        let mut n = 0usize;
        for (j, group) in bytes.chunks_exact(8).enumerate() {
            let (m, k) = compress_group(group.try_into().unwrap(), &mut dst[n..]);
            mask |= (m as u64) << (8 * j);
            n += k;
        }
        (mask, n)
    }

    /// The definition of [`expand`]: one group-kernel call per 8 bytes.
    pub fn expand_scalar(mask: u64, src: &[u8], out: &mut [u8; 64]) {
        let mut n = 0usize;
        for (j, group) in out.chunks_exact_mut(8).enumerate() {
            let m = (mask >> (8 * j)) as u8;
            group.copy_from_slice(&expand_group(m, &src[n..]));
            n += m.count_ones() as usize;
        }
    }

    /// `vptestmb` computes the eight mask bytes at once, and `vpcompressb`
    /// / `vpexpandb` (AVX-512 VBMI2) compact / expand the whole line in
    /// single instructions. The functions are compiled for these features
    /// whatever the build's target CPU; in a build whose target CPU has
    /// them, detection is a constant and the kernels inline.
    #[cfg(target_arch = "x86_64")]
    mod avx512 {
        use std::arch::x86_64::*;

        pub fn available() -> bool {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vbmi2")
        }

        /// [`super::compress`]; `dst` must be at least 64 bytes (a hard
        /// assert: it guards the vector store).
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vbmi2")]
        pub fn compress(bytes: &[u8; 64], dst: &mut [u8]) -> (u64, usize) {
            assert!(dst.len() >= 64);
            // SAFETY: both pointers cover 64 valid bytes.
            unsafe {
                let v = _mm512_loadu_si512(bytes.as_ptr().cast());
                let mask = _mm512_test_epi8_mask(v, v);
                let packed = _mm512_maskz_compress_epi8(mask, v);
                _mm512_storeu_si512(dst.as_mut_ptr().cast(), packed);
                (mask, mask.count_ones() as usize)
            }
        }

        /// [`super::expand`]; `src` must hold `mask.count_ones()` bytes (a
        /// hard assert: it guards the masked load).
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vbmi2")]
        pub fn expand(mask: u64, src: &[u8], out: &mut [u8; 64]) {
            let need = mask.count_ones() as usize;
            assert!(src.len() >= need);
            // SAFETY: the masked load reads only the `need` in-bounds bytes
            // (AVX-512 masked loads suppress faults on masked-out
            // elements); the store covers 64 valid bytes.
            unsafe {
                let lm: __mmask64 = if need == 64 { !0 } else { (1u64 << need) - 1 };
                let v = _mm512_maskz_loadu_epi8(lm, src.as_ptr().cast());
                let ex = _mm512_maskz_expand_epi8(mask, v);
                _mm512_storeu_si512(out.as_mut_ptr().cast(), ex);
            }
        }
    }
}

/// Flag the nonzero bytes of `src` into `bitmap` and pack the nonzero bytes
/// themselves, in order, into the head of `data` (at least `src.len()`
/// bytes), returning their count. Whole lines go through the line kernel,
/// the tail through the group kernel.
fn build_nonzero_into(src: &[u8], bitmap: &mut Vec<u8>, data: &mut [u8]) -> usize {
    bitmap.clear();
    bitmap.resize(bitmap_len(src.len()), 0);
    let mut n = 0usize;
    let mut lines = src.chunks_exact(64);
    for (bytes, bm) in (&mut lines).zip(bitmap.chunks_exact_mut(8)) {
        // `n <= head` and `head + 64 <= src.len()` leave the line kernel
        // its 64 bytes of headroom.
        let (mask, k) = line::compress(bytes.try_into().unwrap(), &mut data[n..]);
        bm.copy_from_slice(&mask.to_le_bytes());
        n += k;
    }
    let head = src.len() - lines.remainder().len();
    for (g, bm) in lines.remainder().chunks(8).zip(&mut bitmap[head / 8..]) {
        // A partial final group is zero-padded; padding is never flagged.
        let mut group = [0u8; 8];
        group[..g.len()].copy_from_slice(g);
        let (mask, k) = compress_group(group, &mut data[n..]);
        *bm = mask;
        n += k;
    }
    n
}

/// Flag bytes of `src` that differ from their predecessor (predecessor
/// initialized to 0) and append those bytes to `data`.
///
/// Works on 8-byte groups: `y = x ^ ((x << 8) | prev)` has a zero byte
/// exactly where a byte repeats its predecessor, so the group's bitmap byte
/// is the [`nonzero_byte_mask`] of `y` and the flagged bytes are packed as
/// in the group kernel. All-repeat groups (long constant runs of bitmap
/// data) skip both.
fn build_nonrepeat_into(src: &[u8], bitmap: &mut Vec<u8>, data: &mut Vec<u8>) {
    bitmap.clear();
    bitmap.resize(bitmap_len(src.len()), 0);
    let mut prev = 0u8;
    let mut chunks = src.chunks_exact(8);
    for (chunk, bm) in (&mut chunks).zip(bitmap.iter_mut()) {
        let x = u64::from_le_bytes(chunk.try_into().unwrap());
        // byte i of y = src byte i XOR its predecessor
        let y = x ^ ((x << 8) | prev as u64);
        prev = (x >> 56) as u8;
        if y != 0 {
            *bm = nonzero_byte_mask(y);
            let mut packed = [0u8; 8];
            let k = pack_group(chunk.try_into().unwrap(), *bm, &mut packed);
            data.extend_from_slice(&packed[..k]);
        }
    }
    let bi = src.len() / 8;
    for (b, &v) in chunks.remainder().iter().enumerate() {
        if v != prev {
            bitmap[bi] |= 1 << b;
            data.push(v);
        }
        prev = v;
    }
}

/// Stage the encoding of `input` into `s`, returning the total serialized
/// length. No bytes are emitted; follow with [`append_encoded`] or
/// [`write_encoded`] (the staged pieces stay valid until the next
/// `encode_to_scratch`/`decode_into` call on the same scratch).
pub fn encode_to_scratch(input: &[u8], s: &mut Scratch) -> usize {
    if s.data.len() < input.len() {
        s.data.resize(input.len(), 0);
    }
    s.data_len = build_nonzero_into(input, &mut s.level0, &mut s.data);
    s.levels.build(&s.level0) + s.data_len
}

impl Scratch {
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        self.levels
            .parts()
            .chain(std::iter::once(&self.data[..self.data_len]))
    }
}

/// Append the encoding staged in `s` to `out`.
pub fn append_encoded(s: &Scratch, out: &mut Vec<u8>) {
    s.parts().for_each(|part| out.extend_from_slice(part));
}

/// Write the encoding staged in `s` into `dst`, whose length must equal the
/// value returned by the matching [`encode_to_scratch`] call.
pub fn write_encoded(s: &Scratch, dst: &mut [u8]) {
    write_parts(s.parts(), dst);
}

/// Compress `input` and append the serialized form to `out`.
///
/// Convenience wrapper over [`encode_to_scratch`] + [`append_encoded`] that
/// allocates a fresh [`Scratch`]; hot paths should hold their own.
pub fn encode(input: &[u8], out: &mut Vec<u8>) {
    let mut s = Scratch::default();
    encode_to_scratch(input, &mut s);
    append_encoded(&s, out);
}

/// Streaming zero-elimination over bit planes, for the fused chunk kernel
/// (paper §III-E).
///
/// The staged encoder consumes the full 16 KiB shuffled byte buffer at
/// once. The fused pipeline never materializes that buffer: the transpose
/// hands over one 64-byte *line* per bit plane per tile, and this sink
/// eliminates zero bytes as the lines arrive. Because the shuffled buffer
/// is plane-major (`plane_bytes` consecutive bytes per plane) and each tile
/// contributes its lines in plane order, accumulating per plane reproduces
/// the staged byte stream exactly:
///
/// * the level-0 bitmap byte for plane `p` offset `off` lives at global
///   bitmap index `(p * plane_bytes + off) / 8` — written by scatter;
/// * plane `p`'s surviving bytes occupy a private region of `data`
///   (capacity `plane_bytes` each, so regions never collide) and are
///   concatenated in plane order on emit — exactly the staged data order.
///
/// Lines and groups go through the same line and group kernels as the
/// staged encoder, and the repeat levels are built by the very same
/// `build_nonrepeat_into` over the completed bitmap, so every serialized
/// byte is identical to [`encode_to_scratch`] + [`append_encoded`] by
/// construction. Like the staged encoder, everything stays staged until the
/// raw-fallback decision; emit via [`PlaneScratch::append_to`] /
/// [`PlaneScratch::write_to`].
///
/// The same struct drives fused *decoding*: [`PlaneScratch::begin_decode`]
/// expands only the (small) level bitmaps and sets up one payload cursor
/// per plane; [`PlaneScratch::next_line`] then expands each plane's next
/// line on demand, again without the 16 KiB intermediate buffer.
#[derive(Default)]
pub struct PlaneScratch {
    planes: usize,
    plane_bytes: usize,
    /// Level-0 nonzero bitmap, `planes * plane_bytes / 8` bytes. Every byte
    /// is assigned (not OR-ed) exactly once per chunk, so `begin` never
    /// zero-fills it.
    bitmap: Vec<u8>,
    levels: Levels,
    /// Survivor bytes: plane `p` owns `data[p*plane_bytes..][..counts[p]]`.
    data: Vec<u8>,
    /// Encode: survivor count per plane. Decode: absolute payload cursor
    /// per plane.
    counts: Vec<usize>,
    /// Bytes streamed so far per plane (both directions).
    filled: Vec<usize>,
    /// Per-plane partial 8-byte group, LE-packed: the device-sim transpose
    /// emits word-sized pieces (4 bytes for f32), smaller than the bitmap
    /// granularity.
    pending: Vec<u64>,
    pending_len: Vec<u8>,
}

impl PlaneScratch {
    /// Start encoding a chunk of `planes * plane_bytes` shuffled bytes.
    /// `plane_bytes` must be a positive multiple of 8 so every plane owns
    /// whole bitmap bytes (the fused chunk kernel guarantees this; other
    /// shapes take the staged fallback).
    pub fn begin(&mut self, planes: usize, plane_bytes: usize) {
        assert!(
            plane_bytes > 0 && plane_bytes.is_multiple_of(8),
            "plane_bytes must be a positive multiple of 8, got {plane_bytes}"
        );
        self.planes = planes;
        self.plane_bytes = plane_bytes;
        // Exact-size resizes: no work (in particular no zero-fill) in the
        // steady state where every chunk has the same shape.
        self.bitmap.resize(planes * plane_bytes / 8, 0);
        self.data.resize(planes * plane_bytes, 0);
        self.counts.clear();
        self.counts.resize(planes, 0);
        self.filled.clear();
        self.filled.resize(planes, 0);
        self.pending.clear();
        self.pending.resize(planes, 0);
        self.pending_len.clear();
        self.pending_len.resize(planes, 0);
    }

    /// Eliminate one complete 8-byte group of `plane`: bitmap byte by
    /// assignment, survivors into the plane's data region.
    #[inline(always)]
    fn commit_group(&mut self, plane: usize, group: [u8; 8]) {
        let base = plane * self.plane_bytes;
        let cnt = self.counts[plane];
        // `cnt <= filled` and `filled + 8 <= plane_bytes`: the group fits.
        let (mask, k) = compress_group(group, &mut self.data[base + cnt..base + self.plane_bytes]);
        self.bitmap[(base + self.filled[plane]) >> 3] = mask;
        self.counts[plane] = cnt + k;
        self.filled[plane] += 8;
    }

    #[inline]
    fn push_byte(&mut self, plane: usize, b: u8) {
        let pl = self.pending_len[plane] as usize;
        self.pending[plane] |= (b as u64) << (8 * pl);
        if pl == 7 {
            let g = self.pending[plane].to_le_bytes();
            self.pending[plane] = 0;
            self.pending_len[plane] = 0;
            self.commit_group(plane, g);
        } else {
            self.pending_len[plane] = (pl + 1) as u8;
        }
    }

    /// Stream one whole 64-byte plane line into `plane` — the CPU tile
    /// kernel's fixed granularity, one line-kernel call. Byte-for-byte
    /// equivalent to `push(plane, bytes)`; no partial group may be pending.
    #[inline]
    pub fn push_line64(&mut self, plane: usize, bytes: &[u8; 64]) {
        debug_assert!(plane < self.planes);
        debug_assert_eq!(self.pending_len[plane], 0);
        debug_assert!(self.filled[plane] + 64 <= self.plane_bytes);
        let base = plane * self.plane_bytes;
        let fill = self.filled[plane];
        let cnt = self.counts[plane];
        // `cnt <= fill` and `fill + 64 <= plane_bytes` guarantee the
        // 64-byte headroom the line kernel stores into.
        let (mask, k) = line::compress(bytes, &mut self.data[base + cnt..base + self.plane_bytes]);
        self.bitmap[(base + fill) >> 3..(base + fill + 64) >> 3]
            .copy_from_slice(&mask.to_le_bytes());
        self.filled[plane] = fill + 64;
        self.counts[plane] = cnt + k;
    }

    /// Stream `bytes` into `plane`, any length: pieces smaller than a
    /// group (the device simulator pushes one transposed word at a time)
    /// are staged in a pending group, whole groups go straight to the
    /// group kernel. Whole lines take [`Self::push_line64`].
    pub fn push(&mut self, plane: usize, bytes: &[u8]) {
        debug_assert!(plane < self.planes);
        debug_assert!(self.filled[plane] + self.pending_len[plane] as usize + bytes.len() <= self.plane_bytes);
        let mut rest = bytes;
        while self.pending_len[plane] != 0 && !rest.is_empty() {
            self.push_byte(plane, rest[0]);
            rest = &rest[1..];
        }
        let mut groups = rest.chunks_exact(8);
        for g in &mut groups {
            self.commit_group(plane, g.try_into().unwrap());
        }
        for &b in groups.remainder() {
            self.push_byte(plane, b);
        }
    }

    /// Finish the chunk: every plane must have received exactly
    /// `plane_bytes` bytes. Builds the repeat levels over the completed
    /// bitmap and returns the total serialized length (the raw-fallback
    /// input); nothing is emitted yet.
    pub fn finish_encode(&mut self) -> usize {
        debug_assert!(self.pending_len.iter().all(|&l| l == 0), "partial group at finish");
        debug_assert!(self.filled.iter().all(|&f| f == self.plane_bytes));
        // Repeat levels via the staged code path: identical level bytes by
        // construction.
        self.levels.build(&self.bitmap) + self.counts.iter().sum::<usize>()
    }

    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        let plane_data = (0..self.planes).map(|p| {
            let base = p * self.plane_bytes;
            &self.data[base..base + self.counts[p]]
        });
        self.levels.parts().chain(plane_data)
    }

    /// Append the encoding staged by [`Self::finish_encode`] to `out` —
    /// byte-identical to [`append_encoded`] on the staged pipeline.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        self.parts().for_each(|part| out.extend_from_slice(part));
    }

    /// Write the staged encoding into `dst`, whose length must equal the
    /// value returned by the matching [`Self::finish_encode`] call.
    pub fn write_to(&self, dst: &mut [u8]) {
        write_parts(self.parts(), dst);
    }

    /// Start fused decoding: expand the level bitmaps (a few hundred bytes
    /// of work — the 16 KiB data expansion happens lazily in
    /// [`Self::next_line`]), recover the level-0 bitmap, and set up one payload
    /// cursor per plane. Verifies that the payload length matches the
    /// bitmap's survivor count *exactly*, which subsumes both the staged
    /// path's truncation error and the chunk layer's trailing-bytes check.
    pub fn begin_decode(&mut self, payload: &[u8], planes: usize, plane_bytes: usize) -> Result<()> {
        if plane_bytes == 0 || !plane_bytes.is_multiple_of(8) {
            // Shape errors surface as Corrupt rather than a panic so no
            // decode entry point can be driven into an abort, whatever the
            // caller passes (the fused chunk kernel always passes a
            // positive multiple of 64).
            return Err(Error::Corrupt(format!(
                "plane_bytes must be a positive multiple of 8, got {plane_bytes}"
            )));
        }
        self.planes = planes;
        self.plane_bytes = plane_bytes;
        let n = planes * plane_bytes;
        let cursor = expand_levels(payload, n, &mut self.bitmap, &mut self.levels.tmp)?;
        self.counts.clear();
        self.filled.clear();
        let bm_per_plane = plane_bytes / 8;
        let mut c = cursor;
        for p in 0..planes {
            self.counts.push(c);
            self.filled.push(0);
            c += self.bitmap[p * bm_per_plane..(p + 1) * bm_per_plane]
                .iter()
                .map(|b| b.count_ones() as usize)
                .sum::<usize>();
        }
        if c != payload.len() {
            return Err(Error::Corrupt(format!(
                "zero-elimination payload length mismatch: need {c} bytes, have {}",
                payload.len()
            )));
        }
        Ok(())
    }

    /// Expand the next `out.len()` bytes of `plane` (a multiple of 8;
    /// each plane must be walked sequentially). `payload` must be the
    /// slice given to [`Self::begin_decode`], whose length check guarantees
    /// every cursor stays in bounds.
    #[inline]
    pub fn next_line(&mut self, payload: &[u8], plane: usize, out: &mut [u8]) {
        debug_assert!(out.len().is_multiple_of(8));
        debug_assert!(self.filled[plane] + out.len() <= self.plane_bytes);
        let bi0 = (plane * self.plane_bytes + self.filled[plane]) >> 3;
        let mut cur = self.counts[plane];
        if let Ok(l) = <&mut [u8; 64]>::try_from(&mut *out) {
            // The fused kernel's granularity: eight bitmap bytes form the
            // line kernel's 64-bit mask directly.
            let mask = u64::from_le_bytes(self.bitmap[bi0..bi0 + 8].try_into().unwrap());
            line::expand(mask, &payload[cur..], l);
            cur += mask.count_ones() as usize;
        } else {
            for (&mask, group) in self.bitmap[bi0..].iter().zip(out.chunks_exact_mut(8)) {
                group.copy_from_slice(&expand_group(mask, &payload[cur..]));
                cur += mask.count_ones() as usize;
            }
        }
        self.counts[plane] = cur;
        self.filled[plane] += out.len();
    }
}

/// Size in bytes of the `k`-th level bitmap for an `n`-byte input
/// (`k == 0` is the nonzero bitmap).
fn level_len(n: usize, k: usize) -> usize {
    let mut len = n;
    for _ in 0..=k {
        len = bitmap_len(len);
    }
    len
}

fn popcount_prefix(bitmap: &[u8], nbits: usize) -> usize {
    let full = nbits / 8;
    let mut c: usize = bitmap[..full].iter().map(|b| b.count_ones() as usize).sum();
    if !nbits.is_multiple_of(8) {
        c += (bitmap[full] & ((1u8 << (nbits % 8)) - 1)).count_ones() as usize;
    }
    c
}

/// Reconstruct a lower-level byte array of length `n` from its flag bitmap
/// and the flagged bytes into `out`, using `repeat_rule` to produce
/// unflagged bytes from the running predecessor (zero-fill otherwise).
fn expand_into(
    bitmap: &[u8],
    n: usize,
    payload: &[u8],
    cursor: &mut usize,
    repeat_rule: bool,
    out: &mut Vec<u8>,
) -> Result<()> {
    let needed = popcount_prefix(bitmap, n);
    let avail = payload.len().saturating_sub(*cursor);
    if needed > avail {
        return Err(Error::Truncated {
            offset: *cursor,
            needed,
            have: avail,
            what: "zero-elimination survivor bytes",
        });
    }
    out.clear();
    out.resize(n, 0);
    if repeat_rule {
        let mut prev = 0u8;
        for (i, slot) in out.iter_mut().enumerate() {
            if bitmap[i >> 3] >> (i & 7) & 1 == 1 {
                *slot = payload[*cursor];
                *cursor += 1;
            } else {
                *slot = prev;
            }
            prev = *slot;
        }
        return Ok(());
    }
    // Zero-fill rule: the inverse of `build_nonzero_into`. The up-front
    // `needed <= avail` check guarantees the payload holds every flagged
    // byte.
    let mut lines = out.chunks_exact_mut(64);
    for (l, bm) in (&mut lines).zip(bitmap.chunks_exact(8)) {
        let mask = u64::from_le_bytes(bm.try_into().unwrap());
        line::expand(mask, &payload[*cursor..], l.try_into().unwrap());
        *cursor += mask.count_ones() as usize;
    }
    let head = n - lines.into_remainder().len();
    for (g, &bm) in out[head..].chunks_mut(8).zip(&bitmap[head / 8..]) {
        // Bits past `n` in a partial final group are not survivors.
        let mask = bm & (0xFF >> (8 - g.len()));
        g.copy_from_slice(&expand_group(mask, &payload[*cursor..])[..g.len()]);
        *cursor += mask.count_ones() as usize;
    }
    Ok(())
}

/// Expand the level bitmaps at the head of `payload` (for an `n`-byte
/// input) down to the level-0 nonzero bitmap, which lands in `level0`;
/// `tmp` is the ping-pong partner. Returns the payload cursor past the
/// level bytes.
fn expand_levels(
    payload: &[u8],
    n: usize,
    level0: &mut Vec<u8>,
    tmp: &mut Vec<u8>,
) -> Result<usize> {
    let top_len = level_len(n, LEVELS);
    if payload.len() < top_len {
        return Err(Error::Truncated {
            offset: payload.len(),
            needed: top_len - payload.len(),
            have: 0,
            what: "zero-elimination top bitmap",
        });
    }
    level0.clear();
    level0.extend_from_slice(&payload[..top_len]);
    let mut cursor = top_len;
    // Walk back down: bitmap_k flags the non-repeating bytes of bitmap_{k-1}.
    for k in (0..LEVELS).rev() {
        expand_into(level0, level_len(n, k), payload, &mut cursor, true, tmp)?;
        std::mem::swap(level0, tmp);
    }
    Ok(cursor)
}

/// Decompress a payload produced by [`encode`] for an input of
/// `uncompressed_len` bytes, writing the reconstructed bytes into `out`
/// (cleared and resized). Returns the number of payload bytes consumed.
/// Level bitmaps live in `s`; nothing is allocated once the scratch and
/// `out` have grown to the chunk working set.
pub fn decode_into(
    payload: &[u8],
    uncompressed_len: usize,
    s: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<usize> {
    let n = uncompressed_len;
    let mut cursor = expand_levels(payload, n, &mut s.level0, &mut s.levels.tmp)?;
    expand_into(&s.level0, n, payload, &mut cursor, false, out)?;
    Ok(cursor)
}

/// Decompress a payload produced by [`encode`] for an input of
/// `uncompressed_len` bytes. Returns the reconstructed bytes and the number
/// of payload bytes consumed.
///
/// Convenience wrapper over [`decode_into`] that allocates fresh buffers;
/// hot paths should hold their own [`Scratch`].
pub fn decode(payload: &[u8], uncompressed_len: usize) -> Result<(Vec<u8>, usize)> {
    let mut s = Scratch::default();
    let mut out = Vec::new();
    let used = decode_into(payload, uncompressed_len, &mut s, &mut out)?;
    Ok((out, used))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(input: &[u8]) -> usize {
        let mut enc = Vec::new();
        encode(input, &mut enc);
        let (dec, used) = decode(&enc, input.len()).unwrap();
        assert_eq!(dec, input);
        assert_eq!(used, enc.len(), "every payload byte must be consumed");
        enc.len()
    }

    #[test]
    fn all_zero_input_is_tiny() {
        let size = roundtrip(&vec![0u8; 16384]);
        // 16 KiB of zeros: bitmap0 all zero → every level all zero →
        // only the 1-byte top bitmap remains.
        assert_eq!(size, 1, "all-zero 16 KiB should compress to 1 byte");
    }

    #[test]
    fn all_ones_input_overhead_is_small() {
        let size = roundtrip(&vec![0xFFu8; 16384]);
        // Data is incompressible (all bytes kept) but bitmaps collapse:
        // bitmap0 = 2048×0xFF → 1 differing byte, etc.
        assert!(size <= 16384 + 8, "got {size}");
    }

    #[test]
    fn paper_figure_example() {
        // Fig. 5-style: sparse nonzero bytes.
        let mut input = vec![0u8; 64];
        input[3] = 7;
        input[10] = 255;
        input[63] = 1;
        let mut enc = Vec::new();
        encode(&input, &mut enc);
        assert!(enc.len() < 64 / 2);
        let (dec, _) = decode(&enc, 64).unwrap();
        assert_eq!(dec, input);
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(&[]), 0);
    }

    #[test]
    fn small_inputs() {
        for n in 1..64usize {
            let input: Vec<u8> = (0..n).map(|i| (i * 37 % 256) as u8).collect();
            roundtrip(&input);
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let input = vec![1u8; 1000];
        let mut enc = Vec::new();
        encode(&input, &mut enc);
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            assert!(
                decode(&enc[..cut], 1000).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn scratch_reuse_across_inputs() {
        // One scratch must serve inputs of wildly different sizes in any
        // order (large → small must not leak stale bytes).
        let inputs: Vec<Vec<u8>> = vec![
            (0..9000u32).map(|i| (i % 251) as u8).collect(),
            vec![0u8; 17],
            vec![],
            (0..16384u32).map(|i| (i * 7 % 256) as u8).collect(),
            vec![3u8; 100],
        ];
        let mut s = Scratch::default();
        let mut out = Vec::new();
        for input in &inputs {
            let mut enc = Vec::new();
            let total = encode_to_scratch(input, &mut s);
            append_encoded(&s, &mut enc);
            assert_eq!(enc.len(), total);

            // write_encoded must produce identical bytes.
            let total2 = encode_to_scratch(input, &mut s);
            assert_eq!(total2, total);
            let mut slot = vec![0u8; total];
            write_encoded(&s, &mut slot);
            assert_eq!(slot, enc);

            let used = decode_into(&enc, input.len(), &mut s, &mut out).unwrap();
            assert_eq!(used, enc.len());
            assert_eq!(&out, input);
        }
    }

    /// The dispatched line kernel (AVX-512 where the host has it) must
    /// agree with the scalar definition on mask, count and survivor bytes,
    /// and both must invert through either expand.
    #[test]
    fn line_kernels_agree() {
        if !line::vector_available() {
            eprintln!(
                "line_kernels_agree: vector kernel skipped, host lacks AVX-512 BW/VBMI2 \
                 (the scalar kernel is checked alone)"
            );
        }
        let mut lines: Vec<[u8; 64]> =
            vec![[0; 64], [0xFF; 64], std::array::from_fn(|i| i as u8 + 1)];
        for i in 0..64 {
            let mut l = [0u8; 64];
            l[i] = 0x80 | i as u8;
            lines.push(l);
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for zero_eighths in 0..=8u64 {
            for _ in 0..2000 {
                lines.push(std::array::from_fn(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 8 < zero_eighths {
                        0
                    } else {
                        (x >> 32) as u8 | 1
                    }
                }));
            }
        }
        for l in &lines {
            let (mut dv, mut ds) = ([0u8; 64], [0u8; 64]);
            let (mv, nv) = line::compress(l, &mut dv);
            let (ms, ns) = line::compress_scalar(l, &mut ds);
            assert_eq!((mv, nv), (ms, ns), "line {l:?}");
            assert_eq!(dv[..nv], ds[..ns], "line {l:?}");
            assert_eq!(ms, (0..64).fold(0u64, |m, i| m | ((l[i] != 0) as u64) << i));
            let survivors: Vec<u8> = l.iter().copied().filter(|&b| b != 0).collect();
            assert_eq!(ds[..ns], survivors[..]);
            // Expand reads only the survivors; a longer source must not
            // change the result.
            for src in [&ds[..ns], &ds[..]] {
                let (mut ev, mut es) = ([0xAAu8; 64], [0x55u8; 64]);
                line::expand(ms, src, &mut ev);
                line::expand_scalar(ms, src, &mut es);
                assert_eq!(&ev, l);
                assert_eq!(&es, l);
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_random(input: Vec<u8>) {
            roundtrip(&input);
        }

        #[test]
        fn roundtrip_sparse(n in 0usize..5000, fills in prop::collection::vec((0usize..5000, 1u8..), 0..40)) {
            let mut input = vec![0u8; n];
            for (pos, val) in fills {
                if pos < n { input[pos] = val; }
            }
            let size = roundtrip(&input);
            // Sparse data must compress well below the raw size + overhead.
            prop_assert!(size <= n / 8 + 40 + input.iter().filter(|&&b| b != 0).count());
        }

        /// The streaming plane sink must serialize byte-identically to the
        /// staged whole-buffer encoder, and its plane decoder must invert
        /// it, for any plane shape and push granularity.
        #[test]
        fn plane_scratch_matches_staged(
            planes in 1usize..9,
            plane_groups in 1usize..9,
            piece_idx in 0usize..6,
            seed: u64,
            zero_every in 1u64..5,
        ) {
            let piece = [1usize, 2, 4, 8, 16, 64][piece_idx];
            let plane_bytes = plane_groups * 8;
            // Plane-major input with plenty of zero bytes.
            let mut x = seed | 1;
            let input: Vec<u8> = (0..planes * plane_bytes).map(|_| {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                if x.is_multiple_of(zero_every) { (x >> 8) as u8 } else { 0 }
            }).collect();

            let mut staged = Vec::new();
            encode(&input, &mut staged);

            let mut ps = PlaneScratch::default();
            ps.begin(planes, plane_bytes);
            for (p, row) in input.chunks_exact(plane_bytes).enumerate() {
                for part in row.chunks(piece) {
                    ps.push(p, part);
                }
            }
            let total = ps.finish_encode();
            prop_assert_eq!(total, staged.len());
            let mut fused = Vec::new();
            ps.append_to(&mut fused);
            prop_assert_eq!(&fused, &staged);
            let mut slot = vec![0u8; total];
            ps.write_to(&mut slot);
            prop_assert_eq!(&slot, &staged);

            // Plane-wise decode inverts it.
            ps.begin_decode(&staged, planes, plane_bytes).unwrap();
            let mut back = vec![0u8; planes * plane_bytes];
            for (p, row) in back.chunks_exact_mut(plane_bytes).enumerate() {
                for line in row.chunks_mut(8) {
                    ps.next_line(&staged, p, line);
                }
            }
            prop_assert_eq!(&back, &input);

            // Truncations must be rejected, never panic.
            for cut in [0, staged.len() / 2, staged.len().saturating_sub(1)] {
                if cut < staged.len() {
                    prop_assert!(ps.begin_decode(&staged[..cut], planes, plane_bytes).is_err());
                }
            }
        }

        #[test]
        fn swar_nonrepeat_matches_naive(src: Vec<u8>) {
            let mut bitmap = Vec::new();
            let mut data = Vec::new();
            build_nonrepeat_into(&src, &mut bitmap, &mut data);
            // Reference: one byte at a time.
            let mut nb = vec![0u8; bitmap_len(src.len())];
            let mut nd = Vec::new();
            let mut prev = 0u8;
            for (i, &b) in src.iter().enumerate() {
                if b != prev {
                    nb[i >> 3] |= 1 << (i & 7);
                    nd.push(b);
                }
                prev = b;
            }
            prop_assert_eq!(&bitmap, &nb);
            prop_assert_eq!(&data, &nd);
        }
    }
}
