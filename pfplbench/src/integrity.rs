//! The integrity consumer: `pfpl::verify_archive` and
//! `pfpl::decompress_salvage` (the serial per-chunk driver, as on the
//! stream workload) on copies of each input's archive in which a seeded set
//! of chunks is damaged.

use crate::{
    common_fields, load_inputs, pick_chunks, timed, Args, Budget, CallTimes, Json, Rng, Tally, Val,
};
use pfpl::container::{chunk_offsets, payload_checksum, Toc, RAW_FLAG};
use pfpl::{Mode, PfplFloat, SalvageReport};

/// An archive with damaged chunks, and what salvage must recover from it.
pub struct Damaged<V> {
    /// The archive with one bit flipped in each damaged chunk's payload.
    pub archive: Vec<u8>,
    /// Indices of the damaged chunks, ascending.
    pub chunks: Vec<usize>,
    /// Strict decode of the intact archive.
    pub strict: Vec<V>,
}

/// Flip one seeded bit in the payload of `k` seeded chunks of `archive`,
/// re-rolling a flip that the 32-bit chunk checksum happens not to see.
pub fn damage(archive: &[u8], k: usize, rng: &mut Rng) -> pfpl::Result<(Vec<u8>, Vec<usize>)> {
    let toc = Toc::read(archive)?;
    let payload_len = archive.len() - toc.payload_start;
    let offsets = chunk_offsets(&toc.sizes, payload_len, toc.payload_start)?;
    let chunks = pick_chunks(rng, toc.sizes.len(), k);
    let mut out = archive.to_vec();
    for &c in &chunks {
        let lo = toc.payload_start + offsets[c];
        let len = (toc.sizes[c] & !RAW_FLAG) as usize;
        loop {
            let pos = lo + rng.below(len);
            out[pos] ^= 1 << rng.below(8);
            if payload_checksum(c, &out[lo..lo + len])
                != payload_checksum(c, &archive[lo..lo + len])
            {
                break;
            }
            out[lo..lo + len].copy_from_slice(&archive[lo..lo + len]);
        }
    }
    Ok((out, chunks))
}

/// Indices of the chunks a report flags as damaged.
pub fn flagged(report: &SalvageReport) -> Vec<usize> {
    report
        .chunks
        .iter()
        .filter(|c| !c.status.is_ok())
        .map(|c| c.chunk)
        .collect()
}

/// True when a salvaged output holds the fill exactly in the damaged
/// chunks and the strict decode, bit for bit, everywhere else.
pub fn salvage_matches<V: Val>(out: &[V], d: &Damaged<V>, values_per_chunk: usize) -> bool {
    out.len() == d.strict.len()
        && out
            .chunks(values_per_chunk)
            .zip(d.strict.chunks(values_per_chunk))
            .enumerate()
            .all(|(i, (o, s))| {
                if d.chunks.binary_search(&i).is_ok() {
                    o.iter().all(|v| v.bits() == V::FILL.bits())
                } else {
                    crate::same_bits(o, s)
                }
            })
}

/// Run the consumer: `--data DIR --bound KIND:EB --seconds S --seed N`.
///
/// Each archive gets `1 + chunks / 64` damaged chunks. Prints one JSON line
/// with the uncompressed bytes the archives cover, each archive's fastest
/// verify and salvage call time, and the operation tally.
pub fn run<V: Val + PfplFloat>() {
    let args = Args::parse();
    let bound = args.bound();
    let seconds: f64 = args.num("seconds");
    let seed: u64 = args.num("seed");
    let inputs = load_inputs::<V>(args.str("data"));
    let vpc = pfpl::chunk::values_per_chunk::<V>();
    let mut tally = Tally::default();

    let mut cases = Vec::new();
    for (i, (name, data)) in inputs.iter().enumerate() {
        let made = pfpl::compress(data, bound, Mode::Parallel).and_then(|a| {
            let strict = pfpl::decompress::<V>(&a, Mode::Parallel)?;
            let k = 1 + data.len().div_ceil(vpc) / 64;
            let (archive, chunks) = damage(&a, k, &mut Rng::new(seed, i as u64))?;
            Ok(Damaged {
                archive,
                chunks,
                strict,
            })
        });
        tally.op(made.is_ok(), || {
            format!(
                "{name}: preparing the damaged archive: {:?}",
                made.as_ref().err()
            )
        });
        if let Ok(d) = made {
            cases.push((name, data.len() * V::BYTES, d));
        }
    }

    let bytes: usize = cases.iter().map(|(_, n, _)| n).sum();
    let (mut t_verify, mut t_salvage) = (CallTimes::default(), CallTimes::default());
    let budget = Budget::new(seconds, 1);
    let mut pass = 0;
    while budget.more(pass) {
        for (i, (name, _, d)) in cases.iter().enumerate() {
            let (rep, tv) = timed(|| pfpl::verify_archive::<V>(&d.archive));
            let (sal, ts) =
                timed(|| pfpl::decompress_salvage::<V>(&d.archive, Mode::Serial, V::FILL));
            t_verify.record(i, tv);
            t_salvage.record(i, ts);
            let ok = rep.as_ref().is_ok_and(|r| flagged(r) == d.chunks);
            tally.op(ok, || {
                format!("{name}: verify flagged the wrong chunks: {rep:?}")
            });
            let ok = sal
                .as_ref()
                .is_ok_and(|(out, r)| flagged(r) == d.chunks && salvage_matches(out, d, vpc));
            tally.op(ok, || format!("{name}: salvage output or report is wrong"));
        }
        pass += 1;
    }

    let mut j = Json::default();
    j.num("passes", pass as f64)
        .num("bytes", bytes as f64)
        .nums("verify_best_s", &t_verify.best())
        .nums("salvage_best_s", &t_salvage.best());
    let largest = inputs
        .iter()
        .map(|(_, d)| d.len() * V::BYTES)
        .max()
        .unwrap_or(0);
    common_fields(&mut j, &tally, largest);
    j.print();
}
