//! Consumer for `stream-f32-abs`: a sensor signal pushed into
//! `StreamCompressor` in acquisition-sized batches and read back through
//! `decompress_chunks`; `verify_archive` and `decompress_salvage` (serial,
//! the per-chunk driver without the pool) then run on a copy with damaged
//! chunks. One-shot `pfpl::compress`/`decompress` in `Mode::Serial` run
//! once, untimed: the streamed archive must equal the one-shot archive. The stream API runs on the calling thread alone, so its GB/s
//! are reported as the workload's serial figures.
//!
//! `--data DIR --bound abs:EB --seconds S --seed N [--ref DIR]`

use pfpl::{decompress_chunks, Mode, StreamCompressor};
use pfplbench::integrity::{damage, flagged, salvage_matches, Damaged};
use pfplbench::{
    common_fields, load_inputs, same_bits, timed, to_bytes, us, violations, write_file, Args,
    Budget, CallTimes, Json, Rng, Tally,
};
use std::path::Path;

/// Values per push: the acquisition batch of the `streaming_sensor` example.
const BATCH: usize = 1713;

/// Encode `signal` through the streaming encoder, recording each push's
/// time under its batch number.
fn stream_encode(
    signal: &[f32],
    bound: pfpl::ErrorBound,
    lat: &mut CallTimes,
) -> pfpl::Result<Vec<u8>> {
    let mut enc = StreamCompressor::<f32>::new(bound)?;
    for (i, batch) in signal.chunks(BATCH).enumerate() {
        let ((), t) = timed(|| enc.push(batch));
        lat.record(i, t);
    }
    Ok(enc.finish().0)
}

/// Decode through the chunk iterator into `out` (cleared first; a reader
/// keeps its buffer from one archive to the next), recording each chunk's
/// time under its chunk number.
fn stream_decode(archive: &[u8], out: &mut Vec<f32>, lat: &mut CallTimes) -> pfpl::Result<()> {
    out.clear();
    let mut it = decompress_chunks::<f32>(archive)?;
    let mut n = 0;
    loop {
        let (next, t) = timed(|| it.next());
        let Some(chunk) = next else { break };
        lat.record(n, t);
        n += 1;
        out.extend_from_slice(&chunk?);
    }
    Ok(())
}

fn main() {
    let args = Args::parse();
    let bound = args.bound();
    let seconds: f64 = args.num("seconds");
    let seed: u64 = args.num("seed");
    let inputs = load_inputs::<f32>(args.str("data"));
    let signal = &inputs[0].1;
    let nbytes = (signal.len() * 4) as f64;
    let vpc = pfpl::chunk::values_per_chunk::<f32>();
    let mut tally = Tally::default();

    // Set-up: the first encode/decode session of a fresh process.
    let (first, setup_s) = timed(|| {
        stream_encode(signal, bound, &mut CallTimes::default()).and_then(|a| {
            let mut d = Vec::new();
            stream_decode(&a, &mut d, &mut CallTimes::default()).map(|()| (a, d))
        })
    });
    let (reference, strict) =
        first.unwrap_or_else(|e| pfplbench::die(&format!("set-up session: {e}")));
    tally.op(true, String::new);
    let bad = violations(signal, &strict, bound);
    tally.op(bad == 0, || format!("{bad} values outside the bound"));
    let k = 1 + signal.len().div_ceil(vpc) / 64;
    let (damaged, chunks) = damage(&reference, k, &mut Rng::new(seed, 0))
        .unwrap_or_else(|e| pfplbench::die(&format!("damaging the archive: {e}")));
    let case = Damaged {
        archive: damaged,
        chunks,
        strict,
    };
    if let Some(dir) = args.opt("ref") {
        write_file(
            &Path::new(dir).join(format!("{}.pfpl", inputs[0].0)),
            &reference,
        );
        write_file(
            &Path::new(dir).join(format!("{}.out", inputs[0].0)),
            &to_bytes(&case.strict),
        );
    }

    // Times of: stream encode, chunk-iterator decode, verify, salvage.
    let mut times: [CallTimes; 4] = Default::default();
    let (mut lat_c, mut lat_d) = (CallTimes::default(), CallTimes::default());
    let mut decoded = Vec::new();
    let budget = Budget::new(seconds, 1);
    let mut pass = 0;
    while budget.more(pass) {
        let (enc, t0) = timed(|| stream_encode(signal, bound, &mut lat_c));
        let (dec, t1) = timed(|| stream_decode(&reference, &mut decoded, &mut lat_d));
        let (rep, t2) = timed(|| pfpl::verify_archive::<f32>(&case.archive));
        let (sal, t3) =
            timed(|| pfpl::decompress_salvage::<f32>(&case.archive, Mode::Serial, f32::NAN));
        for (c, t) in times.iter_mut().zip([t0, t1, t2, t3]) {
            c.record(0, t);
        }

        let same = |r: &pfpl::Result<Vec<u8>>| r.as_ref().is_ok_and(|a| *a == reference);
        tally.op(same(&enc), || "streamed archive changed".into());
        let same_dec =
            |r: &pfpl::Result<Vec<f32>>| r.as_ref().is_ok_and(|d| same_bits(d, &case.strict));
        let ok = dec.is_ok() && same_bits(&decoded, &case.strict);
        tally.op(ok, || format!("chunk-iterator decode changed: {dec:?}"));
        if pass == 0 {
            let one = pfpl::compress(signal, bound, Mode::Serial);
            tally.op(same(&one), || {
                "one-shot archive differs from the streamed one".into()
            });
            let full = pfpl::decompress::<f32>(&reference, Mode::Serial);
            tally.op(same_dec(&full), || {
                "one-shot decode differs from the chunk iterator".into()
            });
        }
        let ok = rep.as_ref().is_ok_and(|r| flagged(r) == case.chunks);
        tally.op(ok, || format!("verify flagged the wrong chunks: {rep:?}"));
        let ok = sal
            .as_ref()
            .is_ok_and(|(out, r)| flagged(r) == case.chunks && salvage_matches(out, &case, vpc));
        tally.op(ok, || "salvage output or report is wrong".into());
        pass += 1;
    }

    let gbs = |t: &CallTimes| nbytes / t.total() / 1e9;
    let mut j = Json::default();
    j.num("passes", pass as f64)
        .num("compress_serial_gbs", gbs(&times[0]))
        .num("decompress_serial_gbs", gbs(&times[1]))
        .num("ratio", nbytes / reference.len() as f64)
        .num("setup_s", setup_s)
        .num("serial_pass_s", times[0].total() + times[1].total())
        .num("bytes", nbytes)
        .nums("compress_best_s", &times[0].best())
        .nums("decompress_best_s", &times[1].best())
        .nums("verify_best_s", &times[2].best())
        .nums("salvage_best_s", &times[3].best())
        .nums("compress_us", &us(&lat_c))
        .nums("decompress_us", &us(&lat_d));
    common_fields(&mut j, &tally, signal.len() * 4);
    j.print();
}
