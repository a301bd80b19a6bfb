//! The one-shot codec consumer: `pfpl::compress` and `pfpl::decompress`
//! in `Mode::Serial`, called once per input file from one closed-loop
//! client thread. The default mode (`Mode::Parallel`) runs once per input,
//! untimed, as the reference the serial archives and decodes must match.

use crate::{
    common_fields, digest, load_inputs, same_bits, timed, to_bytes, us, violations, write_file,
    Args, Budget, CallTimes, Json, Tally, Val,
};
use pfpl::{Mode, PfplFloat};
use std::path::Path;

/// Reference outputs of the first pass, which later passes must repeat.
struct Reference {
    archive: Vec<u8>,
    digest: u64,
}

/// Run the consumer: `--data DIR --bound KIND:EB --seconds S [--ref DIR]`.
///
/// Prints one JSON line: serial GB/s per direction (input bytes over the
/// sum of each input's fastest call time), each input's fastest call time
/// in seconds and microseconds (the latency of a call on it), the
/// compression ratio, the cold set-up time, and the
/// operation tally. With `--ref`, the first pass's archives (`NAME.pfpl`)
/// and decoded outputs (`NAME.out`) are written there for the CLI check.
pub fn run<V: Val + PfplFloat>() {
    let args = Args::parse();
    let bound = args.bound();
    let seconds: f64 = args.num("seconds");
    let inputs = load_inputs::<V>(args.str("data"));
    let mut tally = Tally::default();

    // Set-up: the first calls of a fresh process pay first-touch page
    // faults, any lazy initialization and the pool's start-up. The default
    // mode runs on a 16 KiB head of the input only, so the figure does not
    // follow how much of the second CPU the host's other tenants leave free.
    let (first, setup_s) = timed(|| {
        let data = &inputs[0].1;
        let head = &data[..data.len().min(16384 / V::BYTES)];
        pfpl::compress(data, bound, Mode::Serial)
            .and_then(|a| pfpl::decompress::<V>(&a, Mode::Serial))
            .and_then(|_| pfpl::compress(head, bound, Mode::Parallel))
            .and_then(|a| pfpl::decompress::<V>(&a, Mode::Parallel))
    });
    tally.op(first.is_ok(), || format!("set-up call: {:?}", first.err()));

    let mut refs: Vec<Reference> = Vec::with_capacity(inputs.len());
    // Serial call times of compress and decompress.
    let mut times: [CallTimes; 2] = Default::default();
    let (mut raw_total, mut archive_total) = (0usize, 0usize);
    let budget = Budget::new(seconds, 1);
    let mut pass = 0;
    while budget.more(pass) {
        for (i, (name, data)) in inputs.iter().enumerate() {
            let (cs, tcs) = timed(|| pfpl::compress(data, bound, Mode::Serial));
            let cs = match cs {
                Ok(a) => a,
                Err(e) => {
                    tally.op(false, || format!("{name}: serial compress {e:?}"));
                    if pass == 0 {
                        refs.push(Reference {
                            archive: Vec::new(),
                            digest: 0,
                        });
                    }
                    continue;
                }
            };
            let (ds, tds) = timed(|| pfpl::decompress::<V>(&cs, Mode::Serial));
            times[0].record(i, tcs);
            times[1].record(i, tds);

            // Checks, outside the timed calls.
            if pass == 0 {
                // The default mode runs once per input, as the reference
                // the serial calls must match byte for byte.
                tally.op(true, String::new);
                let cp = pfpl::compress(data, bound, Mode::Parallel);
                let same = cp.as_ref().is_ok_and(|cp| *cp == cs);
                tally.op(same, || {
                    format!(
                        "{name}: serial and parallel archives differ ({:?})",
                        cp.err()
                    )
                });
                let dp = pfpl::decompress::<V>(&cs, Mode::Parallel);
                let bad = dp
                    .as_ref()
                    .map_or(usize::MAX, |d| violations(data, d, bound));
                tally.op(bad == 0, || {
                    format!("{name}: {bad} values outside the bound")
                });
                let same = matches!((&dp, &ds), (Ok(p), Ok(s)) if same_bits(p, s));
                tally.op(same, || {
                    format!("{name}: serial and parallel decode differ")
                });
                let d = dp.unwrap_or_default();
                if let Some(dir) = args.opt("ref") {
                    write_file(&Path::new(dir).join(format!("{name}.pfpl")), &cs);
                    write_file(&Path::new(dir).join(format!("{name}.out")), &to_bytes(&d));
                }
                raw_total += data.len() * V::BYTES;
                archive_total += cs.len();
                refs.push(Reference {
                    archive: cs,
                    digest: digest(&d),
                });
            } else {
                let r = &refs[i];
                tally.op(cs == r.archive, || {
                    format!("{name}: serial archive changed")
                });
                let same = ds.as_ref().is_ok_and(|d| digest(d) == r.digest);
                tally.op(same, || format!("{name}: serial decode changed"));
            }
        }
        pass += 1;
    }

    let gbs = |t: &CallTimes| raw_total as f64 / t.total() / 1e9;
    let mut j = Json::default();
    j.num("passes", pass as f64)
        .num("compress_serial_gbs", gbs(&times[0]))
        .num("decompress_serial_gbs", gbs(&times[1]))
        .num("ratio", raw_total as f64 / archive_total as f64)
        .num("setup_s", setup_s)
        .num("serial_pass_s", times[0].total() + times[1].total())
        .num("bytes", raw_total as f64)
        .nums("compress_best_s", &times[0].best())
        .nums("decompress_best_s", &times[1].best())
        .nums("compress_us", &us(&times[0]))
        .nums("decompress_us", &us(&times[1]));
    let largest = inputs
        .iter()
        .map(|(_, d)| d.len() * V::BYTES)
        .max()
        .unwrap_or(0);
    common_fields(&mut j, &tally, largest);
    j.print();
}
