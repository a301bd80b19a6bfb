//! Input generator: writes one workload's raw little-endian inputs for a
//! seed. The seed changes the values themselves, not only their order.
//!
//! `gen --workload NAME --seed N --out DIR`
//!
//! * `suites-f32-abs`, `suites-f64-rel`: the `pfpl-data` suites of that
//!   precision at `SizeClass::Small`, one file per field. Each field gets a
//!   seeded affine map (scale within ±2 %, offset within ±1 % of its
//!   standard deviation) and a seeded cyclic rotation, so every value and
//!   every chunk's contents change with the seed while each suite keeps its
//!   statistical character.
//! * `events-f32-noa`: 64 detector-like events of 256 KiB (64 channels ×
//!   1024 samples: pedestal, Gaussian noise, sparse pulses, a saturating
//!   calibration pulse, clipped at a 12-bit full scale), and all 64 as one
//!   capture file in `cli/` for the CLI.
//! * `stream-f32-abs`: 4 Mi samples of the `streaming_sensor` signal shape
//!   (sine plus drift, a saturated reading every 100 000 samples).

use pfpl_data::{all_suites, FieldData, SizeClass};
use pfplbench::{die, to_bytes, write_file, Args, Rng, Val};
use std::path::Path;

fn perturb<V: Val>(vals: &[V], rng: &mut Rng) -> Vec<V> {
    let n = vals.len() as f64;
    let mean = vals.iter().map(|v| v.wide()).sum::<f64>() / n;
    let var = vals.iter().map(|v| (v.wide() - mean).powi(2)).sum::<f64>() / n;
    let scale = 1.0 + 0.04 * (rng.unit() - 0.5);
    let offset = 0.02 * (rng.unit() - 0.5) * var.sqrt();
    let mut out: Vec<V> = vals
        .iter()
        .map(|v| V::narrow(v.wide() * scale + offset))
        .collect();
    let shift = rng.below(vals.len());
    out.rotate_left(shift);
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn suites(double: bool, seed: u64, out: &Path) {
    let mut k = 0u64;
    for suite in all_suites(SizeClass::Small)
        .into_iter()
        .filter(|s| s.double == double)
    {
        for f in &suite.fields {
            let mut rng = Rng::new(seed, k);
            k += 1;
            let bytes = match &f.data {
                FieldData::F32(v) => to_bytes(&perturb(v, &mut rng)),
                FieldData::F64(v) => to_bytes(&perturb(v, &mut rng)),
            };
            let name = format!(
                "{}_{}.{}",
                sanitize(suite.name),
                sanitize(&f.name),
                if double { "f64" } else { "f32" }
            );
            write_file(&out.join(name), &bytes);
        }
    }
}

fn events(seed: u64, out: &Path) {
    const CHANNELS: usize = 64;
    const SAMPLES: usize = 1024;
    // Full scale of a 12-bit digitizer; every event carries one calibration
    // pulse that saturates it, as detector test pulses do, so the NOA range
    // (and with it the derived bound) is nearly the same in every event.
    const FULL_SCALE: f64 = 4095.0;
    let mut capture = Vec::new();
    for e in 0..64u64 {
        let mut rng = Rng::new(seed, e);
        let mut ev = Vec::with_capacity(CHANNELS * SAMPLES);
        for ch in 0..CHANNELS {
            let pedestal = 100.0 + 5.0 * rng.normal();
            let mut wave: Vec<f64> = (0..SAMPLES)
                .map(|_| pedestal + 2.0 * rng.normal())
                .collect();
            let pulses = rng.below(4) + usize::from(ch == 0);
            for p in 0..pulses {
                let t0 = rng.below(SAMPLES);
                let amp = if ch == 0 && p == 0 {
                    2.0 * FULL_SCALE
                } else {
                    -200.0 * (1.0 - rng.unit()).ln()
                };
                let tau = 4.0 + 8.0 * rng.unit();
                for (t, w) in wave[t0..].iter_mut().enumerate().take(12 * tau as usize) {
                    let x = t as f64 / tau;
                    *w += amp * x * (1.0 - x).exp();
                }
            }
            ev.extend(wave.into_iter().map(|v| v.min(FULL_SCALE) as f32));
        }
        write_file(&out.join(format!("ev{e:02}.f32")), &to_bytes(&ev));
        capture.extend(ev);
    }
    // The CLI compresses the whole run as one capture file: one 256 KiB
    // event per process would time process start-up, not the compressor.
    let cli = out.join("cli");
    std::fs::create_dir_all(&cli).unwrap_or_else(|e| die(&format!("{}: {e}", cli.display())));
    write_file(&cli.join("capture.f32"), &to_bytes(&capture));
}

fn stream(seed: u64, out: &Path) {
    let mut rng = Rng::new(seed, 0);
    let freq = 3e-4 * (1.0 + 0.04 * (rng.unit() - 0.5));
    let amp = 12.0 * (1.0 + 0.08 * (rng.unit() - 0.5));
    let phase = std::f64::consts::TAU * rng.unit();
    let glitch = rng.below(100_000) as u64;
    let signal: Vec<f32> = (0..1u64 << 22)
        .map(|t| {
            if t % 100_000 == glitch {
                f32::INFINITY
            } else {
                ((t as f64 * freq + phase).sin() * amp + t as f64 * 1e-6) as f32
            }
        })
        .collect();
    write_file(&out.join("signal.f32"), &to_bytes(&signal));
}

fn main() {
    let args = Args::parse();
    let seed: u64 = args.num("seed");
    let out = Path::new(args.str("out"));
    std::fs::create_dir_all(out).unwrap_or_else(|e| die(&format!("{}: {e}", out.display())));
    match args.str("workload") {
        "suites-f32-abs" => suites(false, seed, out),
        "suites-f64-rel" => suites(true, seed, out),
        "events-f32-noa" => events(seed, out),
        "stream-f32-abs" => stream(seed, out),
        w => die(&format!("unknown workload `{w}`")),
    }
}
