//! Per-stage and end-to-end pipeline profile.
//!
//! Measures GB/s (uncompressed bytes / median wall-clock, paper §IV
//! convention) for each of the four pipeline stages in both directions,
//! the fused vs staged chunk kernels head-to-head, plus end-to-end
//! compression and decompression — serial once, parallel swept across
//! pool threads with the actual thread count keyed per measurement —
//! and writes the results to `BENCH_pipeline.json`. `host_cpus` records
//! the machine's available parallelism; sweep points above it are not
//! measured (the pool clamps them to `host_cpus` workers anyway, and
//! oversubscribed runs only produce misleading scheduler noise) — their
//! JSON value is the string `"skipped_oversubscribed"`.
//!
//! Flags: `--values N` (input size, default 4 Mi values = 16 MiB),
//! `--runs R` (median-of-R, default 5), `--out PATH`.

use pfpl::chunk::{self, CHUNK_BYTES};
use pfpl::lossless::{delta, shuffle, zeroelim};
use pfpl::quantize::{AbsQuantizer, Quantizer};
use pfpl::types::{ErrorBound, Mode};
use pfpl_data::timing::{median_seconds, throughput_gbs};
use std::hint::black_box;

const BOUND: f64 = 1e-3;

fn main() {
    let mut values: usize = 4096 * 1024;
    let mut runs: usize = 5;
    let mut out_path = String::from("BENCH_pipeline.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        let parse_usize = |flag: &str, v: String| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("{flag}: expected a positive integer, got `{v}`");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--values" => values = parse_usize("--values", take("--values")),
            "--runs" => runs = parse_usize("--runs", take("--runs")),
            "--out" => out_path = take("--out"),
            other => {
                eprintln!("unknown flag {other} (known: --values --runs --out)");
                std::process::exit(2);
            }
        }
    }

    let vals: Vec<f32> = (0..values)
        .map(|i| (i as f32 * 0.003).sin() * 12.0)
        .collect();
    let bytes = values * 4;
    let q = AbsQuantizer::<f32>::new(BOUND as f32).unwrap();
    let vpc = chunk::values_per_chunk::<f32>();

    // ---- compress stages (chunked, steady-state scratch reuse) ----------
    let mut qwords = vec![0u32; values];
    let t_quant = median_seconds(runs, || {
        // The batched kernel the chunk pipeline actually runs.
        black_box(q.encode_slice(&vals, &mut qwords));
    });

    // Delta is in-place and its cost does not depend on the values, so it
    // is timed directly on a working copy; the later stages read the
    // delta words of one clean pass, kept apart.
    let mut dwords = qwords.clone();
    for c in dwords.chunks_mut(vpc) {
        delta::encode_in_place(c);
    }
    let mut wbuf = qwords.clone();
    let t_delta = median_seconds(runs, || {
        for c in wbuf.chunks_mut(vpc) {
            delta::encode_in_place(c);
        }
        black_box(&mut wbuf);
    });

    let mut sbytes = vec![0u8; bytes];
    let t_shuffle = median_seconds(runs, || {
        for (c, b) in dwords.chunks(vpc).zip(sbytes.chunks_mut(CHUNK_BYTES)) {
            shuffle::encode(c, &mut b[..c.len() * 4]);
        }
    });

    let mut ze = zeroelim::Scratch::default();
    let t_ze = median_seconds(runs, || {
        for cb in sbytes.chunks(CHUNK_BYTES) {
            black_box(zeroelim::encode_to_scratch(cb, &mut ze));
        }
    });

    // ---- decompress stages ----------------------------------------------
    let payloads: Vec<Vec<u8>> = sbytes
        .chunks(CHUNK_BYTES)
        .map(|cb| {
            let mut v = Vec::new();
            zeroelim::encode(cb, &mut v);
            v
        })
        .collect();
    let mut ze_out = Vec::new();
    let t_ze_dec = median_seconds(runs, || {
        for (p, cb) in payloads.iter().zip(sbytes.chunks(CHUNK_BYTES)) {
            zeroelim::decode_into(p, cb.len(), &mut ze, &mut ze_out).unwrap();
        }
    });

    let mut words_back = vec![0u32; values];
    let t_unshuffle = median_seconds(runs, || {
        for (c, b) in words_back.chunks_mut(vpc).zip(sbytes.chunks(CHUNK_BYTES)) {
            shuffle::decode(&b[..c.len() * 4], c);
        }
    });

    let t_undelta = median_seconds(runs, || {
        for c in wbuf.chunks_mut(vpc) {
            delta::decode_in_place(c);
        }
        black_box(&mut wbuf);
    });

    // The batched decode both chunk decoders call.
    let mut back = vec![0f32; values];
    let t_dequant = median_seconds(runs, || {
        for (w, v) in qwords.chunks(vpc).zip(back.chunks_mut(vpc)) {
            q.decode_slice(w, v);
        }
        black_box(&mut back);
    });

    // ---- fused vs staged chunk kernels ----------------------------------
    // Same chunking, same scratch reuse; the only difference is one pass
    // through L1-resident tiles versus four passes through 16 KiB buffers.
    let mut cscratch = chunk::Scratch::<f32>::default();
    let mut cout = Vec::with_capacity(bytes);
    let t_ck_fused = median_seconds(runs, || {
        cout.clear();
        for c in vals.chunks(vpc) {
            black_box(chunk::compress_chunk(&q, c, &mut cscratch, &mut cout));
        }
    });
    let t_ck_staged = median_seconds(runs, || {
        cout.clear();
        for c in vals.chunks(vpc) {
            black_box(chunk::compress_chunk_staged(&q, c, &mut cscratch, &mut cout));
        }
    });
    let chunk_payloads: Vec<(Vec<u8>, chunk::ChunkInfo, usize)> = vals
        .chunks(vpc)
        .map(|c| {
            let mut v = Vec::new();
            let info = chunk::compress_chunk(&q, c, &mut cscratch, &mut v);
            (v, info, c.len())
        })
        .collect();
    let mut cvals = vec![0f32; vpc];
    let t_ck_dec_fused = median_seconds(runs, || {
        for (p, info, n) in &chunk_payloads {
            chunk::decompress_chunk(&q, p, info.raw, &mut cvals[..*n], &mut cscratch).unwrap();
        }
    });
    let t_ck_dec_staged = median_seconds(runs, || {
        for (p, info, n) in &chunk_payloads {
            chunk::decompress_chunk_staged(&q, p, info.raw, &mut cvals[..*n], &mut cscratch)
                .unwrap();
        }
    });

    // ---- end to end ------------------------------------------------------
    let bound = ErrorBound::Abs(BOUND);
    let archive = pfpl::compress(&vals, bound, Mode::Serial).unwrap();
    let ratio = bytes as f64 / archive.len() as f64;
    let t_comp_serial = median_seconds(runs, || {
        black_box(pfpl::compress(&vals, bound, Mode::Serial).unwrap());
    });
    let t_dec_serial = median_seconds(runs, || {
        black_box(pfpl::decompress::<f32>(&archive, Mode::Serial).unwrap());
    });

    // ---- integrity: checksum tax and salvage throughput ------------------
    // `decompress` verifies every chunk against the v2 checksum table by
    // default; `decompress_unverified` isolates the tax. The two are timed
    // interleaved (verified, unverified, verified, ...) so slow clock drift
    // on a shared host hits both paths equally instead of skewing the
    // ratio — the tax is a CI gate, so it must not absorb ambient noise.
    let (t_dec_verified, t_dec_unverified) = {
        black_box(pfpl::decompress::<f32>(&archive, Mode::Serial).unwrap());
        black_box(pfpl::decompress_unverified::<f32>(&archive, Mode::Serial).unwrap());
        let (mut tv, mut tu) = (Vec::with_capacity(runs), Vec::with_capacity(runs));
        for _ in 0..runs {
            let t0 = std::time::Instant::now();
            black_box(pfpl::decompress::<f32>(&archive, Mode::Serial).unwrap());
            tv.push(t0.elapsed().as_secs_f64());
            let t0 = std::time::Instant::now();
            black_box(pfpl::decompress_unverified::<f32>(&archive, Mode::Serial).unwrap());
            tu.push(t0.elapsed().as_secs_f64());
        }
        let med = |ts: &mut Vec<f64>| {
            ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ts[ts.len() / 2]
        };
        (med(&mut tv), med(&mut tu))
    };
    let t_salvage = median_seconds(runs, || {
        black_box(pfpl::decompress_salvage::<f32>(&archive, Mode::Serial, 0.0f32).unwrap());
    });
    let t_verify_only = median_seconds(runs, || {
        black_box(pfpl::verify_archive::<f32>(&archive).unwrap());
    });

    let gbs = |secs: f64| throughput_gbs(bytes, secs);

    // Thread-scaling sweep: parallel mode at 1/2/4/8 pool threads, the
    // actual thread count keyed per measurement. Sweep points above the
    // host's core count are skipped outright — the pool clamps them to
    // `host_cpus` workers, so measuring them would just re-time the
    // clamped configuration and commit it under a misleading key.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut comp_by_threads = String::new();
    let mut dec_by_threads = String::new();
    for (i, &t) in [1usize, 2, 4, 8].iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        if t > host_cpus {
            comp_by_threads.push_str(&format!("{sep}\"{t}\": \"skipped_oversubscribed\""));
            dec_by_threads.push_str(&format!("{sep}\"{t}\": \"skipped_oversubscribed\""));
            continue;
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build_global()
            .expect("configure pool size");
        let tc = median_seconds(runs, || {
            black_box(pfpl::compress(&vals, bound, Mode::Parallel).unwrap());
        });
        let td = median_seconds(runs, || {
            black_box(pfpl::decompress::<f32>(&archive, Mode::Parallel).unwrap());
        });
        comp_by_threads.push_str(&format!("{sep}\"{t}\": {:.4}", gbs(tc)));
        dec_by_threads.push_str(&format!("{sep}\"{t}\": {:.4}", gbs(td)));
    }

    let json = format!(
        r#"{{
  "bench": "pipeline",
  "input": {{
    "values": {values},
    "bytes": {bytes},
    "precision": "f32",
    "bound": {{ "kind": "abs", "value": {BOUND} }}
  }},
  "runs": {runs},
  "host_cpus": {host_cpus},
  "stages_gbs": {{
    "threads": 1,
    "compress": {{
      "quantize": {quant:.4},
      "delta": {delta:.4},
      "shuffle": {shuf:.4},
      "zeroelim": {ze:.4}
    }},
    "decompress": {{
      "zeroelim": {ze_d:.4},
      "unshuffle": {unshuf:.4},
      "undelta": {undelta:.4},
      "dequantize": {dequant:.4}
    }}
  }},
  "chunk_kernel_gbs": {{
    "compress": {{ "fused": {ckf:.4}, "staged": {cks:.4} }},
    "decompress": {{ "fused": {ckdf:.4}, "staged": {ckds:.4} }}
  }},
  "end_to_end_gbs": {{
    "compress": {{ "serial": {cs:.4}, "parallel_by_threads": {{ {comp_by_threads} }} }},
    "decompress": {{ "serial": {ds:.4}, "parallel_by_threads": {{ {dec_by_threads} }} }}
  }},
  "integrity_gbs": {{
    "decompress_verified": {dv:.4},
    "decompress_unverified": {du:.4},
    "salvage": {sal:.4},
    "verify_only": {vo:.4},
    "verified_over_unverified": {tax:.4}
  }},
  "compression_ratio": {ratio:.4}
}}
"#,
        dv = gbs(t_dec_verified),
        du = gbs(t_dec_unverified),
        sal = gbs(t_salvage),
        vo = gbs(t_verify_only),
        tax = t_dec_unverified / t_dec_verified.max(1e-12),
        ckf = gbs(t_ck_fused),
        cks = gbs(t_ck_staged),
        ckdf = gbs(t_ck_dec_fused),
        ckds = gbs(t_ck_dec_staged),
        quant = gbs(t_quant),
        delta = gbs(t_delta),
        shuf = gbs(t_shuffle),
        ze = gbs(t_ze),
        ze_d = gbs(t_ze_dec),
        unshuf = gbs(t_unshuffle),
        undelta = gbs(t_undelta),
        dequant = gbs(t_dequant),
        cs = gbs(t_comp_serial),
        ds = gbs(t_dec_serial),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // Keep the measurement honest: the decompressed data must round-trip.
    let check: Vec<f32> = pfpl::decompress(&archive, Mode::Serial).unwrap();
    assert!(vals
        .iter()
        .zip(&check)
        .all(|(a, b)| (a - b).abs() <= BOUND as f32 + 1e-7));
}
