//! Traced run: times calls into each layer's public functions from
//! outside, on the same inputs as the end-to-end consumers.
//!
//! `traced --type f32|f64 --kind codec|stream --data DIR --bound KIND:EB
//!         --seconds S --spans FILE`
//!
//! Every input of every pass is one top-level call with its own id. Under
//! that id the binary records spans (name, start, end, parent):
//!
//! * `e2e.compress` / `e2e.decompress` — the workload's own end-to-end path
//!   (one-shot serial `pfpl::compress`/`decompress` for `codec`; the
//!   streaming encoder and chunk iterator for `stream`);
//! * `replay.compress` — the serial compress driver rebuilt from its
//!   layers, with children `chunk.compress` (fused kernel),
//!   `checksum.compress` and, under NOA, `quantize.noa_range`;
//! * `replay.decompress` — children `container.toc_read`,
//!   `checksum.decompress` and `chunk.decompress`;
//! * `stages.compress` / `stages.decompress` — the staged per-chunk
//!   pipeline rebuilt from the stage functions, children
//!   `quantize.*`, `delta.*`, `shuffle.*`, `zeroelim.*`;
//! * `staged.compress` / `staged.decompress` — the library's staged chunk
//!   kernels (`chunk.compress_staged`, `chunk.decompress_staged`);
//! * `pool.*` — one-shot calls in both modes (the default mode's GB/s and
//!   per-call p99 latencies are reported here, not end to end, because they
//!   follow how much of the second CPU the host's other tenants leave
//!   free and do not repeat across runs), and empty pool dispatches;
//! * `stream.push`, `stream.iter`, `salvage.verify`, `salvage.decode`.
//!
//! Spans stay in memory and are written to `--spans` as TSV at exit. The
//! per-layer metrics (self time = span minus its children) are computed per
//! pass and reported as medians over passes on one JSON line. This binary
//! instantiates far more of `pfpl` than any consumer, which moves the
//! compiled code of the end-to-end path; `e2e_pass_s` here against the
//! consumer's `serial_pass_s` is that trace overhead.

use pfpl::chunk::{self, Scratch};
use pfpl::compress::ChunkDecoder;
use pfpl::container::{chunk_offsets, payload_checksum, Toc, RAW_FLAG};
use pfpl::float::Word;
use pfpl::lossless::{delta, shuffle, zeroelim};
use pfpl::quantize::{derive_noa_bound, Quantizer};
use pfpl::{decompress_chunks, ErrorBound, Mode, PfplFloat, StreamCompressor};
use pfplbench::{die, load_inputs, median, same_bits, Args, Budget, CallTimes, Json, Tally, Val};
use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

const NONE: u32 = u32::MAX;
/// Values per push of the streaming encoder (the `streaming_sensor` batch).
const BATCH: usize = 1713;
/// Metrics that count work, which every pass must repeat exactly.
const COUNTS: [&str; 3] = [
    "quantize.lossless_frac",
    "zeroelim.out_bytes_per_value",
    "chunk.raw_frac",
];
/// Empty pool dispatches timed per call.
const DISPATCHES: usize = 16;

struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start: u64,
    end: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, id: u32, parent: u32, name: &'static str) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end = self.now();
    }

    fn span<R>(&mut self, id: u32, parent: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(id, parent, name);
        let r = f();
        self.close(s);
        r
    }
}

/// Per-pass tallies that are counts, not times.
#[derive(Default)]
struct Counts {
    values: u64,
    payload_bytes: u64,
    chunks: u64,
    raw_chunks: u64,
    lossless: u64,
    zeroelim_bytes: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Codec,
    Stream,
}

/// The workload's end-to-end encode.
fn e2e_compress<V: PfplFloat>(kind: Kind, data: &[V], bound: ErrorBound) -> pfpl::Result<Vec<u8>> {
    match kind {
        Kind::Codec => pfpl::compress(data, bound, Mode::Serial),
        Kind::Stream => stream_push(data, bound),
    }
}

/// The workload's end-to-end decode.
fn e2e_decompress<V: PfplFloat>(kind: Kind, archive: &[u8]) -> pfpl::Result<Vec<V>> {
    match kind {
        Kind::Codec => pfpl::decompress(archive, Mode::Serial),
        Kind::Stream => stream_iter(archive),
    }
}

fn stream_push<V: PfplFloat>(data: &[V], bound: ErrorBound) -> pfpl::Result<Vec<u8>> {
    let mut enc = StreamCompressor::<V>::new(bound)?;
    for b in data.chunks(BATCH) {
        enc.push(b);
    }
    Ok(enc.finish().0)
}

fn stream_iter<V: PfplFloat>(archive: &[u8]) -> pfpl::Result<Vec<V>> {
    let mut out = Vec::new();
    for c in decompress_chunks::<V>(archive)? {
        out.extend_from_slice(&c?);
    }
    Ok(out)
}

/// One input's share of a pass: the state every layer replay needs.
struct Call<'a, V: PfplFloat> {
    id: u32,
    data: &'a [V],
    bound: ErrorBound,
    archive: Vec<u8>,
    decoded: Vec<V>,
    toc: Toc,
}

/// Rebuild compress and decompress from the layers under quantizer `q`.
fn layers<V: Val + PfplFloat, Q: Quantizer<V>>(
    tr: &mut Tracer,
    c: &Call<V>,
    q: &Q,
    counts: &mut Counts,
    tally: &mut Tally,
) {
    let vpc = chunk::values_per_chunk::<V>();
    let id = c.id;
    let payload = &c.archive[c.toc.payload_start..];
    let raw_of = |i: usize| c.toc.sizes[i] & RAW_FLAG != 0;
    let range = |i: usize| i * vpc..c.data.len().min((i + 1) * vpc);

    // Serial compress driver, layer by layer.
    let root = tr.open(id, NONE, "replay.compress");
    if let ErrorBound::Noa(eb) = c.bound {
        tr.span(id, root, "quantize.noa_range", || {
            derive_noa_bound(c.data, V::from_f64(eb))
        });
    }
    let mut out = Vec::with_capacity(payload.len());
    let mut scratch = Scratch::<V>::default();
    let mut sums = Vec::with_capacity(c.toc.sizes.len());
    for (i, vals) in c.data.chunks(vpc).enumerate() {
        let start = out.len();
        let info = tr.span(id, root, "chunk.compress", || {
            chunk::compress_chunk(q, vals, &mut scratch, &mut out)
        });
        sums.push(tr.span(id, root, "checksum.compress", || {
            payload_checksum(i, &out[start..])
        }));
        counts.lossless += info.lossless_values;
        counts.raw_chunks += info.raw as u64;
    }
    tr.close(root);
    tally.op(out == payload && sums == c.toc.checksums, || {
        format!("call {id}: compress replay differs from the archive")
    });

    // Decompress driver, layer by layer.
    let root = tr.open(id, NONE, "replay.decompress");
    let parsed = tr.span(id, root, "container.toc_read", || {
        let toc = Toc::read(&c.archive)?;
        let offs = chunk_offsets(
            &toc.sizes,
            c.archive.len() - toc.payload_start,
            toc.payload_start,
        )?;
        let dec = ChunkDecoder::<V>::from_header(&toc.header)?;
        Ok::<_, pfpl::Error>((toc, offs, dec))
    });
    let Ok((toc, offs, dec)) = parsed else {
        tr.close(root);
        tally.op(false, || format!("call {id}: archive does not parse"));
        return;
    };
    let mut vals = vec![V::ZERO; c.data.len()];
    let mut ok = true;
    for i in 0..toc.sizes.len() {
        let p = &payload[offs[i]..offs[i + 1]];
        ok &= tr.span(id, root, "checksum.decompress", || {
            Some(payload_checksum(i, p)) == toc.chunk_checksum(i)
        });
        let r = tr.span(id, root, "chunk.decompress", || {
            dec.decode_chunk(p, raw_of(i), &mut vals[range(i)], &mut scratch)
        });
        ok &= r.is_ok();
    }
    tr.close(root);
    tally.op(ok && same_bits(&vals, &c.decoded), || {
        format!("call {id}: decompress replay differs")
    });

    // The staged pipeline, stage by stage.
    let root = tr.open(id, NONE, "stages.compress");
    let mut words: Vec<V::Bits> = Vec::new();
    let mut bytes: Vec<u8> = Vec::new();
    let mut ze = zeroelim::Scratch::default();
    let mut zpay: Vec<u8> = Vec::new();
    let mut zoff = vec![0usize];
    for vals in c.data.chunks(vpc) {
        words.resize(vals.len(), V::Bits::ZERO);
        tr.span(id, root, "quantize.encode", || {
            q.encode_slice(vals, &mut words)
        });
        tr.span(id, root, "delta.encode", || {
            delta::encode_in_place(&mut words)
        });
        bytes.resize(vals.len() * V::BYTES, 0);
        tr.span(id, root, "shuffle.encode", || {
            shuffle::encode(&words, &mut bytes)
        });
        let n = tr.span(id, root, "zeroelim.encode", || {
            zeroelim::encode_to_scratch(&bytes, &mut ze)
        });
        counts.zeroelim_bytes += n as u64;
        zeroelim::append_encoded(&ze, &mut zpay);
        zoff.push(zpay.len());
    }
    tr.close(root);

    let root = tr.open(id, NONE, "stages.decompress");
    let mut ok = true;
    for (i, out_c) in vals.chunks_mut(vpc).enumerate() {
        let p = &zpay[zoff[i]..zoff[i + 1]];
        let r = tr.span(id, root, "zeroelim.decode", || {
            zeroelim::decode_into(p, out_c.len() * V::BYTES, &mut ze, &mut bytes)
        });
        ok &= r.is_ok_and(|used| used == p.len());
        words.resize(out_c.len(), V::Bits::ZERO);
        tr.span(id, root, "shuffle.decode", || {
            shuffle::decode(&bytes, &mut words)
        });
        tr.span(id, root, "delta.decode", || {
            delta::decode_in_place(&mut words)
        });
        tr.span(id, root, "quantize.decode", || {
            for (v, &w) in out_c.iter_mut().zip(words.iter()) {
                *v = q.decode(w);
            }
        });
        // A raw chunk's archive holds the input itself, not the quantized
        // values, so only coded chunks must match the end-to-end decode.
        ok &= raw_of(i) || same_bits(out_c, &c.decoded[range(i)]);
    }
    tr.close(root);
    tally.op(ok, || {
        format!("call {id}: stage replay differs from the end-to-end decode")
    });

    // The library's staged kernels, against the fused ones above.
    let root = tr.open(id, NONE, "staged.compress");
    let mut staged = Vec::with_capacity(payload.len());
    for vals in c.data.chunks(vpc) {
        tr.span(id, root, "chunk.compress_staged", || {
            chunk::compress_chunk_staged(q, vals, &mut scratch, &mut staged)
        });
    }
    tr.close(root);
    tally.op(staged == payload, || {
        format!("call {id}: staged kernel archive differs from fused")
    });
    let root = tr.open(id, NONE, "staged.decompress");
    let mut ok = true;
    for i in 0..toc.sizes.len() {
        let p = &payload[offs[i]..offs[i + 1]];
        let r = tr.span(id, root, "chunk.decompress_staged", || {
            chunk::decompress_chunk_staged(q, p, raw_of(i), &mut vals[range(i)], &mut scratch)
        });
        ok &= r.is_ok();
    }
    tr.close(root);
    tally.op(ok && same_bits(&vals, &c.decoded), || {
        format!("call {id}: staged kernel decode differs")
    });
}

/// One input through every traced layer.
fn trace_call<V: Val + PfplFloat>(
    tr: &mut Tracer,
    kind: Kind,
    id: u32,
    data: &[V],
    bound: ErrorBound,
    counts: &mut Counts,
    tally: &mut Tally,
) {
    let archive = tr.span(id, NONE, "e2e.compress", || e2e_compress(kind, data, bound));
    let Ok(archive) = archive else {
        return tally.op(false, || {
            format!("call {id}: compress failed: {:?}", archive.err())
        });
    };
    let decoded = tr.span(id, NONE, "e2e.decompress", || {
        e2e_decompress::<V>(kind, &archive)
    });
    let Ok(decoded) = decoded else {
        return tally.op(false, || {
            format!("call {id}: decompress failed: {:?}", decoded.err())
        });
    };
    let Ok(toc) = Toc::read(&archive) else {
        return tally.op(false, || format!("call {id}: archive does not parse"));
    };
    tally.op(true, String::new);
    counts.values += data.len() as u64;
    counts.payload_bytes += (archive.len() - toc.payload_start) as u64;
    counts.chunks += toc.sizes.len() as u64;

    let call = Call {
        id,
        data,
        bound,
        archive,
        decoded,
        toc,
    };
    match ChunkDecoder::<V>::from_header(&call.toc.header) {
        Ok(ChunkDecoder::Abs(q)) => layers(tr, &call, &q, counts, tally),
        Ok(ChunkDecoder::Rel(q)) => layers(tr, &call, &q, counts, tally),
        Ok(ChunkDecoder::Pass(q)) => layers(tr, &call, &q, counts, tally),
        Err(e) => tally.op(false, || format!("call {id}: {e}")),
    }

    // The pool, through the one-shot API in both modes.
    for (name, mode) in [
        ("pool.compress_serial", Mode::Serial),
        ("pool.compress_parallel", Mode::Parallel),
    ] {
        let a = tr.span(id, NONE, name, || pfpl::compress(data, bound, mode));
        tally.op(a.is_ok_and(|a| a == call.archive), || {
            format!("call {id}: {name} archive differs")
        });
    }
    for (name, mode) in [
        ("pool.decompress_serial", Mode::Serial),
        ("pool.decompress_parallel", Mode::Parallel),
    ] {
        let d = tr.span(id, NONE, name, || {
            pfpl::decompress::<V>(&call.archive, mode)
        });
        tally.op(d.is_ok_and(|d| same_bits(&d, &call.decoded)), || {
            format!("call {id}: {name} differs")
        });
    }
    // Empty pool dispatches: the fixed cost of waking and parking the pool.
    let threads = rayon::current_num_threads();
    for _ in 0..DISPATCHES {
        tr.span(id, NONE, "pool.dispatch", || {
            rayon::broadcast(threads, || {})
        });
    }

    // The stream layer on this input. NOA cannot stream; it streams the
    // absolute bound the one-shot encoder derived, which gives the same
    // chunk payloads.
    let sbound = match bound {
        ErrorBound::Noa(_) => ErrorBound::Abs(call.toc.header.derived_bound),
        b => b,
    };
    let s = tr.span(id, NONE, "stream.push", || stream_push(data, sbound));
    let payload = &call.archive[call.toc.payload_start..];
    let same_payload = s
        .as_ref()
        .is_ok_and(|a| Toc::read(a).is_ok_and(|t| &a[t.payload_start..] == payload));
    tally.op(same_payload, || {
        format!("call {id}: streamed payload differs")
    });
    if let Ok(s) = s {
        let d = tr.span(id, NONE, "stream.iter", || stream_iter::<V>(&s));
        tally.op(d.is_ok_and(|d| same_bits(&d, &call.decoded)), || {
            format!("call {id}: chunk iterator differs")
        });
    }

    // The salvage layer on the intact archive.
    let r = tr.span(id, NONE, "salvage.verify", || {
        pfpl::verify_archive::<V>(&call.archive)
    });
    tally.op(r.is_ok_and(|r| r.is_clean()), || {
        format!("call {id}: verify flagged an intact archive")
    });
    let r = tr.span(id, NONE, "salvage.decode", || {
        pfpl::decompress_salvage::<V>(&call.archive, Mode::Serial, V::FILL)
    });
    let ok = r.is_ok_and(|(d, rep)| rep.is_clean() && same_bits(&d, &call.decoded));
    tally.op(ok, || {
        format!("call {id}: salvage of an intact archive differs")
    });

    // Non-NOA workloads still get the NOA range scan measured, on its own.
    if !matches!(bound, ErrorBound::Noa(_)) {
        tr.span(id, NONE, "quantize.noa_range", || {
            derive_noa_bound(data, V::from_f64(1e-3))
        });
    }
}

/// Self time, total duration and count per span name.
#[derive(Default, Clone, Copy)]
struct Agg {
    self_ns: f64,
    dur_ns: f64,
    n: f64,
}

fn aggregate(spans: &[Span], base: usize) -> (HashMap<&'static str, Agg>, Vec<f64>) {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE && s.parent as usize >= base {
            child[s.parent as usize - base] += s.end - s.start;
        }
    }
    let mut agg: HashMap<&'static str, Agg> = HashMap::new();
    let mut dispatch = Vec::new();
    for (s, c) in spans.iter().zip(&child) {
        let d = (s.end - s.start) as f64;
        let a = agg.entry(s.name).or_default();
        a.self_ns += d - *c as f64;
        a.dur_ns += d;
        a.n += 1.0;
        if s.name == "pool.dispatch" {
            dispatch.push(d);
        }
    }
    (agg, dispatch)
}

/// The per-layer metrics of one pass.
fn pass_metrics(
    spans: &[Span],
    base: usize,
    c: &Counts,
    noa: bool,
    threads: f64,
    value_bytes: f64,
) -> Vec<(&'static str, f64)> {
    let (agg, mut dispatch) = aggregate(spans, base);
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let v = c.values as f64;
    let per_value = |n: &str| get(n).self_ns / v;
    let e2e_c = get("e2e.compress").dur_ns;
    let e2e_d = get("e2e.decompress").dur_ns;
    let kernel_c = get("chunk.compress").dur_ns + get("checksum.compress").dur_ns;
    let noa_in = if noa {
        get("quantize.noa_range").dur_ns
    } else {
        0.0
    };
    let par_c = get("pool.compress_parallel").dur_ns;
    let layer_self = [
        "quantize.noa_range",
        "chunk.compress",
        "checksum.compress",
        "container.toc_read",
        "checksum.decompress",
        "chunk.decompress",
    ]
    .iter()
    .filter(|n| noa || **n != "quantize.noa_range")
    .map(|n| get(n).self_ns)
    .sum::<f64>();
    vec![
        ("quantize.encode_ns_per_value", per_value("quantize.encode")),
        ("quantize.decode_ns_per_value", per_value("quantize.decode")),
        (
            "quantize.noa_range_ns_per_value",
            per_value("quantize.noa_range"),
        ),
        ("quantize.lossless_frac", c.lossless as f64 / v),
        ("delta.encode_ns_per_value", per_value("delta.encode")),
        ("delta.decode_ns_per_value", per_value("delta.decode")),
        ("shuffle.encode_ns_per_value", per_value("shuffle.encode")),
        ("shuffle.decode_ns_per_value", per_value("shuffle.decode")),
        ("zeroelim.encode_ns_per_value", per_value("zeroelim.encode")),
        ("zeroelim.decode_ns_per_value", per_value("zeroelim.decode")),
        ("zeroelim.out_bytes_per_value", c.zeroelim_bytes as f64 / v),
        ("chunk.compress_ns_per_value", per_value("chunk.compress")),
        (
            "chunk.decompress_ns_per_value",
            per_value("chunk.decompress"),
        ),
        (
            "chunk.staged_over_fused",
            (get("chunk.compress_staged").dur_ns + get("chunk.decompress_staged").dur_ns)
                / (get("chunk.compress").dur_ns + get("chunk.decompress").dur_ns),
        ),
        ("chunk.raw_frac", c.raw_chunks as f64 / c.chunks as f64),
        (
            "checksum.ns_per_byte",
            (get("checksum.compress").self_ns + get("checksum.decompress").self_ns)
                / (2.0 * c.payload_bytes as f64),
        ),
        (
            "container.toc_read_us",
            get("container.toc_read").self_ns / get("container.toc_read").n / 1e3,
        ),
        (
            "compress.driver_self_frac",
            (e2e_c - kernel_c - noa_in) / e2e_c,
        ),
        (
            "compress.parallel_driver_self_frac",
            (par_c - kernel_c / threads - noa_in) / par_c,
        ),
        (
            "pool.speedup",
            (get("pool.compress_serial").dur_ns + get("pool.decompress_serial").dur_ns)
                / (par_c + get("pool.decompress_parallel").dur_ns),
        ),
        // Bytes per nanosecond is GB/s.
        ("pool.compress_gbs", v * value_bytes / par_c),
        (
            "pool.decompress_gbs",
            v * value_bytes / get("pool.decompress_parallel").dur_ns,
        ),
        (
            "pool.dispatch_us",
            median(&mut dispatch).unwrap_or(f64::NAN) / 1e3,
        ),
        ("stream.push_ns_per_value", get("stream.push").dur_ns / v),
        ("stream.iter_ns_per_value", get("stream.iter").dur_ns / v),
        (
            "salvage.verify_ns_per_value",
            get("salvage.verify").dur_ns / v,
        ),
        (
            "salvage.decode_ns_per_value",
            get("salvage.decode").dur_ns / v,
        ),
        ("trace.coverage", layer_self / (e2e_c + e2e_d)),
    ]
}

fn run<V: Val + PfplFloat>(args: &Args) {
    let kind = match args.str("kind") {
        "codec" => Kind::Codec,
        "stream" => Kind::Stream,
        k => die(&format!("--kind: unknown `{k}`")),
    };
    let bound = args.bound();
    let seconds: f64 = args.num("seconds");
    let inputs = load_inputs::<V>(args.str("data"));
    let threads = rayon::current_num_threads() as f64;
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut tally = Tally::default();
    let mut per_pass: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut bases = Vec::new();
    let mut id = 0u32;
    let budget = Budget::new(seconds, 2);
    while budget.more(per_pass.len()) {
        let base = tr.spans.len();
        bases.push(base);
        let mut counts = Counts::default();
        for (_, data) in &inputs {
            trace_call(&mut tr, kind, id, data, bound, &mut counts, &mut tally);
            id += 1;
        }
        per_pass.push(pass_metrics(
            &tr.spans[base..],
            base,
            &counts,
            matches!(bound, ErrorBound::Noa(_)),
            threads,
            V::BYTES as f64,
        ));
    }
    // The first pass warms the pool, caches and allocator; it is traced
    // and written out but left out of the medians.
    let kept = &per_pass[1..];
    for (k, (name, first)) in per_pass[0].iter().enumerate() {
        if COUNTS.contains(name) {
            let same = kept.iter().all(|p| p[k].1 == *first);
            tally.op(same, || format!("{name} differs between passes"));
        }
    }

    let mut j = Json::default();
    j.num("passes", kept.len() as f64)
        .num("spans", tr.spans.len() as f64);
    for (k, (name, _)) in per_pass[0].iter().enumerate() {
        let mut vals: Vec<f64> = kept.iter().map(|p| p[k].1).collect();
        j.num(name, median(&mut vals).unwrap_or(f64::NAN));
    }
    // Calls of the kept passes: default-mode tail latency, and the
    // end-to-end time per pass the way the consumers report it (the sum
    // over inputs of each input's fastest call time).
    let calls = &tr.spans[bases[1]..];
    for (metric, name) in [
        ("pool.compress_p99_us", "pool.compress_parallel"),
        ("pool.decompress_p99_us", "pool.decompress_parallel"),
    ] {
        let mut d: Vec<f64> = calls
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect();
        d.sort_by(f64::total_cmp);
        let rank = (0.99 * d.len() as f64).ceil() as usize;
        j.num(metric, d.get(rank.max(1) - 1).copied().unwrap_or(f64::NAN));
    }
    let mut e2e = CallTimes::default();
    for s in calls {
        if s.name == "e2e.compress" || s.name == "e2e.decompress" {
            e2e.record(
                2 * (s.id as usize % inputs.len()) + (s.name == "e2e.decompress") as usize,
                (s.end - s.start) as f64 / 1e9,
            );
        }
    }
    j.num("e2e_pass_s", e2e.total());
    j.num("attempted", tally.attempted as f64)
        .num("failed", tally.failed as f64);

    let path = args.str("spans");
    let file = std::fs::File::create(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let mut w = std::io::BufWriter::new(file);
    let written = writeln!(w, "id\tparent\tname\tstart_ns\tend_ns").and_then(|()| {
        for s in &tr.spans {
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.id, parent, s.name, s.start, s.end
            )?;
        }
        w.flush()
    });
    written.unwrap_or_else(|e| die(&format!("{path}: {e}")));
    j.print();
}

fn main() {
    let args = Args::parse();
    match args.str("type") {
        "f32" => run::<f32>(&args),
        "f64" => run::<f64>(&args),
        t => die(&format!("--type: unknown `{t}`")),
    }
}
