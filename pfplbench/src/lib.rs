//! Shared harness for the PFPL benchmark binaries.
//!
//! Everything here is either plain harness code (argument parsing, timing,
//! the independent error-bound check, JSON output) or a generic consumer
//! that is only monomorphized inside the binary that calls it. The harness
//! itself instantiates no generic `pfpl` item, so each binary compiles like
//! a user's crate that calls exactly the API its workload uses.

pub mod codec;
pub mod integrity;

use pfpl::ErrorBound;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `--key value` command-line flags.
pub struct Args(HashMap<String, String>);

impl Args {
    /// Parse the process arguments; exits with status 2 on a malformed list.
    pub fn parse() -> Args {
        let mut map = HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                die(&format!("unexpected argument `{k}`"));
            };
            let v = it
                .next()
                .unwrap_or_else(|| die(&format!("--{key} needs a value")));
            map.insert(key.to_string(), v);
        }
        Args(map)
    }

    /// A required flag.
    pub fn str(&self, key: &str) -> &str {
        self.opt(key)
            .unwrap_or_else(|| die(&format!("missing --{key}")))
    }

    /// An optional flag.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// A required numeric flag.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        let v = self.str(key);
        v.parse()
            .unwrap_or_else(|_| die(&format!("--{key}: cannot parse `{v}`")))
    }

    /// `--bound kind:value`, e.g. `abs:1e-3`.
    pub fn bound(&self) -> ErrorBound {
        let spec = self.str("bound");
        let (kind, v) = spec
            .split_once(':')
            .unwrap_or_else(|| die(&format!("--bound: expected kind:value, got `{spec}`")));
        let eb: f64 = v
            .parse()
            .unwrap_or_else(|_| die(&format!("--bound: bad value `{v}`")));
        match kind {
            "abs" => ErrorBound::Abs(eb),
            "rel" => ErrorBound::Rel(eb),
            "noa" => ErrorBound::Noa(eb),
            _ => die(&format!("--bound: unknown kind `{kind}`")),
        }
    }
}

/// Print a usage error and exit with status 2.
pub fn die(msg: &str) -> ! {
    eprintln!("pfplbench: {msg}");
    std::process::exit(2)
}

/// The two precisions a benchmark input can have, with the few operations
/// the harness needs on them.
pub trait Val: Copy + Send + Sync + 'static {
    /// Bytes per value.
    const BYTES: usize;
    /// File extension of raw dumps of this precision.
    const EXT: &'static str;
    /// Fill value used for salvaged chunks (a quiet NaN, which no decoded
    /// value of the benchmark inputs equals bit for bit).
    const FILL: Self;
    /// Decode one little-endian value.
    fn from_le(b: &[u8]) -> Self;
    /// Append the little-endian encoding.
    fn put_le(self, out: &mut Vec<u8>);
    /// Widen exactly to f64.
    fn wide(self) -> f64;
    /// Narrow from f64 (round to nearest).
    fn narrow(v: f64) -> Self;
    /// Raw bit pattern.
    fn bits(self) -> u64;
}

impl Val for f32 {
    const BYTES: usize = 4;
    const EXT: &'static str = "f32";
    const FILL: f32 = f32::NAN;
    fn from_le(b: &[u8]) -> f32 {
        f32::from_le_bytes(b.try_into().expect("4-byte slice"))
    }
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn wide(self) -> f64 {
        self as f64
    }
    fn narrow(v: f64) -> f32 {
        v as f32
    }
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl Val for f64 {
    const BYTES: usize = 8;
    const EXT: &'static str = "f64";
    const FILL: f64 = f64::NAN;
    fn from_le(b: &[u8]) -> f64 {
        f64::from_le_bytes(b.try_into().expect("8-byte slice"))
    }
    fn put_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn wide(self) -> f64 {
        self
    }
    fn narrow(v: f64) -> f64 {
        v
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// Read a raw little-endian dump.
pub fn read_values<V: Val>(path: &Path) -> Vec<V> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    if !bytes.len().is_multiple_of(V::BYTES) {
        die(&format!("{}: not a whole number of values", path.display()));
    }
    bytes.chunks_exact(V::BYTES).map(V::from_le).collect()
}

/// Serialize values as a raw little-endian dump.
pub fn to_bytes<V: Val>(vals: &[V]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * V::BYTES);
    for &v in vals {
        v.put_le(&mut out);
    }
    out
}

/// Write a file, exiting on failure.
pub fn write_file(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
}

/// The input files of a workload: every `*.<ext>` in `dir`, sorted by name,
/// loaded into memory.
pub fn load_inputs<V: Val>(dir: &str) -> Vec<(String, Vec<V>)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| die(&format!("{dir}: {e}")))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == V::EXT))
        .collect();
    paths.sort();
    if paths.is_empty() {
        die(&format!("{dir}: no .{} inputs", V::EXT));
    }
    paths
        .iter()
        .map(|p| {
            let name = p
                .file_stem()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, read_values(p))
        })
        .collect()
}

/// 64-bit digest of a value sequence's bit patterns (not cryptographic:
/// it detects a decoded output changing between passes of one process).
pub fn digest<V: Val>(vals: &[V]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ vals.len() as u64;
    for v in vals {
        h = (h ^ v.bits())
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }
    h
}

/// True when two value sequences are identical bit for bit.
pub fn same_bits<V: Val>(a: &[V], b: &[V]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits() == y.bits())
}

/// xorshift64* stream for seeded choices.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; distinct `stream` values give independent
    /// streams of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        // SplitMix64 finalizer: every (seed, stream) pair gets its own
        // non-zero state.
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = mix(seed.wrapping_add(mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))));
        Rng(state.max(1))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Standard normal deviate (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(1e-300);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Pick `k` distinct chunk indices out of `n`, sorted.
pub fn pick_chunks(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    while picked.len() < k.min(n) {
        let i = rng.below(n);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

/// Exact `|a - b| <= hi + lo`, for finite `a`, `b` and a non-negative
/// threshold given as an unevaluated sum (`lo` is the rounding error of
/// `hi`). The difference is formed error-free (TwoSum); where the two sides
/// are within a factor of two their difference is exact (Sterbenz), and
/// further apart the comparison is decided by the leading terms alone.
fn within(a: f64, b: f64, hi: f64, lo: f64) -> bool {
    let mut s = a - b;
    let bb = s - a;
    let mut e = (a - (s - bb)) + (-b - bb);
    if s < 0.0 || (s == 0.0 && e < 0.0) {
        s = -s;
        e = -e;
    }
    if hi <= 0.0 {
        return s == 0.0 && e == 0.0;
    }
    if s > 2.0 * hi {
        return false;
    }
    if s < 0.5 * hi {
        return true;
    }
    s - hi <= lo - e
}

/// `x * y` as an unevaluated sum `(hi, lo)` (TwoProduct via FMA).
fn product(x: f64, y: f64) -> (f64, f64) {
    let hi = x * y;
    (hi, x.mul_add(y, -hi))
}

/// Number of reconstructed values that violate `bound` against `orig`,
/// checked value by value independently of the library's own checks.
///
/// NaN must decode to NaN, ±∞ to itself; REL keeps the sign and maps zero
/// to zero; NOA scales the bound by the input's range and, when that range
/// is zero or not finite, demands an exact round trip (lossless
/// passthrough).
pub fn violations<V: Val>(orig: &[V], recon: &[V], bound: ErrorBound) -> usize {
    if orig.len() != recon.len() {
        return orig.len().max(1);
    }
    let (kind_rel, hi, lo) = match bound {
        ErrorBound::Abs(eb) => (false, eb, 0.0),
        ErrorBound::Rel(eb) => (true, eb, 0.0),
        ErrorBound::Noa(eb) => {
            let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
            for v in orig {
                let x = v.wide();
                if x < mn {
                    mn = x;
                }
                if x > mx {
                    mx = x;
                }
            }
            let range = mx - mn;
            if range.is_finite() && range > 0.0 {
                // One ulp up, so rounding in the subtraction never makes
                // the threshold understate the true range.
                let (h, l) = product(eb, range.next_up());
                (false, h, l)
            } else {
                (false, 0.0, 0.0)
            }
        }
    };
    orig.iter()
        .zip(recon)
        .filter(|(o, r)| {
            let (a, b) = (o.wide(), r.wide());
            let ok = if a.is_nan() {
                b.is_nan()
            } else if a.is_infinite() || !b.is_finite() {
                a == b
            } else if kind_rel {
                if a == 0.0 {
                    b == 0.0
                } else {
                    let (h, l) = product(hi, a.abs());
                    b != 0.0 && (a < 0.0) == (b < 0.0) && within(a, b, h, l)
                }
            } else {
                within(a, b, hi, lo)
            };
            !ok
        })
        .count()
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Single-threaded memcpy throughput over a buffer of `bytes`, in GB/s:
/// the ceiling every GB/s figure of the same run is checked against.
pub fn memcpy_gbs(bytes: usize) -> f64 {
    let src: Vec<u8> = (0..bytes).map(|i| i as u8).collect();
    let mut dst = vec![0u8; bytes];
    let mut times: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times).map_or(0.0, |t| bytes as f64 / t / 1e9)
}

/// Median of a sample (sorts it in place).
pub fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Whether the AVX-512 VBMI2 and GFNI extensions the zero-elimination and
/// shuffle kernels can use are present on this CPU.
pub fn cpu_features() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        (
            std::arch::is_x86_feature_detected!("avx512vbmi2"),
            std::arch::is_x86_feature_detected!("gfni"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (false, false)
    }
}

/// A flat JSON object written field by field, printed as one line.
#[derive(Default)]
pub struct Json(String);

impl Json {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
    }

    /// A numeric field (non-finite numbers become `null`).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v:e}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    /// A list of numbers (non-finite numbers become `null`).
    pub fn nums(&mut self, k: &str, v: &[f64]) -> &mut Self {
        self.key(k);
        self.0.push('[');
        for (i, x) in v.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            if x.is_finite() {
                let _ = write!(self.0, "{x:e}");
            } else {
                self.0.push_str("null");
            }
        }
        self.0.push(']');
        self
    }

    /// A boolean field.
    pub fn flag(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    /// Print the object as the last line of standard output.
    pub fn print(&mut self) {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        println!("{}", self.0);
    }
}

/// Success and failure tally of the operations a binary attempted.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or produced a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` counts it failed and reports why.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("pfplbench: FAILED {}", what());
        }
    }
}

/// Timer over one closed-loop measurement: passes run until `seconds`
/// have elapsed, and always at least `min_passes`.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_passes: usize,
}

impl Budget {
    /// A budget starting now.
    pub fn new(seconds: f64, min_passes: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            min_passes,
        }
    }

    /// Whether pass number `done` (0-based count of finished passes)
    /// should run.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_passes || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Per-input call times of one operation, across passes. The total is the
/// sum over inputs of each input's fastest call: outside load on the shared
/// host only ever adds time to a call, so the fastest of several calls on
/// one input is the figure it moves least.
#[derive(Default)]
pub struct CallTimes(Vec<Vec<f64>>);

impl CallTimes {
    /// Record one call on input `i`.
    pub fn record(&mut self, i: usize, secs: f64) {
        if self.0.len() <= i {
            self.0.resize_with(i + 1, Vec::new);
        }
        self.0[i].push(secs);
    }

    /// Each input's fastest call time, in seconds.
    pub fn best(&self) -> Vec<f64> {
        self.0
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    /// Sum over inputs of the fastest call time, in seconds.
    pub fn total(&self) -> f64 {
        self.best().iter().sum()
    }
}

/// Each input's fastest call time of `t`, in microseconds.
pub fn us(t: &CallTimes) -> Vec<f64> {
    t.best().iter().map(|s| s * 1e6).collect()
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Fields every consumer reports: host features, memory, memcpy ceiling,
/// and the operation tally.
pub fn common_fields(j: &mut Json, tally: &Tally, ceiling_bytes: usize) {
    // Peak RSS first: the memcpy probe's buffers must not count.
    let rss = peak_rss_mib();
    let (vbmi2, gfni) = cpu_features();
    j.flag("avx512vbmi2", vbmi2)
        .flag("gfni", gfni)
        .num("threads", rayon::current_num_threads() as f64)
        .num("peak_rss_mib", rss)
        .num("memcpy_gbs", memcpy_gbs(ceiling_bytes))
        .num("attempted", tally.attempted as f64)
        .num("failed", tally.failed as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_boundary_is_exact() {
        let eb = 1e-3;
        let a = [1.0f64, -2.5, 0.0];
        let at = [1.0 + eb, -2.5 - eb, eb];
        assert_eq!(violations(&a, &at, ErrorBound::Abs(eb)), 0);
        let past: Vec<f64> = at
            .iter()
            .map(|v: &f64| if *v > 0.0 { v.next_up() } else { v.next_down() })
            .collect();
        assert_eq!(violations(&a, &past, ErrorBound::Abs(eb)), 3);
    }

    #[test]
    fn rel_keeps_sign_and_zero() {
        let b = ErrorBound::Rel(1e-3);
        assert_eq!(violations(&[2.0f32], &[2.0 * (1.0 - 1e-3 / 2.0)], b), 0);
        assert_eq!(violations(&[1e-30f32], &[-1e-30], b), 1);
        assert_eq!(violations(&[0.0f32], &[1e-40], b), 1);
        assert_eq!(violations(&[0.0f32], &[-0.0], b), 0);
    }

    #[test]
    fn specials_must_round_trip() {
        let b = ErrorBound::Abs(1.0);
        let orig = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0];
        assert_eq!(violations(&orig, &orig, b), 0);
        let recon = [0.0, f32::MAX, f32::NEG_INFINITY, f32::NAN];
        assert_eq!(violations(&orig, &recon, b), 3);
    }

    #[test]
    fn noa_scales_by_range_and_zero_range_is_lossless() {
        let orig = [0.0f64, 10.0];
        assert_eq!(violations(&orig, &[0.01, 9.99], ErrorBound::Noa(1e-3)), 0);
        assert_eq!(violations(&orig, &[0.0101, 10.0], ErrorBound::Noa(1e-3)), 1);
        assert_eq!(
            violations(
                &[3.0f64, 3.0],
                &[3.0, 3.0f64.next_up()],
                ErrorBound::Noa(0.5)
            ),
            1
        );
    }

    #[test]
    fn adjacent_seeds_give_distinct_streams() {
        let mut firsts: Vec<u64> = (0..64).map(|s| Rng::new(s, 0).next_u64()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 64);
    }
}
