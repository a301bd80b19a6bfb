#!/usr/bin/env python3
"""PFPL benchmark: one command for every workload, metric and check.

    python3 pfplbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the benchmark binaries and the
`pfpl` CLI from source (into $CARGO_TARGET_DIR, default `.bench_build`),
generates the workload's inputs from the seed (`.bench_data/`), measures
for about S seconds, checks every output, and prints the metrics named in
BENCHMARK.json: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer metrics of the traced binary. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Scratch outputs go to `.bench_out/`; each run also appends its
record, with a host fingerprint, to `.bench_out/runs.jsonl`.

All load comes from one closed-loop client at a time: each measurement is
a child process whose main thread issues one call after another, and
`Mode::Parallel` runs on the library's pool (one worker per CPU). The
host's speed drifts from second to second and between processes, and
outside load only ever adds time to a call, so a trace-0 run samples
ROUNDS fresh consumer processes, each keeping per input its fastest call,
and reports per input the second-fastest of those. See pfplbench/README.md for the workloads, metrics and
checks.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, ".bench_data")
OUT = os.path.join(ROOT, ".bench_out")

# kind "codec": one-shot pfpl::compress/decompress per input file, plus the
# integrity consumer; kind "stream": the streaming consumer, which also runs
# verify and salvage itself.
WORKLOADS = {
    "suites-f32-abs": {"type": "f32", "bound": ("abs", "1e-3"), "kind": "codec"},
    "suites-f64-rel": {"type": "f64", "bound": ("rel", "1e-3"), "kind": "codec"},
    "events-f32-noa": {"type": "f32", "bound": ("noa", "1e-3"), "kind": "codec"},
    "stream-f32-abs": {"type": "f32", "bound": ("abs", "1e-3"), "kind": "stream"},
}

# Consumer processes sampled per trace-0 run.
ROUNDS = 6
# Wall-clock limit for everything after the build.
RUN_LIMIT_S = 170
# Metrics that are differences of two timings: they may read slightly
# negative when a layer's replay costs more than the end-to-end call, but
# the layers must account for the end-to-end time within 10 %.
DIFFERENCES = {"compress.driver_self_frac", "compress.parallel_driver_self_frac", "cli.overhead_frac"}
# Metrics that count work: they may be zero and must repeat exactly.
COUNTS = {"quantize.lossless_frac", "zeroelim.out_bytes_per_value", "chunk.raw_frac"}


class BenchError(Exception):
    pass


def log(msg):
    print(f"pfplbench: {msg}", file=sys.stderr)


class Clock:
    def __init__(self, limit):
        self.end = time.monotonic() + limit

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def run(cmd, clock, capture=True):
    """Run a child to completion (killed and reaped on timeout)."""
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=clock.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    return r


def run_json(cmd, clock):
    r = run(cmd, clock)
    sys.stderr.write(r.stderr)
    if r.returncode != 0 or not r.stdout.strip():
        raise BenchError(f"exit {r.returncode}: {' '.join(cmd)}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", os.path.join("pfplbench", "Cargo.toml"), "--bins"],
                ["cargo", "build", "--release", "--offline", "-q", "-p", "pfpl-cli"]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir(), "release")


def ensure_data(bindir, workload, seed, clock):
    """Generate the workload's inputs for `seed`, unless already there."""
    d = os.path.join(DATA, workload)
    stamp = os.path.join(d, "SEED")
    if os.path.exists(stamp) and open(stamp).read() == str(seed):
        return d
    shutil.rmtree(d, ignore_errors=True)
    r = run([os.path.join(bindir, "gen"), "--workload", workload, "--seed", str(seed), "--out", d], clock)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise BenchError("input generation failed")
    with open(stamp, "w") as f:
        f.write(str(seed))
    return d


def inputs(data_dir, ext):
    return sorted(os.path.join(data_dir, f) for f in os.listdir(data_dir) if f.endswith("." + ext))


class CliRunner:
    """Compress and decompress the workload's inputs with the `pfpl` CLI,
    one file after another in a fixed cycle that carries on from one time
    slot to the next, comparing each archive and each decoded output with
    the library's. The CLI runs
    with `--serial`: its parallel mode would make the figure depend on how
    much of the second CPU the host's other tenants leave free. Each
    file's compress and decompress process wall times are kept in
    `times[file]`."""

    def __init__(self, bindir, w, data_dir, refdir, outdir, clock, tally):
        self.cli = os.path.join(bindir, "pfpl")
        self.files = inputs(cli_data(data_dir), w["type"])
        self.w, self.refdir, self.outdir, self.clock, self.tally = w, refdir, outdir, clock, tally
        self.times = {f: [] for f in self.files}
        self.calls = 0

    def one(self):
        f = self.files[self.calls % len(self.files)]
        self.calls += 1
        kind, eb = self.w["bound"]
        name = os.path.splitext(os.path.basename(f))[0]
        arc = os.path.join(self.outdir, name + ".pfpl")
        dec = os.path.join(self.outdir, name + ".out")
        t = time.perf_counter()
        rc = run([self.cli, "compress", "-i", f, "-o", arc, "--type", self.w["type"], "--bound", kind,
                  "--eb", eb, "--serial"], self.clock, capture=False)
        tc = time.perf_counter() - t
        t = time.perf_counter()
        rd = run([self.cli, "decompress", "-i", arc, "-o", dec, "--serial"], self.clock, capture=False)
        self.times[f].append((tc, time.perf_counter() - t))
        for what, r, mine, ref in (("archive", rc, arc, name + ".pfpl"), ("decoded output", rd, dec, name + ".out")):
            self.tally["attempted"] += 1
            ok = r.returncode == 0 and same_file(mine, os.path.join(self.refdir, ref))
            if not ok:
                self.tally["failed"] += 1
                log(f"FAILED CLI {what} of {name} differs from the library's ({r.stderr.strip()})")

    def until(self, deadline):
        """Run files until `deadline` (time.monotonic()), at least one."""
        self.one()
        while time.monotonic() < deadline:
            self.one()

    def gbs(self):
        """Finish the current cycle, so every file has been run as often
        as any other, and return the (compress, decompress) GB/s: input
        bytes over the sum of each file's fastest process wall time, as the
        consumers time library calls."""
        while self.calls % len(self.files):
            self.one()
        nbytes = sum(os.path.getsize(f) for f in self.files)
        return tuple(nbytes / sum(min(t[k] for t in ts) for ts in self.times.values()) / 1e9 for k in (0, 1))

    def passes(self):
        return self.calls // len(self.files)


def same_file(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def best(rows, key):
    """Per input (or per call slot), the second-fastest of the processes'
    fastest times recorded under `key`. Outside load on the shared host
    only ever adds time to a call, and it comes and goes within seconds, so
    each process keeps its fastest call; processes also differ among
    themselves (on a shared 2-vCPU host, an occasional process decoded
    events 15-20 % faster than the rest), and taking the second-fastest keeps a single such process from
    setting the figure. A consumer reports null for a time it could not
    measure (every call failed); the figure then reads NaN and fails the
    sanity check."""
    if len(rows) < 2 or len({len(p[key]) for p in rows}) != 1:
        raise BenchError(f"need two or more processes with the same inputs for {key}")
    return [math.nan if None in xs else sorted(xs)[1] for xs in zip(*(p[key] for p in rows))]


def best_gbs(rows, key):
    """Input bytes over the sum of each input's time from `best`."""
    return rows[0]["bytes"] / sum(best(rows, key)) / 1e9


def consumer_cmd(bindir, w, data_dir, seconds, seed, refdir=None):
    name = "stream_f32" if w["kind"] == "stream" else "codec_" + w["type"]
    cmd = [os.path.join(bindir, name), "--data", data_dir, "--bound", ":".join(w["bound"]),
           "--seconds", f"{seconds:.3f}"]
    if w["kind"] == "stream":
        cmd += ["--seed", str(seed)]
    if refdir:
        cmd += ["--ref", refdir]
    return cmd


def cli_data(data_dir):
    """The CLI's inputs: the workload's own, unless the generator wrote a
    `cli/` directory (the events workload's single capture file)."""
    d = os.path.join(data_dir, "cli")
    return d if os.path.isdir(d) else data_dir


def cli_refs(bindir, w, data_dir, seed, refdir, clock):
    """Library archives and decodes of CLI-only inputs, written by one
    measuring pass of the workload's consumer (`--seconds 0`)."""
    d = cli_data(data_dir)
    return [] if d == data_dir else [run_json(consumer_cmd(bindir, w, d, 0, seed, refdir), clock)]


def measure_e2e(bindir, w, data_dir, seed, seconds, clock, tally):
    stream = w["kind"] == "stream"
    share = seconds / ROUNDS
    refdir = os.path.join(OUT, "ref")
    cons, integ = [], []
    extra = cli_refs(bindir, w, data_dir, seed, refdir, clock)
    cli = CliRunner(bindir, w, data_dir, refdir, os.path.join(OUT, "cli"), clock, tally)
    # Each round is one time slot: a consumer process, the integrity
    # consumer, and CLI calls for whatever the slot has left, so the
    # processes' set-up costs come out of the CLI's time, not on top of it.
    start = time.monotonic()
    for r in range(ROUNDS):
        c = run_json(consumer_cmd(bindir, w, data_dir, share * (0.6 if stream else 0.35), seed,
                                  refdir if r == 0 else None), clock)
        cons.append(c)
        if not stream:
            integ.append(run_json([os.path.join(bindir, "integrity_" + w["type"]), "--data", data_dir,
                                   "--bound", ":".join(w["bound"]), "--seconds", f"{share * 0.25:.3f}",
                                   "--seed", str(seed)], clock))
        cli.until(start + (r + 1) * share)
    cli_c, cli_d = cli.gbs()
    for p in cons + integ + extra:
        tally["attempted"] += int(p["attempted"])
        tally["failed"] += int(p["failed"])
    if stream:
        integ = cons
    med = lambda rows, k: statistics.median([p[k] for p in rows if p[k] is not None] or [math.nan])
    ratios = {p["ratio"] for p in cons}
    tally["attempted"] += 1
    if len(ratios) != 1:
        tally["failed"] += 1
        log(f"FAILED compression ratio differs between processes: {sorted(ratios)}")
    metrics = {
        "compress_serial_gbs": best_gbs(cons, "compress_best_s"),
        "decompress_serial_gbs": best_gbs(cons, "decompress_best_s"),
        "cli_compress_gbs": cli_c,
        "cli_decompress_gbs": cli_d,
        "compress_p50_us": statistics.median(best(cons, "compress_us")),
        "decompress_p50_us": statistics.median(best(cons, "decompress_us")),
        "verify_gbs": best_gbs(integ, "verify_best_s"),
        "salvage_gbs": best_gbs(integ, "salvage_best_s"),
        "ratio": cons[0]["ratio"],
        "peak_rss_mib": med(cons, "peak_rss_mib"),
        "setup_s": med(cons, "setup_s"),
    }
    samples = {"processes": len(cons), "passes": sum(int(p["passes"]) for p in cons), "cli_passes": cli.passes()}
    return metrics, cons + integ, samples


def measure_trace(bindir, w, data_dir, seed, seconds, clock, tally, workload):
    refdir = os.path.join(OUT, "ref")
    extra = cli_refs(bindir, w, data_dir, seed, refdir, clock)
    c = run_json(consumer_cmd(bindir, w, data_dir, seconds * 0.15, seed, refdir), clock)
    t = run_json([os.path.join(bindir, "traced"), "--type", w["type"], "--kind", w["kind"],
                  "--data", data_dir, "--bound", ":".join(w["bound"]), "--seconds", f"{seconds * 0.7:.3f}",
                  "--spans", os.path.join(OUT, f"spans-{workload}.tsv")], clock)
    cli = CliRunner(bindir, w, data_dir, refdir, os.path.join(OUT, "cli"), clock, tally)
    cli.until(time.monotonic() + seconds * 0.15)
    cli_gbs = cli.gbs()
    for p in [c, t] + extra:
        tally["attempted"] += int(p["attempted"])
        tally["failed"] += int(p["failed"])
    skip = {"passes", "spans", "attempted", "failed", "e2e_pass_s"}
    metrics = {k: v for k, v in t.items() if k not in skip}
    lib = 1 / c["compress_serial_gbs"] + 1 / c["decompress_serial_gbs"]
    metrics["cli.overhead_frac"] = 1 - lib / sum(1 / g for g in cli_gbs)
    metrics["trace.overhead"] = t["e2e_pass_s"] / c["serial_pass_s"]
    samples = {"traced_passes": t["passes"], "spans": t["spans"], "cli_passes": cli.passes()}
    return metrics, [c], samples


def sanity(metrics, spec, ceiling, tally):
    """Every emitted number finite and positive (counts: non-negative;
    timing differences: above -0.1), every GB/s below the memcpy ceiling
    of the same run, and every metric of the spec present."""
    for name, unit in spec.items():
        v = metrics.get(name)
        tally["attempted"] += 1
        if v is None or not math.isfinite(v):
            ok = False
        elif name in COUNTS:
            ok = v >= 0
        elif name in DIFFERENCES:
            ok = -0.1 < v < 1
        elif name == "trace.coverage":
            ok = 0 < v <= 1.1
        else:
            ok = v > 0 and (unit != "GB/s" or v < ceiling)
        if not ok:
            tally["failed"] += 1
            log(f"FAILED sanity: {name} = {v} {unit} (memcpy ceiling {ceiling:.2f} GB/s)")


def fingerprint(seed, procs):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        commit = r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("crates", "third_party", "Cargo.toml", "Cargo.lock", ".cargo"):
        p = os.path.join(ROOT, top)
        paths = [p] if os.path.isfile(p) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(p) for f in fs)
        for q in paths:
            h.update(os.path.relpath(q, ROOT).encode())
            with open(q, "rb") as f:
                h.update(f.read())
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "pool_threads": int(procs[0]["threads"]),
        "avx512vbmi2": procs[0]["avx512vbmi2"],
        "gfni": procs[0]["gfni"],
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        log(f"no PFPL sources under {ROOT}: run from a checkout of the repository")
        return 2
    try:
        spec_file = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
        spec = {m["name"]: m["unit"] for m in spec_file["per_layer" if a.trace else "end_to_end"]}
        w = WORKLOADS[a.workload]
        seed = a.seed % 2**64
        bindir = build()
        clock = Clock(RUN_LIMIT_S)
        data_dir = ensure_data(bindir, a.workload, seed, clock)
        for d in ("ref", "cli"):
            shutil.rmtree(os.path.join(OUT, d), ignore_errors=True)
            os.makedirs(os.path.join(OUT, d))
        tally = {"attempted": 0, "failed": 0}
        args = (bindir, w, data_dir, seed, a.seconds, clock, tally)
        if a.trace:
            metrics, procs, samples = measure_trace(*args, a.workload)
        else:
            metrics, procs, samples = measure_e2e(*args)
        ceiling = statistics.median(p["memcpy_gbs"] for p in procs)
        sanity(metrics, spec, ceiling, tally)
        missing = [n for n in spec if not isinstance(metrics.get(n), (int, float)) or not math.isfinite(metrics[n])]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1

    host = fingerprint(seed, procs)
    units = {m["name"]: (m["unit"], m["better"]) for m in spec_file["end_to_end"] + spec_file["per_layer"]}
    print(f"# {a.workload} seed {seed} trace {a.trace}: {json.dumps(samples)}")
    print(f"# host {json.dumps(host)} memcpy_ceiling_gbs {ceiling:.3f}")
    for name in spec:
        unit, better = units[name]
        print(f"{name:40s} {metrics[name]:14.6g} {unit:10s} ({better} is better)")
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec.items()},
    }
    with open(os.path.join(OUT, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"workload": a.workload, "trace": a.trace, "host": host, "samples": samples,
                            **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
