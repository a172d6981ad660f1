#!/usr/bin/env python3
"""Benchmark of the FNCC simulator: end-to-end metrics (``--trace 0``) or
per-layer metrics (``--trace 1``) for one workload.

    python3 perfbench/run.py --workload des-incast-sharded --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. It builds ``perfbench`` (a package of its
own that uses the simulator's crates through path dependencies) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then starts one measuring
process per repetition until ``--seconds`` have passed, so every repetition
reports its own peak resident memory and environment variables reach only
the child that needs them.

A benchmark seed ``s`` stands for eight inputs, the input seeds ``8s`` to
``8s+7`` of ``perfbench rep``, and the repetitions cycle through them until
``--seconds`` have passed, every input ran and the first ran twice. One
input's work varies with its draw — on the fluid and hybrid workloads the
solver's rate updates differ by up to ±20% between draws of equal bytes —
so a metric is the median over all repetitions of the eight inputs, which
keeps one draw from setting the figure of a seed. The median rather than a
mean over inputs, because a neighbour's burst can slow a few consecutive
repetitions two- or threefold. Every repetition must finish every flow and reproduce the
recorded result digest for (workload, input seed) when the table has one;
a repeated input must repeat the digest and work counters of its first
repetition exactly. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when a
check fails. The ``fingerprint`` line names the machine, toolchain and
sources: compare wall-clock numbers only between equal fingerprints.

The timings are scaled to a reference host speed. On a shared host the
memory-bound simulator runs up to 1.5 times slower while neighbours load
the shared L3 cache, in phases of tens of seconds, so raw medians of two
runs of the same code differ by more than a regression worth catching.
Each repetition therefore times a fixed calibration kernel (dependent loads
around a random cycle over 8 MiB, independent of the simulator) right
before set-up and right after the run, and ``wall_s``, ``setup_s``,
``events_per_s`` and ``flows_per_s`` are reported as they would read on a
host whose kernel takes ``REF_LOAD_NS`` = 100 ns per load: each time is
multiplied by 100 / (the repetition's ns per load). The unscaled medians
and the load latency are printed on ``raw`` lines. Set-up is timed three
times per repetition and the median kept.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["des-websearch", "des-incast-sharded", "fluid-websearch", "hybrid-fleet"]
CHILD_TIMEOUT_S = 170
# Load latency (ns) of the calibration chase (perfbench/src/calib.rs) that
# timings are scaled to.
REF_LOAD_NS = 100.0
# Inputs per benchmark seed: seed s runs the inputs 8s .. 8s+7.
INPUTS_PER_SEED = 8
# Environment variables the simulator reads; children start without them
# unless a measurement sets one on purpose.
SIM_ENV = ("FNCC_PROFILE", "FNCC_DES_SCHED", "FNCC_PROGRESS")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return target_dir() / "release" / "perfbench"


def command_output(cmd):
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_sha256():
    """Hash of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "vendor", ROOT / "perfbench"]
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for r in roots:
        files += [p for p in r.rglob("*") if p.is_file()]
    for p in sorted(files):
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def fingerprint():
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    sha = None
    if top and Path(top).resolve() == ROOT:
        sha = command_output(["git", "rev-parse", "HEAD"])
    return {
        "cpu_model": model or platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "git_sha": sha,
        "source_sha256": source_sha256(),
        "build_profile": "release (lto=thin, codegen-units=4)",
    }


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if k not in SIM_ENV}
    env.update(extra or {})
    return env


def child(binary, args, extra_env=None):
    """Run one measuring process; returns its last stdout line as JSON, or
    None when it failed."""
    try:
        res = subprocess.run([str(binary)] + args, cwd=ROOT, env=child_env(extra_env),
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(args)} timed out")
        return None
    if res.stderr.strip():
        log(res.stderr.rstrip())
    lines = res.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    if res.returncode != 0:
        log(f"perfbench: {' '.join(args)} exited with {res.returncode}")
        return out if out is not None and "checks" in out else None
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Verdict:
    """Flows attempted and failed, with the reasons for any failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, flows, failed, reason=None):
        self.attempted += flows
        self.failed += failed
        if reason:
            self.reasons.append(reason)


def check_rep(rep, first, verdict, label, counters_ref=None):
    """Check one repetition against the recorded digest and against the
    first repetition: the same digest, and the same work counters as
    ``counters_ref`` (default ``first``)."""
    counters_ref = counters_ref or first
    flows = int(rep["flows"])
    if rep["digest_check"] == "mismatch":
        verdict.add(flows, flows, f"{label}: digest {rep['digest']} differs from the recorded one")
    elif rep["digest"] != first["digest"]:
        verdict.add(flows, flows, f"{label}: digest differs between repetitions")
    elif rep["counters"] != counters_ref["counters"]:
        ref = counters_ref["counters"]
        diff = sorted(k for k in set(rep["counters"]) | set(ref)
                      if rep["counters"].get(k) != ref.get(k))
        verdict.add(flows, flows, f"{label}: work counters differ between repetitions: {diff}")
    else:
        unfinished = int(rep["unfinished"])
        verdict.add(flows, unfinished, f"{label}: {unfinished} flows unfinished" if unfinished else None)


def inputs(seed):
    """The input seeds (``perfbench --seed``) a benchmark seed stands for."""
    return [seed * INPUTS_PER_SEED + k for k in range(INPUTS_PER_SEED)]


def end_to_end(binary, workload, seed, seconds, verdict):
    """Repetitions cycle through the seed's inputs until ``seconds`` have
    passed, every input ran and the first ran twice. Each metric is the
    median over all repetitions."""
    order = inputs(seed)
    reps = {k: [] for k in order}
    start = time.monotonic()
    n = 0
    while n <= len(order) or time.monotonic() - start < seconds:
        k = order[n % len(order)]
        n += 1
        rep = child(binary, ["rep", "--workload", workload, "--seed", str(k)])
        if rep is None:
            verdict.add(1, 1, f"repetition {n} (input {k}) failed")
            break
        check_rep(rep, reps[k][0] if reps[k] else rep, verdict, f"repetition {n} (input {k})")
        reps[k].append(rep)
    if any(not r for r in reps.values()):
        return {}, reps

    def per_rep(r):
        # Timings scaled to the reference load latency (see the module doc).
        k = REF_LOAD_NS / r["load_ns"]
        return {
            "wall_s": r["wall_s"] * k,
            "setup_s": r["setup_s"] * k,
            "events_per_s": r["events"] / max((r["wall_s"] - r["setup_s"]) * k, 1e-9),
            "flows_per_s": (r["flows"] - r["unfinished"]) / (r["wall_s"] * k),
            "peak_rss_mb": r["peak_rss_mb"],
        }

    units = {"wall_s": "s", "setup_s": "s", "events_per_s": "1/s", "flows_per_s": "1/s",
             "peak_rss_mb": "MB"}
    rows = [per_rep(r) for rs in reps.values() for r in rs]
    metrics = {}
    for name, unit in units.items():
        vals = [x[name] for x in rows]
        value = statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
        q1, q3 = quartiles(vals)
        print(f"{name:<16} {value:>14.6g} {unit:<5} (median of {len(vals)} repetitions over "
              f"{len(reps)} inputs; quartiles {q1:.6g} .. {q3:.6g})")
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("load_ns", "ns")):
        vals = [r[name] for rs in reps.values() for r in rs]
        q1, q3 = quartiles(vals)
        print(f"raw {name:<12} {statistics.median(vals):>14.6g} {unit:<5} "
              f"(median of {len(vals)}; quartiles {q1:.6g} .. {q3:.6g}; not scaled)")
    return metrics, reps


def obs_overheads(binary, workload, seed, seconds, verdict):
    """Flight-recorder and profiler overhead: alternating repetitions with
    ``probes.trace`` armed, with ``FNCC_PROFILE=1`` and with neither."""
    tmp = target_dir() / "perfbench-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    trace_file = tmp / f"trace-{os.getpid()}.jsonl"
    base = ["rep", "--workload", workload, "--seed", str(seed)]
    variants = {
        "off": (base, None),
        "trace": (base + ["--trace-out", str(trace_file)], None),
        "profile": (base, {"FNCC_PROFILE": "1"}),
    }
    walls = {k: [] for k in variants}
    firsts = {}
    start = time.monotonic()
    rounds = 0
    try:
        while rounds < 2 or (time.monotonic() - start < seconds and rounds < 8):
            order = list(variants)
            order = order[rounds % 3:] + order[:rounds % 3]
            for name in order:
                args, env = variants[name]
                rep = child(binary, args, env)
                if rep is None:
                    verdict.add(1, 1, f"obs repetition ({name}) failed")
                    return None
                # Tracing and profiling allocate, so work counters are
                # compared within a variant; the digest across all of them.
                first = firsts.setdefault("any", rep)
                check_rep(rep, first, verdict, f"obs repetition ({name})",
                          firsts.setdefault(name, rep))
                walls[name].append(rep["wall_s"])
            rounds += 1
    finally:
        trace_file.unlink(missing_ok=True)
    off = statistics.median(walls["off"])
    return {
        "obs.trace_overhead_pct": (statistics.median(walls["trace"]) / off - 1) * 100,
        "obs.profile_overhead_pct": (statistics.median(walls["profile"]) / off - 1) * 100,
    }


def per_layer(binary, workload, seed, seconds, verdict):
    out = child(binary, ["trace", "--workload", workload, "--seed", str(seed)])
    if out is None:
        verdict.add(1, 1, "traced run failed")
        return {}
    flows = int(out["flows"])
    bad = [k for k, ok in out["checks"].items() if not ok]
    verdict.add(flows, flows if bad else 0, f"traced run checks failed: {bad}" if bad else None)
    metrics = out["metrics"]
    obs = obs_overheads(binary, workload, seed, seconds, verdict)
    if obs is None:
        return {}
    for name, v in obs.items():
        metrics[name] = {"value": v, "unit": "%"}
    for name, m in sorted(metrics.items()):
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    binary = build()
    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"workload {a.workload} seed {a.seed} seconds {a.seconds:g} trace {a.trace}")
    verdict = Verdict()
    if a.trace:
        metrics = per_layer(binary, a.workload, inputs(a.seed)[0], a.seconds, verdict)
    else:
        metrics, reps = end_to_end(binary, a.workload, a.seed, a.seconds, verdict)
        for k, rs in reps.items():
            if rs:
                print(f"input {k}: digest {rs[0]['digest']} "
                      f"({rs[0]['digest_check']} against the recorded table)")
    correct = verdict.failed == 0 and bool(metrics)
    fail_frac = verdict.failed / max(verdict.attempted, 1)
    print(f"{'flow_fail_frac':<16} {fail_frac:>14.6g} ratio "
          f"({verdict.failed} of {verdict.attempted} flows failed)")
    for r in verdict.reasons:
        print(f"FAILED: {r}")
    print(json.dumps({"correct": correct, "attempted": max(verdict.attempted, 1),
                      "failed": verdict.failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
