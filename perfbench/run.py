#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, measured end to end or per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; the checkout is the parent of this file's directory.
The first call builds the simulator from src/ into .bench_build/perfbench (a
plain build and a -pg build); later calls only re-check the build.

--trace 0 repeats the workload, one fresh single-threaded process per
repetition, for about --seconds and prints the end-to-end metrics. Host time
is the workload process's CPU time: on a shared virtual machine the wall
clock also counts the time other guests hold this vCPU, which says nothing
about the program. Interference from other work on the machine only ever
adds host time, so every timed piece of a repetition counts at its fastest
repetition: each segment of the run phase (10 simulated seconds of an
experiment, 20 simulated ms of the fleet), each of the several set-ups a
repetition makes, and the rest (start, checks, teardown). On a shared host a
vCPU flips between full and about half speed many times a second, so the
more repetitions there are, the likelier each piece has a fast one: the
repetitions run in up to three streams at once, each pinned to its own CPU,
one CPU always left to the rest of the machine.

pages_per_s is completed pages over the run phase; cpu_s is the run phase,
the set-ups and the rest; setup_s is the median set-up; peak memory is the
median repetition. The simulated metrics must be reproduced bit for bit by
every repetition.

--trace 1 prints the per-layer metrics: the simulated counters of every
layer, run-wide span means from a traced run, host self time per layer from
a gprof profile of the -pg build, and the tracing overhead.

Every output check of every repetition must pass for "correct" to be true.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import gprof_layers  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("petstore_ladder", "rubis_ladder", "fleet_1m", "placement_diurnal")
SLO_MS = 250.0
CHILD_TIMEOUT_S = 170
MAX_REPS = 200

END_TO_END_UNITS = {
    "pages_per_s": "pages/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_response_ms_mean": "ms",
    "sim_response_ms_top1pct_mean": "ms",
    "sim_slo_frac": "ratio",
    "served_frac": "ratio",
}

# SpanKind name (stats::to_string) -> per-layer metric.
SPAN_METRICS = {
    "http-wire": "span.http_wire_ms",
    "thread-queue": "span.queue_ms",
    "cpu": "span.cpu_ms",
    "container": "span.container_ms",
    "cache": "span.cache_ms",
    "jdbc": "span.jdbc_ms",
    "rmi-wire": "span.rmi_wire_ms",
    "stub": "span.stub_ms",
    "lock-wait": "span.lock_wait_ms",
    "push": "span.push_ms",
    "publish": "span.publish_ms",
}

# Simulated layer counters the workload program reports, with their units.
COUNTER_UNITS = {
    "sim.events": "count",
    "net.messages": "count",
    "net.wan_messages": "count",
    "net.wan_bytes": "bytes",
    "rmi.calls": "count",
    "rmi.remote_calls": "count",
    "rmi.extra_round_trips": "count",
    "rmi.stub_exchanges": "count",
    "db.statements": "count",
    "cache.ro_hit_ratio": "ratio",
    "cache.ro_lookups": "count",
    "cache.query_hit_ratio": "ratio",
    "cache.query_lookups": "count",
    "msg.published": "count",
    "msg.delivered": "count",
    "comp.calls": "count",
    "comp.writes": "count",
    "comp.blocking_pushes": "count",
    "comp.stub_hit_ratio": "ratio",
    "comp.stub_lookups": "count",
    "placement.migrations": "count",
    "placement.flips": "count",
    "placement.forwarded_calls": "count",
    "workload.requests_issued": "count",
    "workload.sessions_started": "count",
    "workload.bytes_per_session": "bytes",
}

PER_LAYER_UNITS = {
    **COUNTER_UNITS,
    "sim.events_per_page": "events/page",
    "sim.events_per_s": "events/s",
    "stats.samples": "count",
    **{metric: "ms" for metric in SPAN_METRICS.values()},
    "span.sum_ms": "ms",
    "span.untraced_ms": "ms",
    "trace.nonconforming_requests": "count",
    "trace.mean_gap_ms": "ms",
    "trace.overhead_frac": "ratio",
    **{layer + ".self_s": "s" for layer in gprof_layers.LAYERS + ("other",)},
    "profile.total_s": "s",
    "profile.coverage": "ratio",
}


class BenchError(Exception):
    """A failure that ends the run without a result."""


def clean_env():
    """Clears the library's environment overrides (worker counts, FAST runs,
    SimCheck/SimRace), so every run uses library defaults, and keeps the
    compilers' temp files inside the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MUTSVC_")}
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build(env):
    """Configures (once) and builds both variants; returns their binaries."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    binaries = {}
    for variant, gprof in (("plain", "OFF"), ("gprof", "ON")):
        out = BUILD / variant
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                          f"-DPERFBENCH_GPROF={gprof}"])
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=840)
            if proc.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}\n{proc.stdout[-4000:]}"
                                 f"{proc.stderr[-4000:]}")
        binaries[variant] = out / "perfbench_workload"
    return binaries


class Runner:
    """Spawns repetitions of one workload and collects their results."""

    def __init__(self, args, env):
        self.args = args
        self.env = env

    def run(self, binary, mode, *extra, cwd=ROOT):
        """One repetition in a fresh process: (parsed JSON, process wall s)."""
        cmd = [str(binary), "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--length", self.args.length, "--mode", mode, *extra]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, cwd=cwd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-4000:]}")
        lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
        if not lines:
            raise BenchError(f"{' '.join(cmd)} printed no result")
        return json.loads(lines[-1]), wall


class Reps:
    """Repetitions of one mode, with the determinism check across them."""

    SIM_KEYS = ("digest", "issued", "completed", "samples", "failures", "rejections",
                "discarded", "in_flight", "response_ms_mean", "response_ms_p99",
                "response_ms_top1pct_mean", "slo_frac", "response_samples", "layers")

    def __init__(self, mode):
        self.mode = mode
        self.results = []
        self.walls = []

    def add(self, result_and_wall):
        result, wall = result_and_wall
        self.results.append(result)
        self.walls.append(wall)

    @property
    def first(self):
        return self.results[0]

    def median(self, key):
        return statistics.median(r[key] for r in self.results)

    def fastest_run_s(self):
        """Run-phase host time: each segment's fastest repetition, summed."""
        return sum(min(segment) for segment in zip(*(r["run_s"] for r in self.results)))

    def checks(self):
        """(name, ok, detail) of every output check, plus determinism."""
        out = []
        for i, r in enumerate(self.results):
            for c in r["checks"]:
                if i == 0 or not c["ok"]:
                    out.append((f"{self.mode}: {c['name']}", c["ok"], c["detail"]))
        differing = [key for key in self.SIM_KEYS
                     if len({json.dumps(r.get(key), sort_keys=True) for r in self.results}) > 1]
        out.append((f"{self.mode}: {len(self.results)} repetition(s) reproduce the simulated "
                    f"outcome bit for bit", not differing,
                    f"digest {self.first['digest']}" +
                    (f"; differing: {', '.join(differing)}" if differing else "")))
        return out


def fits(deadline, durations):
    """Whether another step as slow as the slowest so far ends by `deadline`."""
    return time.monotonic() + max(durations) <= deadline


def stream_cpus():
    """The CPUs repetitions run on at once: up to three, leaving one free."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-max(1, min(3, len(cpus) - 1)):]


def repeat(runner, binary, mode, deadline):
    """Repeats the workload in one stream per CPU of stream_cpus() until
    `deadline`; a stream only starts a repetition when it is expected to fit
    (its first always runs)."""
    reps = Reps(mode)
    lock = threading.Lock()

    def stream(cpu):
        os.sched_setaffinity(0, {cpu})  # this thread, and the processes it starts
        walls = []
        while True:
            with lock:
                if len(reps.results) >= MAX_REPS:
                    return
            result = runner.run(binary, mode)
            with lock:
                reps.add(result)
            walls.append(result[1])
            if not fits(deadline, walls):
                return

    cpus = stream_cpus()
    with ThreadPoolExecutor(len(cpus)) as pool:
        list(pool.map(stream, cpus))
    return reps


def served_frac(r):
    done = r["samples"] + r["failures"] + r["rejections"]
    return r["samples"] / done if done else 0.0


def end_to_end(runner, binaries, deadline):
    reps = repeat(runner, binaries["plain"], "plain", deadline)
    first = reps.first
    setups = [min(slot) for slot in zip(*(r["setup_s"] for r in reps.results))]
    run_s = reps.fastest_run_s()
    rest_s = min(r["cpu_total_s"] - sum(r["run_s"]) - sum(r["setup_s"]) for r in reps.results)
    metrics = {
        "pages_per_s": first["completed"] / run_s,
        "cpu_s": run_s + sum(setups) + rest_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": reps.median("peak_rss_kb") / 1024.0,
        "sim_response_ms_mean": first["response_ms_mean"],
        "sim_response_ms_top1pct_mean": first["response_ms_top1pct_mean"],
        "sim_slo_frac": first["slo_frac"],
        "served_frac": served_frac(first),
    }
    run_cpu = ", ".join(f"{sum(r['run_s']):.3f}" for r in reps.results)
    walls = ", ".join(f"{wall:.3f}" for wall in reps.walls)
    info = [f"repetitions: {len(reps.results)} in {len(stream_cpus())} stream(s) (run phase "
            f"CPU {run_cpu} s; process wall {walls} s)",
            f"set-ups: {len(setups)} per repetition",
            f"response samples: {first['response_samples']}; nearest-rank p99 "
            f"{first['response_ms_p99']:.3f} ms; top 1%: {first['response_samples'] // 100} "
            f"samples; SLO {SLO_MS:g} ms"]
    return [reps], metrics, END_TO_END_UNITS, info, []


def profile(runner, binary):
    """One plain repetition of the -pg build and its layer profile."""
    prof_dir = BUILD / f"prof-{os.getpid()}"
    shutil.rmtree(prof_dir, ignore_errors=True)
    prof_dir.mkdir(parents=True)
    try:
        result, _ = runner.run(binary, "plain", "--setup-reps", "0", cwd=prof_dir)
        layers, total = gprof_layers.profile_layers(binary, prof_dir / "gmon.out", prof_dir)
    finally:
        shutil.rmtree(prof_dir, ignore_errors=True)
    return result, layers, total


def per_layer(runner, binaries, deadline):
    # The profile is the longest step; plain/traced pairs fill the rest.
    prof_result, layer_s, prof_total = profile(runner, binaries["gprof"])
    plain, traced = Reps("plain"), Reps("traced")
    pairs = []
    while len(plain.results) < MAX_REPS:
        t0 = time.monotonic()
        plain.add(runner.run(binaries["plain"], "plain", "--setup-reps", "0"))
        traced.add(runner.run(binaries["plain"], "traced", "--setup-reps", "0"))
        pairs.append(time.monotonic() - t0)
        if not fits(deadline, pairs):
            break

    p, t = plain.first, traced.first
    layers = p["layers"]
    run_s = plain.fastest_run_s()
    metrics = {name: float(layers.get(name, 0.0)) for name in COUNTER_UNITS}
    metrics["sim.events_per_page"] = layers["sim.events"] / p["completed"]
    metrics["sim.events_per_s"] = layers["sim.events"] / run_s
    metrics["stats.samples"] = float(p["response_samples"])

    n = max(1, t["traced_requests"])
    span_sum = sum(t["spans_us"][kind] for kind in SPAN_METRICS)
    for kind, name in SPAN_METRICS.items():
        metrics[name] = t["spans_us"][kind] / n / 1000.0
    metrics["span.sum_ms"] = span_sum / n / 1000.0
    metrics["span.untraced_ms"] = (t["elapsed_us"] - span_sum) / n / 1000.0
    metrics["trace.nonconforming_requests"] = float(t["nonconforming"])
    # Rounded: the two means are different float sums of the same samples
    # (+ 0.0 turns a rounded -0.0 into 0.0).
    metrics["trace.mean_gap_ms"] = round(t["elapsed_us"] / n / 1000.0 - p["response_ms_mean"],
                                         6) + 0.0
    metrics["trace.overhead_frac"] = traced.fastest_run_s() / run_s - 1.0

    for layer, self_s in layer_s.items():
        metrics[layer + ".self_s"] = self_s
    metrics["profile.total_s"] = prof_total
    metrics["profile.coverage"] = prof_total / prof_result["cpu_total_s"]

    layer_sum = sum(layer_s.values())
    checks = [
        ("profile: every sample lands in exactly one layer",
         prof_total > 0 and abs(layer_sum - prof_total) <= 1e-9 * prof_total,
         f"{layer_sum:.4f} s over the layers, {prof_total:.4f} s in the flat profile"),
        ("profiled (-pg) build simulates identically", prof_result["digest"] == p["digest"],
         f"{prof_result['digest']} vs {p['digest']}"),
        ("traced run issues the same requests", t["issued"] == p["issued"],
         f"{t['issued']} vs {p['issued']}"),
    ]
    info = [f"pairs: {len(plain.results)} plain + traced repetitions",
            f"traced requests folded: {t['traced_requests']}",
            f"profile covers {metrics['profile.coverage']:.3f} of the profiled process CPU time"]
    return [plain, traced], metrics, PER_LAYER_UNITS, info, checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--length", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny run of the workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        env = clean_env()
        binaries = build(env)
        measure = per_layer if args.trace else end_to_end
        all_reps, metrics, units, info, checks = measure(Runner(args, env), binaries,
                                                         time.monotonic() + args.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    checks = [c for reps in all_reps for c in reps.checks()] + checks
    results = [r for reps in all_reps for r in reps.results]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} length {args.length}")
    print(f"digest {all_reps[0].first['digest']}")
    for line in info:
        print(line)
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": sum(r["issued"] for r in results),
        "failed": sum(r["failures"] + r["rejections"] for r in results),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
