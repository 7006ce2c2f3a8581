#!/usr/bin/env python3
"""Reproduction benchmark: builds re_bench from source and runs one workload.

usage: python3 perfbench/run.py --workload campaign|rib_survey|fullrib_sweep
                                --seed N --seconds S --trace 0|1

Run from the repository root. re_bench (perfbench/re_bench.cpp) is
configured and built in .bench_build (or $CARGO_TARGET_DIR) against the
sources in src/, then run once in its own process, so its peak RSS is the
workload's own. Every line re_bench prints is passed through, followed by
a host fingerprint line; the last line is the result object
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Any failure to build, run or produce those
metrics exits non-zero without printing a result.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "rib_survey", "fullrib_sweep")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
# A run must end within 180 s; the first run in a checkout may also build.
RUN_TIMEOUT_S = 170


def fatal(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def digits(text):
    if not re.fullmatch(r"[0-9]{1,19}", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def positive(text):
    value = digits(text)
    if not 1 <= value <= 3600:
        raise argparse.ArgumentTypeError(f"out of range [1, 3600]: {text!r}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=digits)
    parser.add_argument("--seconds", required=True, type=positive)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def workers():
    # Fixed, never "auto": W = min(4, usable cores).
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(directory):
    """Configures and builds re_bench; build chatter goes to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", directory, "--target", "re_bench", "-j", str(workers())],
    ]
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(directory, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fatal("build failed: " + " ".join(step))
    return os.path.join(directory, "re_bench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as source:
                        digest.update(source.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def required_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, required):
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fatal("result line has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fatal("no operation attempted")
    for name, metric in result["metrics"].items():
        if not METRIC_NAME.match(name) or len(name) > 64:
            fatal(f"bad metric name {name!r}")
        value = metric.get("value")
        if not metric.get("unit") or not isinstance(value, (int, float)) or not math.isfinite(value):
            fatal(f"metric {name} lacks a unit or a finite value")
    for name, unit in required.items():
        if name not in result["metrics"]:
            fatal(f"metric {name} missing")
        if result["metrics"][name]["unit"] != unit:
            fatal(f"metric {name} has unit {result['metrics'][name]['unit']}, not {unit}")


def main(argv):
    args = parse_args(argv)
    trace = args.trace == "1"
    required = required_metrics(trace)
    directory = build_dir()
    binary = build(directory)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workers", str(workers())]
    trace_file = os.path.join(directory, f"trace-{args.workload}-{os.getpid()}.json")
    if trace:
        command += ["--trace-file", trace_file]
    # RE_* knobs change what the program does; the benchmark runs defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RE_")}
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fatal(f"re_bench exceeded {RUN_TIMEOUT_S}s")
    finally:
        if os.path.exists(trace_file):
            os.remove(trace_file)
    if run.returncode != 0:
        fatal(f"re_bench exited with {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fatal("re_bench printed no result line")
    validate(result, required)

    for line in lines[:-1]:
        print(line)
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workers": workers(),
        "build_type": "Release",
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "re_bench_wall_s": round(time.monotonic() - start, 3),
    }
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
