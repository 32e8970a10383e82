#!/usr/bin/env python3
"""Run one RelaxFault benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the library and the
`perfbench` binary from source into $CARGO_TARGET_DIR (default
`.bench_build`); later calls only check the build. Informational lines
start with '#'; the last line of standard output is the workload's JSON
result. Any error exits non-zero without printing a result.

    python3 perfbench/run.py --self-test

builds and runs the harness's own tests instead.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ["lifetime_10x", "fleet_1x", "perf_fig15", "datapath_rw"]
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(build_dir, target):
    """Configure (once) and build; the toolchain's output goes to stderr."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for root in (SRC_DIR, BENCH_DIR):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(BENCH_DIR.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=BENCH_DIR.parent, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def l2_size():
    path = Path("/sys/devices/system/cpu/cpu0/cache/index2/size")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if it is present."""
    spec = Path("BENCHMARK.json")
    if not spec.exists():
        return None
    section = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[section]]


def self_test():
    build_dir = build_root() / "perfbench"
    build(build_dir, "perfbench_tests")
    done = subprocess.run([str(build_dir / "perfbench_tests")])
    sys.exit(done.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if os.environ.get("RELAXFAULT_FAILPOINTS"):
        fail("refusing to run with RELAXFAULT_FAILPOINTS set")
    if not (SRC_DIR / "sim" / "lifetime.h").exists():
        fail(f"library sources not found under {SRC_DIR}")
    if args.self_test:
        self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds 1..60")

    build_dir = build_root() / "perfbench"
    build(build_dir, "perfbench")
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(trace_dir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"perfbench exited with {done.returncode}", 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench's last line is not a JSON result", 4)
    expected = expected_metrics(args.trace == 1)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        fail("metrics differ from those BENCHMARK.json lists", 4)

    print(f"# provenance git_rev {git_rev()} source_sha256 {source_digest()}"
          f" build {BUILD_TYPE} nproc {os.cpu_count()}"
          f" l2 {l2_size()} cpu {cpu_model()}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
