#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload beacon_grid --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the libraries under src/ plus the omni_perfbench program) into
.bench_build/perfbench; later calls only rebuild what changed. The build's
output goes to stderr, so the last line of stdout is the program's JSON
result. With --trace 1 the recorded spans are written to
.bench_build/perfbench/spans/<workload>-seed<seed>.json.

--seconds defaults to run_seconds in BENCHMARK.json, the span the bounds
were set from. When --seed equals the seed recorded in perfbench/expected.json, the run
also checks its digest against the recorded one. --workload all runs every
workload in turn, each in its own process, and exits non-zero if any of
them fails a check.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("beacon_grid", "data_churn", "city_churn")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Digest of every file the benchmark program is built from, so a result
    names the exact source even outside a git checkout."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [HERE / "CMakeLists.txt", HERE / "omni_perfbench.cpp"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        # A build tree configured for another checkout cannot be reused.
        shutil.rmtree(BUILD)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "omni_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="host seconds to measure (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    build()

    expected = json.loads((HERE / "expected.json").read_text())
    failed = False
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [str(BUILD / "omni_perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--source-id", source_id()]
        if args.seed == expected["seed"] and workload in expected["digests"]:
            cmd += ["--expect-digest", expected["digests"][workload]]
        if args.trace:
            spans = BUILD / "spans"
            spans.mkdir(exist_ok=True)
            cmd += ["--spans", str(spans / f"{workload}-seed{args.seed}.json")]
        sys.stdout.flush()
        failed |= subprocess.run(cmd, cwd=ROOT).returncode != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
