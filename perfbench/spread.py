#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --seeds 10 --record perfbench/baseline.json

Runs every workload in BENCHMARK.json for its run_seconds with seeds 1..N,
interleaved seed by seed across the workloads, so machine drift hits every
workload alike. For each end-to-end metric it prints the median
and the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them) next to the metric's bound in
BENCHMARK.json. --record writes the medians, quartiles and every value,
stamped with the machine, compiler, build type, commit and source digest
they came from.
"""
import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    provenance = next((l for l in lines if l.startswith("provenance:")), "")
    return json.loads(lines[-1]), provenance, elapsed


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() + ("+dirty-src" if dirty.stdout.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--record", metavar="PATH")
    args = ap.parse_args()

    specs = bench["end_to_end"]
    seconds = bench["run_seconds"]
    values = {w: {m["name"]: [] for m in specs} for w in names}
    provenance = ""
    for seed in range(1, args.seeds + 1):
        for w in names:
            result, provenance, elapsed = run_once(w, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: a correctness check failed")
            for name, v in result["metrics"].items():
                values[w][name].append(v["value"])
            print(f"{w} seed {seed}: {elapsed:.1f} s", file=sys.stderr)

    ok = True
    report = {}
    for w in names:
        print(f"\n{w} ({args.seeds} seeds, {seconds:g} s runs)")
        report[w] = {}
        for spec in specs:
            vs = values[w][spec["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = spec["bound"]
            flag = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            ok = ok and share <= bound
            print(f"  {spec['name']:34s} median {med:14.6g} {spec['unit']:11s} "
                  f"IQR/median {share:7.4f}  bound {bound}  {flag}")
            print("    values: " + " ".join(f"{v:.6g}" for v in vs))
            report[w][spec["name"]] = {"unit": spec["unit"], "median": med,
                                       "q1": q1, "q3": q3, "values": vs}
    if args.record:
        stamp = dict(re.findall(r'(\w+)=("[^"]*"|\S+)', provenance))
        stamp = {k: v.strip('"') for k, v in stamp.items()}
        stamp["commit"] = git_commit()
        stamp["seeds"] = [1, args.seeds]
        stamp["run_seconds"] = seconds
        out = {"recorded_on": stamp, "workloads": report}
        pathlib.Path(args.record).write_text(json.dumps(out, indent=1) + "\n")
        print(f"\nwrote {args.record}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
