#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 e2ebench/spread.py --workloads train-sweep-16b,serve-mixed-16b \
        --seeds 1-10 [--trace 1] [--seconds 15] [--save set2.json] [--against set1.json]

Runs the command of BENCHMARK.json from the repository root once per
(workload, seed). For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
marked against the metric's bound and a third of it. --save writes every
run's values to a JSON file; --against reads such a file from an earlier
set and marks how far each median moved in the worse direction against
the bound. With --trace 1 it prints each run's traced self-time share by
layer instead, so the top layer per workload can be compared across seeds.
Exits non-zero if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--save", help="write every run's metric values to this JSON file")
    ap.add_argument("--against", help="an earlier --save file to compare medians with")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    ok = True
    saved = {}
    for workload in args.workloads.split(","):
        values = saved.setdefault(workload, {})
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            good = proc.returncode == 0 and result.get("correct") is True
            ok &= good
            shares = [l.split(": ", 1)[1] for l in lines if "self-time share by layer" in l]
            wall = [l.split()[1] for l in lines if l.strip().startswith("run_wall_s")]
            steal = [l.split()[1] for l in lines if l.strip().startswith("host_steal_share")]
            print(f"{workload} seed {seed}: {'ok' if good else 'FAILED'}"
                  f" wall {wall[0] if wall else '?'} s, host steal {steal[0] if steal else '?'}"
                  + (f" | {shares[0]}" if shares else ""), flush=True)
            if not good:
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.trace == "0":
                print("    " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        if args.trace != "0":
            continue
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "OK" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:<18} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:.4f} (bound {bound}) {mark}", flush=True)
            before = earlier.get(workload, {}).get(name)
            if before and bound is not None:
                first = statistics.median(before)
                worse = (med - first) / first if better[name] == "lower" else (first - med) / first
                mark = "OK" if worse <= bound else "TOO WIDE"
                print(f"  {'':<18} earlier median {first:<12.6g} worse by {worse:+.4f} {mark}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
