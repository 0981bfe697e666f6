"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-64 --seeds 100,200,300 \
        [--seconds 15] [--trace 0] [--save runs.json]

For every metric it prints the median of the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
Runs go one after another, so they do not compete for the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, interquartile distance / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma separated")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", default=None, help="write every run's result here")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    names = list(runs[0]["metrics"])
    print(f"{'metric':36s} {'median':>14s} {'iqr/med':>9s} {'bound':>7s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med, rel = spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None or rel < bound / 3 else "  <-- above bound/3"
        print(f"{name:36s} {med:14.6g} {rel:9.4f} {bound if bound is not None else '':>7}{flag}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
