"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--out perfbench/results/FILE.json]

For every workload it runs `run.py` once per seed, one run at a time, with
BENCHMARK.json's run_seconds.  For each end-to-end metric it prints the
median of the per-run values and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound.  --out keeps every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}",
                  file=sys.stderr)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = summarise(values)
            if "bound" in m:
                s = summary[m["name"]]
                print(f"{workload:17s} {m['name']:12s} median "
                      f"{s['median']:.4f} {m['unit']:5s} spread "
                      f"{s['spread']:.4f} (bound {m['bound']})")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
