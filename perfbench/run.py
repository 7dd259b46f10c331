"""Benchmark runner for csstress.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/csstress` and
`corpus/`).  Every pass is one fresh `python3 -m csstress.cli` process,
run one at a time, so the module-level stress-table caches start cold as
they do for a command-line user.  Passes repeat until S seconds have been
measured; every pass's output is checked by an oracle that does not use
csstress (oracles.py).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  cpu_s        median CPU seconds (user + system) of one pass process
  peak_rss_mb  median of the pass process's ru_maxrss
  setup_s      median of 9 set-ups, in CPU seconds: write the inputs, then
               start an interpreter that imports csstress and exits
  ok_ratio     passes whose output the oracle accepted / passes run
CPU time rather than wall time, because on a shared virtual machine wall
time also counts the time the hypervisor runs other guests (steal), which
is not the program's cost; wall time per pass goes to stderr and into
the traced run's `trace.untraced_wall_s`.
--trace 1 alternates untraced and traced passes (tracing.py), requires
their stdout to be byte-identical, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracing import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
PASS_LIMIT_S = 150.0  # whole-run budget; a pass still running then is killed

# per-layer metrics whose name differs from the <span>.<count> they read
ALIASES = {
    "exactla.basis_max_bits": "exactla.nullspace.max_bits",
    "complexes.faces": "complexes.all_faces.faces",
}


class Pass:
    __slots__ = ("wall_s", "cpu_s", "rss_mb", "returncode", "stdout",
                 "stderr")


def run_pass(argv, root: Path, work: Path, env, deadline: float) -> Pass:
    """Run one child process to completion and measure it."""
    out_path, err_path = work / "pass.out", work / "pass.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=err, cwd=root, env=env)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    p = Pass()
    p.wall_s = end - start
    # user + system time; with paravirtual steal accounting this excludes
    # time the hypervisor gave the CPU to other guests
    p.cpu_s = usage.ru_utime + usage.ru_stime
    p.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    p.returncode = proc.returncode
    p.stdout = out_path.read_bytes()
    p.stderr = err_path.read_bytes()
    return p


def measure_setup(workload, root: Path, work: Path, seed: int, env):
    """Median CPU seconds of a set-up: writing the inputs in this process,
    then a fresh interpreter that imports csstress."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.process_time()
        args = workload.write_inputs(root, work, seed)
        generate = time.process_time() - start
        p = run_pass(["-c", "import csstress"], root, work, env,
                     time.perf_counter() + PASS_LIMIT_S)
        if p.returncode != 0:
            raise RuntimeError(f"import csstress failed: {p.stderr[-300:]!r}")
        times.append(generate + p.cpu_s)
    return args, statistics.median(times)


def problems_of(p: Pass, oracle) -> list[str]:
    if p.returncode != 0:
        tail = p.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return [f"exit code {p.returncode}: {' | '.join(tail)}"]
    return oracle.check(p.stdout.decode())


def report_problems(label, problems):
    for line in problems[:10]:
        print(f"  {label}: {line}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    missing = [p for p in (spec_path, root / "src" / "csstress",
                           root / "corpus") if not p.exists()]
    if missing:
        print(f"run from a csstress checkout: missing {missing[0]}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    workload = WORKLOADS[args.workload]
    run_start = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        cli_args, setup_s = measure_setup(workload, root, work, args.seed,
                                          env)
        oracle = workload.oracle(work, args.seed)
        deadline = run_start + PASS_LIMIT_S
        plain = ["-m", "csstress.cli", *cli_args]
        if args.trace:
            values, attempted, failed, correct = traced_run(
                plain, cli_args, root, work, env, oracle, args.seconds,
                deadline)
        else:
            values, attempted, failed, correct = plain_run(
                plain, root, work, env, oracle, args.seconds, deadline)
            values["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        value = values.get(ALIASES.get(m["name"], m["name"]), 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def plain_run(argv, root, work, env, oracle, seconds, deadline):
    passes, failed = [], 0
    stop = time.perf_counter() + seconds
    while not passes or time.perf_counter() < stop:
        p = run_pass(argv, root, work, env, deadline)
        passes.append(p)
        problems = problems_of(p, oracle)
        failed += bool(problems)
        report_problems(f"pass {len(passes)}", problems)
        print(f"pass {len(passes)}: {p.wall_s:.3f} s wall, {p.cpu_s:.3f} s "
              f"cpu, {p.rss_mb:.1f} MB, "
              f"{'FAIL' if problems else 'ok'}", file=sys.stderr)
        if p.returncode < 0:  # killed at the deadline
            break
    values = {
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "ok_ratio": (len(passes) - failed) / len(passes),
    }
    return values, len(passes), failed, failed == 0


def traced_run(plain, cli_args, root, work, env, oracle, seconds, deadline):
    """Alternate untraced and traced passes of the same command."""
    untraced, traced, layers = [], [], []
    failed = 0
    stop = time.perf_counter() + seconds
    while not traced or time.perf_counter() < stop:
        n = len(traced)
        spans_path = work / "spans.json"
        spans_path.unlink(missing_ok=True)
        traced_argv = [str(HERE / "tracing.py"), str(spans_path), str(n),
                       "--", *cli_args]
        order = [(plain, untraced), (traced_argv, traced)]
        if n % 2:
            order.reverse()
        pair_problems = []
        for argv, bucket in order:
            p = run_pass(argv, root, work, env, deadline)
            bucket.append(p)
            problems = problems_of(p, oracle)
            failed += bool(problems)
            pair_problems += problems
            report_problems(f"pair {n + 1}", problems)
        if not pair_problems and traced[-1].stdout != untraced[-1].stdout:
            failed += 1
            report_problems(f"pair {n + 1}",
                            ["traced stdout differs from untraced"])
        elif not pair_problems:
            spans = json.loads(spans_path.read_text())["spans"]
            layer = layer_metrics(spans)
            layer["trace.spans"] = len(spans)
            layers.append(layer)
        print(f"pair {n + 1}: cpu untraced {untraced[-1].cpu_s:.3f} s, "
              f"traced {traced[-1].cpu_s:.3f} s", file=sys.stderr)
        if min(untraced[-1].returncode, traced[-1].returncode) < 0:
            break  # killed at the deadline
    values = {}
    for key in set().union(*layers):
        # counts repeat exactly from pass to pass; keep them integers
        mid = (statistics.median if key.endswith("_s")
               else statistics.median_low)
        values[key] = mid([layer.get(key, 0) for layer in layers])
    untraced_s = statistics.median(p.cpu_s for p in untraced)
    traced_s = statistics.median(p.cpu_s for p in traced)
    values["trace.untraced_cpu_s"] = untraced_s
    values["trace.cpu_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.untraced_wall_s"] = statistics.median(
        p.wall_s for p in untraced)
    attempted = len(untraced) + len(traced)
    return values, attempted, failed, failed == 0 and bool(layers)


if __name__ == "__main__":
    raise SystemExit(main())
