"""Self-test of the benchmark: each oracle accepts the real output of one
short pass and rejects deliberately corrupted output.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, crosspoly_instance  # noqa: E402

SEED = 7


def run_cli(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "csstress.cli", *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """(stdout, oracle) of one real pass per workload."""
    out = {}
    for name, workload in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        args = workload.write_inputs(ROOT, work, SEED)
        out[name] = (run_cli(args), workload.oracle(work, SEED))
    return out


# -- the benchmark's own face enumeration -------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_enumeration_matches_closed_forms(d):
    facets = crosspoly_instance(d, SEED, "x")["facets"]
    f = oracles.f_vector(facets)
    assert f == oracles.crosspoly_f(d)
    assert oracles.h_vector(f) == oracles.crosspoly_h(d)
    assert oracles.is_pure(facets) and oracles.is_cs(facets)


def test_enumeration_on_non_cs_inputs():
    assert not oracles.is_cs([[1, 2, 3]])
    assert not oracles.is_cs([[1, -1]])
    assert oracles.h_vector(oracles.f_vector([[1, 2, 3]])) == [1, 0, 0, 0]
    assert not oracles.is_pure([[1, 2], [3]])


def test_inputs_depend_only_on_seed():
    a = crosspoly_instance(5, SEED, "x")
    assert a == crosspoly_instance(5, SEED, "x")
    assert a != crosspoly_instance(5, SEED + 1, "x")


# -- verify_corpus ------------------------------------------------------------


def _records(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


def _lines(records):
    return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"


def test_verify_accepts_real_output(real):
    stdout, oracle = real["verify_corpus"]
    assert len(_records(stdout)) == 115
    assert oracle.check(stdout) == []


def test_verify_rejects_fail_verdict(real):
    stdout, oracle = real["verify_corpus"]
    recs = _records(stdout)
    recs[3]["verdict"] = "fail"
    assert oracle.check(_lines(recs))


def test_verify_rejects_wrong_cm_dims(real):
    stdout, oracle = real["verify_corpus"]
    recs = _records(stdout)
    cm = next(r for r in recs
              if r["claim"] == "CM" and r["instance"] == "crosspoly_d4")
    cm["computed"]["dims"][2] += 1
    assert any("CM dims" in p for p in oracle.check(_lines(recs)))


def test_verify_rejects_missing_and_duplicate_records(real):
    stdout, oracle = real["verify_corpus"]
    recs = _records(stdout)
    assert any("missing" in p for p in oracle.check(_lines(recs[1:])))
    assert any("more than once" in p
               for p in oracle.check(_lines(recs + recs[:1])))


def test_verify_rejects_wrong_seed_and_garbage(real):
    stdout, oracle = real["verify_corpus"]
    recs = _records(stdout)
    recs[0]["seed"] = SEED + 1
    assert oracle.check(_lines(recs))
    assert oracle.check(stdout + "not json\n")


# -- stress_crosspoly ---------------------------------------------------------


def test_stress_accepts_real_output(real):
    stdout, oracle = real["stress_crosspoly"]
    assert oracle.check(stdout) == []


@pytest.mark.parametrize("key,delta", [("minus", 1), ("dim", 1), ("plus", -1)])
def test_stress_rejects_corrupted_degree(real, key, delta):
    stdout, oracle = real["stress_crosspoly"]
    obj = json.loads(stdout)
    obj["degrees"][2][key] += delta
    assert oracle.check(json.dumps(obj))


def test_stress_rejects_missing_degree(real):
    stdout, oracle = real["stress_crosspoly"]
    obj = json.loads(stdout)
    obj["degrees"].pop()
    assert oracle.check(json.dumps(obj))


# -- load_large --------------------------------------------------------------


def test_info_accepts_real_output(real):
    stdout, oracle = real["load_large"]
    assert oracle.check(stdout) == []


@pytest.mark.parametrize("key", ["h", "f", "g"])
def test_info_rejects_one_wrong_entry(real, key):
    stdout, oracle = real["load_large"]
    obj = json.loads(stdout)
    obj[key][1] += 1
    assert oracle.check(json.dumps(obj))


def test_info_rejects_not_cs(real):
    stdout, oracle = real["load_large"]
    obj = json.loads(stdout)
    obj["cs"] = False
    assert oracle.check(json.dumps(obj))


# -- tracing and the runner --------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, {"rows": 2}],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, {"rows": 3}],
    ]
    m = layer_metrics(spans)
    assert m["a.self_s"] == pytest.approx(6.0)
    assert m["b.self_s"] == pytest.approx(3.0)
    assert m["b.calls"] == 2 and m["b.rows"] == 5
    assert m["a.misses"] == 1 and m["c.misses"] == 0


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "load_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_pass_prints_the_same_stdout(real, tmp_path):
    stdout, _ = real["verify_corpus"]
    args = WORKLOADS["verify_corpus"].write_inputs(ROOT, tmp_path, SEED)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(spans_path), "0",
         "--", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
    m = layer_metrics(json.loads(spans_path.read_text())["spans"])
    assert m["cli.main.calls"] == 1
    assert m["claims.linear_table.misses"] == 10
    assert m["complexes.from_facets.calls"] > 0
