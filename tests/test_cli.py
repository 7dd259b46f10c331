from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import weakref
from math import comb
from pathlib import Path

import pytest

import csstress.claims as claims_module
import csstress.cli as cli_module
import csstress.engine as engine_module
import csstress.exactla as exactla_module
from csstress import LsopNotFound
from csstress.cli import main
from conftest import CORPUS_DIR
from oracles import glued_cross_polytope


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_octahedron_line(capsys):
    path = str(CORPUS_DIR / "crosspoly_d3.json")
    code, out, _ = run(capsys, "info", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d=3, f=(1,6,12,8), h=(1,3,3,1), cs=yes"
    assert lines[1] == "g=(1,2)"
    assert lines[2] == "polytope: d=3, 6 vertices"


def test_info_json_mode(capsys):
    path = str(CORPUS_DIR / "noncm_edges.json")
    code, out, _ = run(capsys, "info", path, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["h"] == [1, 2, -1]
    assert obj["cs"] is True
    assert obj["polytope"] is False


def test_info_nonpure_complex(tmp_path, capsys):
    p = tmp_path / "mixed.json"
    p.write_text('{"facets": [[1, 2, 3], [4, 5]]}')
    code, out, _ = run(capsys, "info", str(p))
    assert code == 0
    assert "not pure" in out


def test_stress_table_output(capsys):
    path = str(CORPUS_DIR / "crosspoly_d2.json")
    code, out, _ = run(capsys, "stress", path)
    assert code == 0
    assert out == (
        "seed: 1\n"
        "forms: special_lsop (attempts: 1)\n"
        "degree  dim  plus  minus\n"
        "     0    1     1      0\n"
        "     1    2     2      0\n"
        "     2    1     1      0\n"
    )


def test_stress_single_degree_json(capsys):
    path = str(CORPUS_DIR / "polygon_m3.json")
    code, out, _ = run(
        capsys, "stress", path, "--affine", "--degree", "1",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "affine"
    assert obj["kind"] == "canonical_polytope"
    assert obj["degrees"] == [
        {"degree": 1, "dim": 3, "plus": 2, "minus": 1}
    ]


def test_stress_affine_needs_coordinates(tmp_path, capsys):
    p = tmp_path / "plain.json"
    p.write_text('{"facets": [[1, 2], [-1, -2], [1, -2], [-1, 2]]}')
    code, _, err = run(capsys, "stress", str(p), "--affine")
    assert code == 2
    assert "coordinates" in err


def test_stress_max_degree_extends_table(capsys):
    path = str(CORPUS_DIR / "crosspoly_d2.json")
    code, out, _ = run(capsys, "stress", path, "--max-degree", "4")
    assert code == 0
    rows = out.splitlines()[3:]
    assert len(rows) == 5
    assert rows[-1].split() == ["4", "0", "0", "0"]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("option", ["--degree", "--max-degree"])
def test_stress_negative_degree_is_input_error(capsys, option, fmt):
    path = str(CORPUS_DIR / "crosspoly_d2.json")
    code, out, err = run(capsys, "stress", path, option, "-1",
                         "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "input error: degrees are nonnegative\n"


@pytest.mark.parametrize("options", [
    ["--degree", "1", "--max-degree", "3"],
    ["--max-degree", "3", "--degree", "1"],
])
def test_stress_degree_and_max_degree_exclude_each_other(capsys, options):
    # one of them would otherwise be dropped without a word
    path = str(CORPUS_DIR / "crosspoly_d2.json")
    with pytest.raises(SystemExit) as exc:
        main(["stress", path, *options])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "not allowed with argument" in err


def child_env() -> dict:
    """The environment of a child process that imports this package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_subprocess(*argv, timeout):
    """The CLI in a child process, so that a regression to a slow path
    fails by timeout instead of hanging the suite."""
    return subprocess.run(
        [sys.executable, "-m", "csstress.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=timeout,
    )


def renamed_corpus_copies(tmp_path, n) -> Path:
    """A directory of n copies of the corpus, each instance renamed
    apart, since `verify` refuses two instances of one name."""
    for k in range(n):
        for src in CORPUS_DIR.glob("*.json"):
            obj = json.loads(src.read_text(encoding="utf-8"))
            obj["name"] = f"{obj['name']}_{k}"
            (tmp_path / f"{src.stem}_{k}.json").write_text(json.dumps(obj))
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["stress", str(CORPUS_DIR / "crosspoly_d3.json"),
     "--max-degree", "100000"],
    # four copies of the corpus write about 95 KB, more than a pipe
    # holds, so the reader closes it before the last write
    ["verify", "--format", "json"],
])
def test_closed_pipe_exits_without_a_traceback(tmp_path, argv):
    # as `csstress ... | head -1`: the reader takes one line and closes
    # the pipe; the rest of the output is dropped, with exit 141
    if argv[0] == "verify":
        argv = argv + [str(renamed_corpus_copies(tmp_path, 4))]
    proc = subprocess.Popen(
        [sys.executable, "-m", "csstress.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141, err
    assert first and err == b""


@pytest.mark.parametrize("mode", [[], ["--affine"]])
def test_stress_degree_60_is_answered_without_enumeration(mode):
    proc = run_subprocess(
        "stress", str(CORPUS_DIR / "crosspoly_d3.json"), "--degree", "60",
        *mode, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["60", "0", "0", "0"]


def peak_rss_kib(*argv) -> int:
    """ru_maxrss of a child process that runs the CLI, stdout discarded."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import resource, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from csstress.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
        " file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_stress_memory_does_not_grow_with_max_degree(fmt):
    # degrees above d are answered by theorem as they are printed, so
    # 40 000 of them cost no more memory than the table alone
    path = str(CORPUS_DIR / "crosspoly_d3.json")
    small, large = (peak_rss_kib("stress", path, "--max-degree", top,
                                 "--format", fmt) for top in ("3", "40000"))
    assert large - small < 5 * 1024, (small, large)


@pytest.mark.parametrize("command, facets", [
    ("info", [list(range(1, 41))]),
    ("verify", [list(range(1, 41)), [41, 42]]),  # not pure
])
def test_huge_facet_is_refused_quickly(tmp_path, command, facets):
    # a 40-vertex facet has 2^40 faces; enumerating them never finishes
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"facets": facets}))
    proc = run_subprocess(command, str(path), timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: ")
    assert proc.stdout == ""


def test_stress_above_d_without_parity_split(capsys):
    path = str(CORPUS_DIR / "simplex2.json")
    code, out, _ = run(capsys, "stress", path, "--degree", "9",
                       "--format", "json", "--basis")
    assert code == 0
    assert json.loads(out)["degrees"] == [
        {"degree": 9, "dim": 0, "plus": None, "minus": None, "basis": []}
    ]


def test_affine_shortcut_needs_certified_forms(tmp_path, capsys, monkeypatch):
    # the edge {1, 2} lies on a line through the origin, so the coordinate
    # forms are no l.s.o.p. and degree 4 must be computed
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({
        "coordinates": {"1": ["1", "1"], "-1": ["-1", "-1"],
                        "2": ["2", "2"], "-2": ["-2", "-2"],
                        "3": ["0", "1"], "-3": ["0", "-1"]},
        "facets": [[1, 2], [2, 3], [3, -1], [-1, -2], [-2, -3], [-3, 1]],
    }))
    used = []
    real = cli_module.vanishing_stress_space
    monkeypatch.setattr(cli_module, "vanishing_stress_space",
                        lambda *a: used.append(a[2]) or real(*a))
    for path, shortcut in ((flat, []), (CORPUS_DIR / "polygon_m3.json", [4])):
        used.clear()
        code, out, _ = run(capsys, "stress", str(path), "--affine",
                           "--degree", "4")
        assert code == 0
        assert out.splitlines()[-1].split() == ["4", "0", "0", "0"]
        assert used == shortcut, path


def nonconvex_hexagon(tmp_path):
    """A cs hexagon whose coordinate forms fail lsop_check, so `stress
    --affine` assembles every degree it is asked for."""
    path = tmp_path / "nonconvex.json"
    path.write_text(json.dumps({
        "coordinates": {"1": ["1", "1"], "-1": ["-1", "-1"],
                        "2": ["2", "2"], "-2": ["-2", "-2"],
                        "3": ["1", "0"], "-3": ["-1", "0"]},
        "facets": [[1, 2], [2, 3], [3, -1], [-1, -2], [-2, -3], [-3, 1]],
    }))
    return path


def test_affine_degree_with_too_many_monomials_is_refused_quickly(tmp_path):
    # the coordinate forms of this non-convex hexagon fail lsop_check, so
    # degree 200000 would be enumerated: 6 + 6 * 199999 monomials
    path = nonconvex_hexagon(tmp_path)
    proc = run_subprocess("stress", str(path), "--affine", "--degree",
                          "200000", timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: ")
    assert "1200000" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("request_args, count", [
    (["--degree", "100000"], 600000),
    # degrees 3..400 lie beyond the affine table, 6 * i monomials each
    (["--max-degree", "400"], 481182),
])
def test_affine_request_past_the_monomial_budget_is_refused_quickly(
        tmp_path, request_args, count):
    # each degree is under the per-degree limit, but together they are
    # far past what exact elimination finishes in seconds
    path = nonconvex_hexagon(tmp_path)
    proc = run_subprocess("stress", str(path), "--affine", *request_args,
                          timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: ")
    assert str(count) in proc.stderr
    assert proc.stdout == ""


def test_monomial_budget_counts_only_degrees_beyond_the_table(
        tmp_path, capsys, monkeypatch):
    # degrees 3..44 of the hexagon have 6 * (3 + ... + 44) = 5922
    # monomials; the table's degrees 0..2 are not counted
    path = str(nonconvex_hexagon(tmp_path))
    monkeypatch.setattr(cli_module, "MAX_REQUEST_MONOMIALS", 5922)
    code, out, _ = run(capsys, "stress", path, "--affine",
                       "--max-degree", "44")
    assert code == 0
    assert out.splitlines()[-1].split() == ["44", "0", "0", "0"]
    monkeypatch.setattr(cli_module, "MAX_REQUEST_MONOMIALS", 5921)
    code, out, err = run(capsys, "stress", path, "--affine",
                         "--max-degree", "44")
    assert code == 2
    assert "5922" in err and out == ""


def golden_stress_json(name):
    """The exact `stress --format json` stdout of a corpus file."""
    text = (Path(__file__).resolve().parent / "golden"
            / "stress_linear_json.txt").read_text()
    return text.split(f"## {name}\n")[1].split("## ")[0]


def count_nullspace_calls(monkeypatch):
    calls = []
    real = engine_module._int_nullspace
    monkeypatch.setattr(engine_module, "_int_nullspace",
                        lambda rows, ncols: calls.append(rows)
                        or real(rows, ncols))
    return calls


def test_stress_dims_of_a_cm_complex_solve_no_block(capsys, monkeypatch):
    calls = count_nullspace_calls(monkeypatch)
    code, out, _ = run(capsys, "stress", str(CORPUS_DIR / "crosspoly_d4.json"),
                       "--format", "json")
    assert code == 0
    assert out == golden_stress_json("crosspoly_d4")
    assert calls == []


@pytest.mark.parametrize("name, exact_path", [("noncm_edges", True),
                                              ("crosspoly_d3", False)])
def test_stress_falls_back_to_exact_dims(capsys, monkeypatch, name,
                                         exact_path):
    calls = count_nullspace_calls(monkeypatch)
    path = str(CORPUS_DIR / f"{name}.json")
    code, out, _ = run(capsys, "stress", path, "--format", "json")
    assert code == 0
    assert out == golden_stress_json(name)
    # noncm_edges is not CM, so its dims are never certified
    assert bool(calls) == exact_path
    # mod 3 the ranks drop, the certificate fails, and the dims are solved
    calls.clear()
    monkeypatch.setattr(engine_module, "PRIMES", (3,))
    code, out, _ = run(capsys, "stress", path, "--format", "json")
    assert code == 0
    assert out == golden_stress_json(name)
    assert calls


@pytest.mark.parametrize("primes, solved", [((3, 32749), False),
                                             ((3,), True)])
def test_second_prime_certifies_when_the_first_fails(capsys, monkeypatch,
                                                     primes, solved):
    # mod 3 a rank of crosspoly_d4 drops, so 3 alone falls back to exact
    # solves, and 3 then 32749 certifies through the second prime
    monkeypatch.setattr(engine_module, "PRIMES", primes)
    calls = count_nullspace_calls(monkeypatch)
    path = str(CORPUS_DIR / "crosspoly_d4.json")
    code, out, _ = run(capsys, "stress", path, "--format", "json")
    assert code == 0
    assert out == golden_stress_json("crosspoly_d4")
    assert bool(calls) == solved


@pytest.mark.parametrize("primes", [engine_module.PRIMES, (3,)])
def test_dims_only_stress_holds_one_degree_at_a_time(capsys, monkeypatch,
                                                     primes):
    # every block assembled with a matrix is tracked while it lives; each
    # elimination, mod p or exact, may see the two blocks of one degree
    live = weakref.WeakSet()
    seen = []

    class Tracked(engine_module._Block):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.matrix is not None:
                live.add(self)

    real = exactla_module._forward_eliminate
    monkeypatch.setattr(exactla_module, "_forward_eliminate",
                        lambda rows, update: seen.append(len(live))
                        or real(rows, update))
    real_mod = engine_module.rank_mod
    monkeypatch.setattr(engine_module, "rank_mod",
                        lambda matrix, p: seen.append(len(live))
                        or real_mod(matrix, p))
    monkeypatch.setattr(engine_module, "_Block", Tracked)
    monkeypatch.setattr(engine_module, "PRIMES", primes)
    path = str(CORPUS_DIR / "crosspoly_d4.json")
    code, out, _ = run(capsys, "stress", path, "--format", "json")
    assert code == 0
    assert out == golden_stress_json("crosspoly_d4")
    assert max(seen) == 2


def test_stress_dims_of_the_6_cross_polytope(tmp_path, capsys, monkeypatch):
    calls = count_nullspace_calls(monkeypatch)
    path = str(tmp_path / "cp6.json")
    assert run(capsys, "generate", "crosspoly", "--d", "6", "--out",
               path)[0] == 0
    code, out, _ = run(capsys, "stress", path, "--format", "json")
    assert code == 0
    # the boundary has h_i = C(6, i), and minus_i = (h_i - C(d, i)) / 2
    assert [(r["degree"], r["dim"], r["plus"], r["minus"])
            for r in json.loads(out)["degrees"]] == [
        (i, comb(6, i), comb(6, i), 0) for i in range(7)]
    assert calls == []


@pytest.mark.parametrize("text", [
    '{"facets": [[true, 2], [-1, -2]]}',
    '{"facets": [[1, 2], [-1, -2]], "ground_set": [1, -1, 2, -2, true]}',
    '{"facets": [[1, 2], [-1, false]]}',
    '{"facets": [[1, 1]]}',
    '{"facets": [[1, 2], [-2, 3, -2]]}',
    '{"coordinates": {"1": ["1"], "-1": ["-1"]}, "facets": [[true], [-1]]}',
    '{"coordinates": {"1": ["1"], "-1": ["-1"]}, "facets": [[1, 1], [-1]]}',
])
def test_info_rejects_boolean_and_repeated_labels(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run(capsys, "info", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("command", ["info", "stress", "verify"])
@pytest.mark.parametrize("text", ['{"facets": [[]]}', '{"facets": [[], []]}'])
def test_complex_with_no_vertex_is_input_error(tmp_path, capsys, command,
                                               text):
    # once read as d = 0 by info, while stress and verify drew 8 special
    # l.s.o.p. samples that could not succeed and exited 3
    p = tmp_path / "empty.json"
    p.write_text(text)
    code, out, err = run(capsys, command, str(p))
    assert code == 2
    assert out == ""
    assert err == 'input error: "facets" must hold at least one vertex\n'


@pytest.mark.parametrize("command", ["info", "stress", "verify"])
def test_vertex_named_by_two_keys_is_input_error(tmp_path, capsys, command):
    # "01" and "-01" read as 1 and -1, and once moved the square's vertex
    # 1 to (3, 1) with exit 0
    p = tmp_path / "square.json"
    p.write_text(json.dumps({
        "coordinates": {"1": ["1", "0"], "-1": ["-1", "0"],
                        "2": ["0", "1"], "-2": ["0", "-1"],
                        "01": ["3", "1"], "-01": ["-3", "-1"]},
        "facets": [[1, 2], [2, -1], [-1, -2], [-2, 1]],
    }))
    code, out, err = run(capsys, command, str(p))
    assert code == 2
    assert out == ""
    assert err == "input error: bad vertex label '01'\n"


@pytest.mark.parametrize("command", ["info", "verify"])
@pytest.mark.parametrize("text", [
    '{"facets": [[1, 2], [-1, -2]], "junk": %s}' % ("9" * 5000),
    '{"coordinates": {"1": [%s], "-1": ["-1"]}, "facets": [[1], [-1]]}'
    % ("9" * 5000),
])
def test_oversized_json_integer_is_input_error(tmp_path, capsys, command,
                                               text):
    # json.loads raises ValueError past Python's int digit limit; exit 1
    # would read as "a claim failed"
    p = tmp_path / "big.json"
    p.write_text(text)
    code, out, err = run(capsys, command, str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("command", ["info", "stress", "verify"])
@pytest.mark.parametrize("text,key", [
    # json.loads keeps the last of two equal keys: this square once ran
    # with exit 0 and vertex 1 at (3, 1)
    ('{"coordinates": {"1": ["1", "0"], "-1": ["-1", "0"], "2": ["0", "1"],'
     ' "-2": ["0", "-1"], "1": ["3", "1"], "-1": ["-3", "-1"]},'
     ' "facets": [[1, 2], [2, -1], [-1, -2], [-2, 1]]}', "1"),
    ('{"facets": [[1, 2], [-1, -2]], "facets": [[1], [-1]]}', "facets"),
    ('{"name": "a", "facets": [[1], [-1]], "name": "b"}', "name"),
])
def test_json_object_with_a_repeated_key_is_input_error(tmp_path, capsys,
                                                        command, text, key):
    p = tmp_path / "repeated.json"
    p.write_text(text)
    code, out, err = run(capsys, command, str(p))
    assert code == 2
    assert out == ""
    assert err == (f"input error: invalid JSON: key {key!r} is repeated in "
                   "one object\n")


SQUARE = [[1, 2], [2, -1], [-1, -2], [-2, 1]]


@pytest.mark.parametrize("command, text", [
    ("info", "[" * 100_000 + "]" * 100_000),
    ("info", '{"facets": ' + "[" * 990 + "]" * 990 + "}"),
    # valid facets; the report writer once recursed into "expected"
    ("verify", json.dumps({"facets": SQUARE, "expected": {"h": "DEEP"}})
     .replace('"DEEP"', "[" * 500 + "]" * 500)),
], ids=["info-100000-deep", "info-990-deep", "verify-expected-500-deep"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command, text):
    # each once exited 1 with a RecursionError traceback
    p = tmp_path / "deep.json"
    p.write_text(text)
    code, out, err = run(capsys, command, str(p), "--format", "json")
    assert (code, out) == (2, "")
    assert err == "input error: JSON nested deeper than 32 levels\n"


def test_json_nesting_limit_counts_no_string(tmp_path, capsys):
    # 32 levels are read and 33 refused: the outer object is one level,
    # and brackets inside strings nest nothing
    p = tmp_path / "nested.json"
    for depth, code in ((32, 0), (33, 2)):
        junk = "[" * (depth - 1) + "]" * (depth - 1)
        p.write_text(json.dumps({"name": "[[{{" * 10, "facets": SQUARE,
                                 "junk": "JUNK"}).replace('"JUNK"', junk))
        assert run(capsys, "info", str(p))[0] == code


def test_coordinates_for_a_label_no_facet_uses_are_input_error(tmp_path,
                                                              capsys):
    # a square plus coordinates for +-3 once printed "6 vertices"
    p = tmp_path / "square.json"
    p.write_text(json.dumps({
        "coordinates": {"1": ["1", "0"], "-1": ["-1", "0"],
                        "2": ["0", "1"], "-2": ["0", "-1"],
                        "3": ["1", "1"], "-3": ["-1", "-1"]},
        "facets": SQUARE,
    }))
    code, out, err = run(capsys, "info", str(p))
    assert (code, out) == (2, "")
    assert err == ("input error: coordinates name labels no facet uses: "
                   "[-3, 3]\n")


def test_cs_ground_set_label_without_antipode_is_named(tmp_path, capsys):
    # the facets are a cs square; the ground set adds 3 but not -3
    p = tmp_path / "lone.json"
    p.write_text(json.dumps({"facets": [[1, 2], [2, -1], [-1, -2], [-2, 1]],
                             "cs": True, "ground_set": [1, -1, 2, -2, 3]}))
    code, out, err = run(capsys, "info", str(p))
    assert (code, out) == (2, "")
    assert err == "input error: ground-set label 3 has no antipode -3\n"


@pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null"])
def test_cs_flag_must_be_a_json_boolean(tmp_path, capsys, value):
    p = tmp_path / "flag.json"
    p.write_text('{"facets": [[1, 2]], "cs": %s}' % value)
    code, out, err = run(capsys, "info", str(p))
    assert code == 2
    assert err == 'input error: "cs" must be true or false\n'


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.skipif(LIMIT == 0, reason="int digit limit switched off")
@pytest.mark.parametrize("exponent", [
    "e30000000", "E-30000000", f"e{LIMIT + 1}", f"e-{LIMIT + 1}",
])
def test_huge_coordinate_exponent_is_refused_quickly(tmp_path, exponent):
    # Fraction builds 10**exp, which for 3e7 takes about a minute
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({
        "coordinates": {"1": ["1" + exponent], "-1": ["-1" + exponent]},
        "facets": [[1], [-1]],
    }))
    proc = run_subprocess("info", str(p), timeout=20)
    assert proc.returncode == 2
    assert "decimal exponent above" in proc.stderr


def test_coordinate_exponent_at_the_limit_is_accepted(tmp_path, capsys):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({
        "coordinates": {"1": [f"1e{LIMIT}"], "-1": [f"-1e{LIMIT}"]},
        "facets": [[1], [-1]],
    }))
    code, out, _ = run(capsys, "info", str(p))
    assert code == 0
    assert out.startswith("d=1, f=(1,2), h=(1,1), cs=yes")


def test_stress_basis_listing(capsys):
    path = str(CORPUS_DIR / "crosspoly_d2.json")
    code, out, _ = run(capsys, "stress", path, "--degree", "0", "--basis")
    assert code == 0
    assert "1" in out.splitlines()[-1]


def test_verify_corpus_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", str(CORPUS_DIR))
    assert code == 0
    assert out.startswith("seed: 1\n")
    assert " fail" in out.splitlines()[-1]


def test_verify_json_lines_are_sorted_and_seeded(capsys):
    code, out, _ = run(
        capsys, "verify", str(CORPUS_DIR), "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    keys = [(r["instance"], r["claim"]) for r in records]
    assert keys == sorted(keys)
    assert all(r["seed"] == 1 for r in records)
    assert all(r["verdict"] != "fail" for r in records)


def test_verify_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", str(CORPUS_DIR), "--format", "json")
    _, second, _ = run(capsys, "verify", str(CORPUS_DIR), "--format", "json")
    assert first == second


def test_verify_claims_filter(capsys):
    path = str(CORPUS_DIR / "crosspoly_d2.json")
    code, out, _ = run(
        capsys, "verify", path, "--claims", "Lem", "--format", "json"
    )
    assert code == 0
    claims = {json.loads(line)["claim"] for line in out.splitlines()}
    assert claims == {"Lem3.1", "Lem3.2-3.4"}


def golden_verify_json(name, claims):
    """The lines of the checked-in `verify --format json` run over the
    corpus that are records of instance `name` and a claim in `claims`."""
    lines = (Path(__file__).resolve().parent / "golden"
             / "verify_json.txt").read_text().splitlines()
    return "".join(line + "\n" for line, r in zip(lines, map(json.loads, lines))
                   if r["instance"] == name and r["claim"] in claims)


def test_verify_dims_only_claims_solve_no_block(tmp_path, capsys,
                                               monkeypatch):
    # these families read only stress dimensions, which the certified
    # route of `stress` without `--basis` gives with no exact solve;
    # Cor3.7.1 takes those of its cross-polytope Gamma from the theorem,
    # also where Gamma is not the whole complex, as in the glued one
    claims = ["CM", "Thm2.2.1", "Cor2.3.1", "Thm3.6.1", "Cor3.7.1"]
    calls = count_nullspace_calls(monkeypatch)
    code, out, _ = run(capsys, "verify", str(CORPUS_DIR / "crosspoly_d4.json"),
                       "--claims", *claims, "--format", "json")
    assert code == 0
    assert out == golden_verify_json("crosspoly_d4", claims)
    glued = tmp_path / "glued4.json"
    glued.write_text(json.dumps({"facets": glued_cross_polytope(4)}))
    code, out, _ = run(capsys, "verify", str(glued),
                       "--claims", *claims, "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["claim"] for r in records] == sorted(claims)
    assert all(r["verdict"] == "pass" for r in records)
    cor37 = next(r["computed"] for r in records if r["claim"] == "Cor3.7.1")
    assert [c["gamma_pairs"] for c in cor37[1:]] == [[1, 2, 3, 4]] * 2
    assert calls == []


def test_verify_claims_that_read_no_table_build_none(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    for name in ("special_lsop", "stress_space", "canonical_forms"):
        monkeypatch.setattr(claims_module, name, no_table)
    claims = ["Thm3.6.2", "Cor3.7.2"]
    code, out, _ = run(capsys, "verify", str(CORPUS_DIR / "bipyramid_m4.json"),
                       "--claims", *claims, "--format", "json")
    assert code == 0
    assert out == golden_verify_json("bipyramid_m4", claims)


def test_verify_claims_skip_the_errors_of_unselected_families(tmp_path,
                                                              capsys):
    # Expect reads a CM certificate, which a non-pure complex has not;
    # CM applies to pure complexes only, so selected alone it runs nothing
    p = tmp_path / "mixed.json"
    p.write_text('{"facets": [[1, 2, 3], [-1, -2, -3], [4], [-4]], '
                 '"expected": {"cm": true}}')
    code, out, _ = run(capsys, "verify", str(p), "--claims", "CM")
    assert code == 0
    assert out.splitlines()[-1].startswith("0 records")
    code, _, err = run(capsys, "verify", str(p), "--claims", "Expect")
    assert code == 2
    assert err == "error: a CM certificate needs a pure complex\n"


def test_verify_claims_that_read_no_table_pass_its_size_limit(tmp_path,
                                                              capsys):
    # the linear table of the 10-cross-polytope is refused for its size;
    # Thm3.6.2 reads the g-vector only
    path = str(tmp_path / "cp10.json")
    assert run(capsys, "generate", "crosspoly", "--d", "10", "--out",
               path)[0] == 0
    code, out, _ = run(capsys, "verify", path, "--claims", "Thm3.6.2")
    assert code == 0
    assert out.splitlines()[1:] == [
        "crosspoly_d10  Thm3.6.2  pass",
        "1 records: 1 pass, 0 fail, 0 hypothesis-unmet"]
    code, _, err = run(capsys, "verify", path)
    assert code == 2
    assert err.startswith("input error: degree 10 has 4780008 ")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_claims_prefix_must_start_a_claim_id(capsys, fmt):
    # a misspelt filter would otherwise select no record and exit 0
    path = str(CORPUS_DIR / "crosspoly_d2.json")
    code, out, err = run(capsys, "verify", path, "--claims", "Lem",
                         "Thm35", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: claim prefix 'Thm35' starts no "
                          "claim id")


def test_verify_reports_failure_with_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "facets": [[1, 2], [-1, -2]],
        "expected": {"h": [1, 0, 0]},
    }))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "fail" in out


@pytest.mark.parametrize("layout", ["same file", "same stem", "same name"])
def test_verify_refuses_two_instances_of_one_name(tmp_path, capsys, layout):
    # their records once came out interleaved, not to be told apart
    first = tmp_path / "a" / "x.json"
    second = {"same file": first, "same stem": tmp_path / "b" / "x.json",
              "same name": tmp_path / "b" / "y.json"}[layout]
    for p in (first, second):
        p.parent.mkdir(exist_ok=True)
        obj = {"facets": SQUARE}
        if layout == "same name":
            obj["name"] = "x"
        p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(first), str(second))
    assert (code, out) == (2, "")
    assert err == (f"input error: instance 'x' is named by both {first} "
                   f"and {second}\n")


def test_verify_non_cm_complex_below_h(tmp_path, capsys):
    p = tmp_path / "triangles.json"
    p.write_text('{"facets": [[1, 2, 3], [-1, -2, -3]]}')
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 0
    assert "CM          pass  [definitively not Cohen-Macaulay]" in out


def test_verify_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "no-such-file.json")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command, in_dir", [
    ("info", False), ("stress", False), ("verify", False), ("verify", True),
])
def test_non_utf8_input_is_input_error(tmp_path, capsys, command, in_dir):
    # exit 1 would read as "a claim failed"; a directory is read by verify
    p = tmp_path / "latin1.json"
    p.write_bytes(b'\xff{"facets": [[1, 2], [-1, -2]]}')
    code, out, err = run(capsys, command, str(tmp_path if in_dir else p))
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot read {p}: not UTF-8")


def test_verify_engine_error_exit_three(tmp_path, capsys, monkeypatch):
    def explode(cx, seed):
        raise LsopNotFound("rank check failed on every attempt", 8)

    monkeypatch.setattr(claims_module, "special_lsop", explode)
    target = tmp_path / "sq.json"
    target.write_text(
        '{"facets": [[1, 2], [-1, 2], [1, -2], [-1, -2]], "cs": true}'
    )
    code, _, err = run(capsys, "verify", str(target))
    assert code == 3
    assert "attempts: 8" in err


def test_generate_round_trip(tmp_path, capsys):
    out_path = tmp_path / "bp.json"
    code, out, _ = run(
        capsys, "generate", "bipyramid", "--m", "4", "--out", str(out_path)
    )
    assert code == 0
    assert str(out_path) in out
    obj = json.loads(out_path.read_text())
    assert obj["name"] == "bipyramid_m4"
    code, out, _ = run(capsys, "info", str(out_path))
    assert code == 0
    assert "h=(1,7,7,1)" in out


def test_generate_matches_checked_in_corpus(tmp_path, capsys):
    for family, flag, value, name in [
        ("crosspoly", "--d", "3", "crosspoly_d3"),
        ("polygon", "--m", "4", "polygon_m4"),
        ("bipyramid", "--m", "5", "bipyramid_m5"),
    ]:
        out_path = tmp_path / f"{name}.json"
        code, _, _ = run(
            capsys, "generate", family, flag, value, "--out", str(out_path)
        )
        assert code == 0
        generated = json.loads(out_path.read_text())
        stored = json.loads((CORPUS_DIR / f"{name}.json").read_text())
        stored.pop("expected")
        assert generated == stored


def test_generate_validates_parameters(capsys):
    code, _, err = run(capsys, "generate", "polygon", "--m", "1")
    assert code == 2
    assert "at least 2" in err
    code, _, err = run(capsys, "generate", "crosspoly")
    assert code == 2


@pytest.mark.parametrize("target", ["missing/cp2.json", "."])
def test_generate_to_an_unwritable_path_is_input_error(tmp_path, capsys,
                                                        target):
    # a directory that does not exist, and a path that is a directory
    out_path = tmp_path / target
    code, out, err = run(capsys, "generate", "crosspoly", "--d", "2",
                         "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot write {out_path}:")


@pytest.mark.parametrize("family, flag, value", [
    ("crosspoly", "--d", "64"),
    ("polygon", "--m", str(10**12)),
    ("bipyramid", "--m", str(10**12)),
])
def test_generate_refuses_oversized_families_before_building(
        tmp_path, capsys, family, flag, value):
    out_path = tmp_path / "big.json"
    start = time.process_time()
    code, _, err = run(capsys, "generate", family, flag, value,
                       "--out", str(out_path))
    assert time.process_time() - start < 0.5
    assert code == 2
    assert "vertex subsets, more than the limit" in err
    assert not out_path.exists()


def test_generate_writes_the_cross_polytope_at_the_subset_limit(
        tmp_path, capsys):
    # 2^10 facets of 10 vertices: 4^10 = MAX_FACE_SUBSETS subsets
    out_path = tmp_path / "cp10.json"
    code, _, _ = run(capsys, "generate", "crosspoly", "--d", "10",
                     "--out", str(out_path))
    assert code == 0
    assert len(json.loads(out_path.read_text())["facets"]) == 2**10
