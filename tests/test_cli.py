from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csstress.claims as claims_module
import csstress.cli as cli_module
from csstress import LsopNotFound
from csstress.cli import main
from conftest import CORPUS_DIR


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


def run_subprocess(*argv, timeout):
    """The CLI in a child process, so that a regression to a slow path
    fails by timeout instead of hanging the suite."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "csstress.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize("mode", [[], ["--affine"]])
def test_stress_degree_60_is_answered_without_enumeration(mode):
    proc = run_subprocess(
        "stress", str(CORPUS_DIR / "crosspoly_d3.json"), "--degree", "60",
        *mode, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["60", "0", "0", "0"]


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
