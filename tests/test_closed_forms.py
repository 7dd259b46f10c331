"""`verify`, `stress` and `info` on the d-cross-polytopes against the
closed forms of `closed_forms.py`, the checker that CI runs on `verify`
at d = 6, 7 and 8, on `stress` at d = 7, 8 and 9 and on `info` at
d = 10."""

from __future__ import annotations

import json
import time

import pytest

import closed_forms
from csstress.cli import main


def json_output(tmp_path, capsys, d, command="verify"):
    """(exit status, path of the output) of `command --format json` on
    the d-cross-polytope."""
    path = tmp_path / f"cp{d}.json"
    assert main(["generate", "crosspoly", "--d", str(d),
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code = main([command, str(path), "--format", "json"])
    out = tmp_path / f"cp{d}_{command}.json"
    out.write_text(capsys.readouterr().out)
    return code, out


def test_verify_meets_the_closed_forms_for_d_2_to_5(tmp_path, capsys):
    start = time.process_time()
    for d in range(2, 6):
        code, path = json_output(tmp_path, capsys, d)
        assert closed_forms.main([str(d), str(code), str(path)]) == 0, \
            capsys.readouterr().err
    assert time.process_time() - start < 2


def _bump_h(records):
    records["Thm2.2.1"]["computed"]["h"][0] += 1


def _bump_minus(records):
    records["Thm2.2.1"]["computed"]["minus_dims"][-1] = 1


def _bump_transported(records):
    records["Thm3.5"]["computed"][0]["transported"] += 1


def _bump_lemma31(records):
    records["Lem3.1"]["computed"]["checked"] -= 1


def _bump_skipped(records):
    records["Lem3.2-3.4"]["computed"][1]["skipped"] = 1


def _bump_restricted(records):
    records["Cor3.7.1"]["computed"][0]["dims"]["2"]["restricted"] += 1


def _fail_one(records):
    records["CM"]["verdict"] = "fail"


@pytest.mark.parametrize("change", [
    _bump_h, _bump_minus, _bump_transported, _bump_lemma31, _bump_skipped,
    _bump_restricted, _fail_one,
])
def test_closed_forms_reject_one_changed_number(tmp_path, capsys, change):
    code, path = json_output(tmp_path, capsys, 3)
    records = {}
    for line in path.read_text().splitlines():
        r = json.loads(line)
        records[r["claim"]] = r
    change(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records.values()))
    assert closed_forms.main(["3", str(code), str(path)]) == 1
    assert capsys.readouterr().err.startswith("d = 3: ")


def test_closed_forms_reject_a_nonzero_status(tmp_path, capsys):
    code, path = json_output(tmp_path, capsys, 3)
    assert closed_forms.main(["3", "1", str(path)]) == 1
    assert closed_forms.main(["3", str(code), str(path)]) == 0


def _bump_minus_dim(obj):
    obj["degrees"][1]["minus"] = 1


def _bump_g(obj):
    obj["g"][-1] += 1


def _cs_as_one(obj):
    obj["cs"] = 1


@pytest.mark.parametrize("command, change", [
    ("stress", _bump_minus_dim), ("info", _bump_g), ("info", _cs_as_one),
])
def test_stress_and_info_modes_reject_one_changed_value(tmp_path, capsys,
                                                        command, change):
    code, path = json_output(tmp_path, capsys, 4, command)
    assert code == 0
    assert closed_forms.main([command, "4", str(path)]) == 0
    assert closed_forms.main([command, "3", str(path)]) == 1
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert closed_forms.main([command, "4", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"d = 4: {command}: ")
