"""`verify` on the d-cross-polytopes against the closed forms of
`closed_forms.py`, the checker that CI runs at d = 6, 7 and 8."""

from __future__ import annotations

import json
import time

import pytest

import closed_forms
from csstress.cli import main


def verify_records(tmp_path, capsys, d):
    """(exit status, path of the JSON lines) of `verify` on the
    d-cross-polytope."""
    path = tmp_path / f"cp{d}.json"
    assert main(["generate", "crosspoly", "--d", str(d),
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code = main(["verify", str(path), "--format", "json"])
    out = tmp_path / f"cp{d}_verify.json"
    out.write_text(capsys.readouterr().out)
    return code, out


def test_verify_meets_the_closed_forms_for_d_2_to_5(tmp_path, capsys):
    start = time.process_time()
    for d in range(2, 6):
        code, path = verify_records(tmp_path, capsys, d)
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


def _fail_one(records):
    records["CM"]["verdict"] = "fail"


@pytest.mark.parametrize("change", [
    _bump_h, _bump_minus, _bump_transported, _bump_lemma31, _bump_skipped,
    _fail_one,
])
def test_closed_forms_reject_one_changed_number(tmp_path, capsys, change):
    code, path = verify_records(tmp_path, capsys, 3)
    records = {}
    for line in path.read_text().splitlines():
        r = json.loads(line)
        records[r["claim"]] = r
    change(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records.values()))
    assert closed_forms.main(["3", str(code), str(path)]) == 1
    assert capsys.readouterr().err.startswith("d = 3: ")


def test_closed_forms_reject_a_nonzero_status(tmp_path, capsys):
    code, path = verify_records(tmp_path, capsys, 3)
    assert closed_forms.main(["3", "1", str(path)]) == 1
    assert closed_forms.main(["3", str(code), str(path)]) == 0
