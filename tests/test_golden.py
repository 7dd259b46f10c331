"""Byte-identity of command-line stdout against checked-in golden files.

Each golden file concatenates one command's stdout over every corpus
file, each run headed by a `## <name>` line.  After a change that is
meant to alter this output, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from csstress.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def _is_polytope(path: Path) -> bool:
    return "coordinates" in json.loads(path.read_text())


def _per_file(args, only=lambda path: True) -> str:
    return "".join(
        f"## {p.stem}\n" + _stdout([args[0], str(p), *args[1:]])
        for p in sorted(CORPUS_DIR.glob("*.json"))
        if only(p)
    )


# golden file -> how its text is produced
RENDERS = {
    "info.txt": lambda: _per_file(["info"]),
    "stress_linear_json.txt": lambda: _per_file(
        ["stress", "--format", "json"]),
    "stress_affine_table.txt": lambda: _per_file(
        ["stress", "--affine"], only=_is_polytope),
    "stress_basis_json.txt": lambda: _per_file(
        ["stress", "--basis", "--format", "json"]),
    "stress_affine_basis_table.txt": lambda: _per_file(
        ["stress", "--affine", "--basis"], only=_is_polytope),
    "verify_table.txt": lambda: _stdout(["verify", str(CORPUS_DIR)]),
    "verify_json.txt": lambda: _stdout(
        ["verify", str(CORPUS_DIR), "--format", "json", "--seed", "1"]),
}


@pytest.mark.parametrize("name", sorted(RENDERS))
def test_stdout_matches_golden(name):
    want = (GOLDEN_DIR / name).read_text()
    # corpus paths appear in no output, so the text is checkout-independent
    assert RENDERS[name]() == want


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, render in RENDERS.items():
        (GOLDEN_DIR / name).write_text(render())
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
