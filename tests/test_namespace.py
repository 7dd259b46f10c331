"""The package namespace: `import csstress` loads no submodule, and each
public name resolves, on first use, to the object its submodule defines.

Each check runs in a fresh interpreter, because this test session has
long since imported every submodule."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from conftest import CORPUS_DIR

SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(*args) -> str:
    """stdout of a new interpreter run with `args`; it must exit 0 and
    write nothing to stderr."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_import_loads_no_submodule():
    out = fresh("-c", "import sys, csstress; print(sorted(sys.modules))")
    assert [m for m in eval(out) if m.startswith("csstress.")] == []


def test_public_names_are_the_submodules_objects():
    # importing the CLI loads every submodule but resolves no name of the
    # package; every submodule that binds a public name must bind it to
    # the object the package hands out
    out = fresh("-c", """if True:
        import sys
        import csstress.cli
        import csstress
        modules = [m for k, m in sys.modules.items()
                   if k.startswith("csstress.")]
        for name in csstress.__all__:
            value = getattr(csstress, name)
            held = [vars(m)[name] for m in modules if name in vars(m)]
            if not held or any(v is not value for v in held):
                print(name)
        print(len(csstress.__all__))
    """)
    assert out.split() == ["94"]


def test_star_import_binds_all_public_names():
    out = fresh("-c", """if True:
        import csstress
        ns = {}
        exec("from csstress import *", ns)
        print(set(ns) - {"__builtins__"} == set(csstress.__all__))
    """)
    assert out == "True\n"


def test_submodule_and_unknown_attributes():
    out = fresh("-c", """if True:
        import sys, csstress
        print(csstress.claims is sys.modules["csstress.claims"])
        try:
            csstress.no_such_name
        except AttributeError as e:
            print(e)
    """)
    assert out.splitlines() == [
        "True", "module 'csstress' has no attribute 'no_such_name'",
    ]


def test_cli_module_run_writes_nothing_to_stderr():
    # runpy warns on stderr when running the package's import already
    # loaded csstress.cli; `fresh` requires stderr to stay empty
    out = fresh("-m", "csstress.cli", "info",
                str(CORPUS_DIR / "crosspoly_d2.json"))
    assert out.startswith("d=2, f=(1,4,4)")


def test_cli_import_loads_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: about 10 ms of
    # CPU on every command-line run
    out = fresh("-S", "-c", """if True:
        import sys
        import csstress.cli
        print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
    """)
    assert out == "[]\n"
