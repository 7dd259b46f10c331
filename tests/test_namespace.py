"""The package namespace: `import csstress` loads no submodule, and each
public name resolves, on first use, to the object its submodule defines.

Each check runs in a fresh interpreter, because this test session has
long since imported every submodule."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from conftest import CORPUS_DIR

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


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
    assert out.split() == ["75"]


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


def test_readme_library_example_runs():
    # the fenced block under "## Library" names only public entry points;
    # each bare expression in it prints its repr, which must be the
    # result its comment gives
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    tree = ast.parse(block)
    comments = []
    for n, node in enumerate(tree.body):
        if isinstance(node, ast.Expr):
            line = lines[node.end_lineno - 1]
            comments.append(line.rsplit("#", 1)[1].strip())
            tree.body[n] = ast.Expr(ast.Call(
                ast.Name("print", ast.Load()),
                [ast.Call(ast.Name("repr", ast.Load()), [node.value], [])],
                []))
    out = fresh("-c", ast.unparse(ast.fix_missing_locations(tree)))
    assert comments == ["(3, 3, 0)", "'pass'"]
    assert out.splitlines() == comments
