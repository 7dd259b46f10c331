"""Hypothesis fuzz of instance JSON through the command line.

Every input, however malformed, must end in one of the documented exit
codes (0 ok, 1 claim failed, 2 input error, 3 engine error) without an
uncaught exception.  Inputs are drawn four ways: from scratch with
type-confused values, as small cs complexes, as small corpus instances
with a few values replaced or removed, and as raw bytes that need not be
UTF-8.  Examples stay small so that a `verify` run on a well-formed draw
is cheap.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR
from csstress.cli import main
from strategies import LABELS, near_cs_facets

# one branch of any union it joins: a nested st.one_of would be flattened
# into its parent and crowd out the well-formed branches
CONFUSED = st.sampled_from([
    True, False, None, 0, 10**30, -(10**30), 1.5, -0.0, float("nan"),
    float("inf"), "", "1", "a", [], [1], [[1]], [True], {}, {"1": 1},
])
VALUE = st.one_of(LABELS, CONFUSED)
FACETS = st.one_of(
    near_cs_facets(),
    st.lists(st.one_of(st.lists(VALUE, max_size=3), CONFUSED), max_size=4),
    CONFUSED,
)
COMPLEX = st.fixed_dictionaries(
    {"facets": FACETS},
    optional={
        "cs": st.one_of(st.booleans(), CONFUSED),
        "ground_set": st.one_of(st.lists(VALUE, max_size=6), CONFUSED),
        "name": st.text(max_size=3),
        "expected": st.one_of(
            st.dictionaries(
                st.sampled_from(["cs", "dim", "f", "h", "g", "cm", "x"]),
                st.one_of(st.lists(st.integers(-2, 4), max_size=4),
                          CONFUSED),
                max_size=3,
            ),
            CONFUSED,
        ),
    },
)

SMALL_CORPUS = [
    json.loads((CORPUS_DIR / f"{name}.json").read_text())
    for name in ("crosspoly_d2", "crosspoly_d3", "polygon_m3",
                 "noncm_edges", "simplex2")
]
REMOVE = object()


def _slots(obj):
    """Every (container, key) pair inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated_corpus(draw):
    obj = copy.deepcopy(draw(st.sampled_from(SMALL_CORPUS)))
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(obj))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        value = draw(st.one_of(VALUE, st.just(REMOVE)))
        if value is not REMOVE:
            container[key] = copy.deepcopy(value)  # CONFUSED is shared
        elif isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
    return obj


@st.composite
def raw_bytes(draw):
    """Arbitrary bytes, or a small corpus file with one to three bytes
    overwritten by bytes above 0x7f, which are seldom valid UTF-8."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(json.dumps(draw(st.sampled_from(SMALL_CORPUS))).encode())
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(
            st.integers(0x80, 0xFF))
    return bytes(data)


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(
    obj=st.one_of(COMPLEX, mutated_corpus(), mutated_corpus(), CONFUSED,
                  raw_bytes()),
    args=st.sampled_from([
        ["info"],
        ["info", "--format", "json"],
        ["stress"],
        ["stress", "--affine"],
        ["stress", "--degree", "5", "--format", "json"],
        ["verify"],
    ]),
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_cleanly_on_any_instance_json(work_dir, obj, args):
    path = work_dir / "instance.json"
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        path.write_text(json.dumps(obj))
    argv = args[:1] + [str(path)] + args[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, obj, code)
    if isinstance(obj, bytes) and not _is_utf8(obj):
        assert code == 2, (argv, obj, code)
    if code >= 2:
        assert err.getvalue().split(":")[0] in (
            "input error", "error", "engine error"
        ), err.getvalue()
