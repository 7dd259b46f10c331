"""Independent oracles for the benchmark workloads.

Nothing here imports csstress.  Expected values come from closed forms for
the cross-polytope boundary and from this module's own face enumeration of
the input facet lists.  Each check returns a list of problems; an empty
list means the output was accepted.
"""

from __future__ import annotations

import itertools
import json
from math import comb

# Claim ids a verify run must report once per instance, by the kind of
# instance: every instance with an "expected" block gets Expect, every pure
# one gets CM, pure cs ones get the linear claim family, and polytopes
# (instances with coordinates) get the affine claim family.
EXPECT_CLAIMS = ("Expect",)
PURE_CLAIMS = ("CM",)
CS_CLAIMS = (
    "Thm2.2.1", "Cor2.3.1", "Lem3.1", "Lem3.2-3.4", "Thm3.5", "Thm3.6.1",
    "Cor3.7.1",
)
POLYTOPE_CLAIMS = ("Thm2.2.2", "Cor2.3.2", "Thm3.6.2", "Cor3.7.2")
VERDICTS = ("pass", "hypothesis_unmet")


# -- face enumeration ---------------------------------------------------------


def all_faces(facets) -> set[frozenset]:
    """Every face of the complex generated by `facets`, the empty one too."""
    out = set()
    for f in facets:
        f = tuple(f)
        for s in range(len(f) + 1):
            out.update(frozenset(c) for c in itertools.combinations(f, s))
    return out


def f_vector(facets) -> list[int]:
    """f[s] = number of faces with s vertices, s = 0..d."""
    d = max(len(set(f)) for f in facets)
    f = [0] * (d + 1)
    for t in all_faces(facets):
        f[len(t)] += 1
    return f


def h_vector(f) -> list[int]:
    d = len(f) - 1
    return [
        sum((-1) ** (i - k) * comb(d - k, i - k) * f[k] for k in range(i + 1))
        for i in range(d + 1)
    ]


def is_pure(facets) -> bool:
    return len({len(set(f)) for f in facets}) == 1


def is_cs(facets) -> bool:
    """Negation maps every nonempty face to a different face."""
    faces = all_faces(facets)
    for t in faces:
        if not t:
            continue
        minus = frozenset(-v for v in t)
        if minus == t or minus not in faces:
            return False
    return True


# -- closed forms for the cross-polytope boundary -----------------------------


def crosspoly_f(d) -> list[int]:
    return [2**k * comb(d, k) for k in range(d + 1)]


def crosspoly_h(d) -> list[int]:
    return [comb(d, i) for i in range(d + 1)]


def crosspoly_g(d) -> list[int]:
    return [1] + [comb(d, i) - comb(d, i - 1) for i in range(1, d // 2 + 1)]


# -- output checks ----------------------------------------------------------


def _parse_object(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        return None, [f"output is not JSON: {e}"]
    if not isinstance(obj, dict):
        return None, ["output is not a JSON object"]
    return obj, []


def expected_claims(instance: dict) -> set[str]:
    """Claim ids one verify run must report for one instance JSON object."""
    facets = instance["facets"]
    out = set()
    if instance.get("expected"):
        out.update(EXPECT_CLAIMS)
    if is_pure(facets):
        out.update(PURE_CLAIMS)
        if is_cs(facets):
            out.update(CS_CLAIMS)
    if "coordinates" in instance:
        out.update(POLYTOPE_CLAIMS)
    return out


class VerifyOracle:
    """Checks `verify --format json` output over a set of instance objects."""

    def __init__(self, instances: list[dict], seed: int):
        self.seed = seed
        self.claims = {obj["name"]: expected_claims(obj) for obj in instances}
        # the h-vector each CM record must report as its stress dimensions
        self.cm_h = {
            obj["name"]: h_vector(f_vector(obj["facets"]))
            for obj in instances
            if obj.get("expected", {}).get("cm") is True
        }

    def check(self, stdout: str) -> list[str]:
        problems = []
        seen = {}
        for n, line in enumerate(stdout.splitlines(), 1):
            rec, bad = _parse_object(line)
            if bad:
                problems.append(f"line {n}: {bad[0]}")
                continue
            key = (rec.get("instance"), rec.get("claim"))
            if key in seen:
                problems.append(f"record {key} appears more than once")
            seen[key] = rec
            if rec.get("verdict") not in VERDICTS:
                problems.append(
                    f"record {key} has verdict {rec.get('verdict')!r}")
            if rec.get("seed") != self.seed:
                problems.append(
                    f"record {key} reports seed {rec.get('seed')!r}")
        want = {(name, c) for name, cs in self.claims.items() for c in cs}
        for key in sorted(want - seen.keys()):
            problems.append(f"record {key} is missing")
        for key in sorted(seen.keys() - want, key=str):
            problems.append(f"record {key} is not expected")
        for name, h in self.cm_h.items():
            rec = seen.get((name, "CM"))
            if rec is None:
                continue
            dims = (rec.get("computed") or {}).get("dims")
            if dims != h:
                problems.append(f"{name}: CM dims {dims} differ from h = {h}")
        return problems


class CrosspolyStressOracle:
    """Checks `stress --format json` on the d-cross-polytope boundary:
    dim = plus = C(d,i) and minus = 0 in every degree 0..d."""

    def __init__(self, d: int, seed: int):
        self.d = d
        self.seed = seed

    def check(self, stdout: str) -> list[str]:
        obj, problems = _parse_object(stdout)
        if obj is None:
            return problems
        if obj.get("seed") != self.seed:
            problems.append(f"seed {obj.get('seed')!r} is not {self.seed}")
        rows = obj.get("degrees")
        if not isinstance(rows, list):
            return problems + ['no "degrees" list']
        got = [r.get("degree") for r in rows if isinstance(r, dict)]
        if got != list(range(self.d + 1)):
            problems.append(f"degrees {got} are not 0..{self.d}")
        for r in rows:
            if not isinstance(r, dict) or r.get("degree") not in got:
                continue
            i = r["degree"]
            want = {"dim": comb(self.d, i), "plus": comb(self.d, i),
                    "minus": 0}
            for key, value in want.items():
                if r.get(key) != value:
                    problems.append(
                        f"degree {i}: {key} = {r.get(key)!r}, want {value}"
                    )
        return problems


class CrosspolyInfoOracle:
    """Checks `info --format json` on the d-cross-polytope boundary."""

    def __init__(self, d: int):
        self.want = {
            "cs": True,
            "d": d,
            "dim": d - 1,
            "f": crosspoly_f(d),
            "h": crosspoly_h(d),
            "g": crosspoly_g(d),
        }

    def check(self, stdout: str) -> list[str]:
        obj, problems = _parse_object(stdout)
        if obj is None:
            return problems
        for key, value in self.want.items():
            if obj.get(key) != value:
                problems.append(f"{key} = {obj.get(key)!r}, want {value}")
        return problems
