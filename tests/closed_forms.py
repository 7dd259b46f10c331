"""Closed-form oracle for `csstress` JSON output on the boundary of the
d-cross-polytope.

    python tests/closed_forms.py D STATUS RECORDS
    python tests/closed_forms.py stress D FILE
    python tests/closed_forms.py info D FILE

D is the dimension.  The first form checks `verify --format json`:
STATUS is its exit status and RECORDS the file of its JSON lines.  The
other two check the JSON object that `stress --format json` or
`info --format json` wrote to FILE.  Exits 0 when every check holds;
otherwise prints each failed check to stderr and exits 1.  Nothing here
imports csstress, so the numbers are checked against formulas alone:

- `stress`: degrees 0..d with dim = plus = C(d, i) and minus 0, as the
  boundary has h_i = C(d, i) and no antisymmetric part;
- `info`: d, cs true, f_k = 2^k C(d, k) for k = 0..d (f_(-1) first),
  h_i = C(d, i), and g_i = C(d, i) - C(d, i - 1) for i <= d/2;

- `verify` exited 0, wrote records, and no record has verdict "fail";
- Thm2.2.1: h_i = C(d, i) for i = 1..d and no antisymmetric stress, as
  the boundary has h_i = C(d, i) and every minus dimension 0;
- Thm3.5: Stress_j is spanned by the pair-sum products y_tau, |tau| = j,
  of disjoint supports: the reduced basis, whose members have 4 C(j, 2)
  edges each, so an all-symmetric degree i transports
  sum_(j > i) 4 C(j, 2) C(d, j) pairs;
- Lem3.1: Gamma_k = lk(k) ∩ lk(-k) is the boundary of the
  (d-1)-cross-polytope, on which the restricted antisymmetric forms span
  every antisymmetric form, so its symmetric stresses of degree 1 and up
  number 2^(d-1) - 1; Lem3.1 counts them once for each of the 2d
  vertices: d (2^d - 2);
- Lem3.2-3.4: every stress of the boundary is symmetric with symmetric
  vertex derivatives, so W_i = Stress_i, and the lemmas check all
  C(d, i) members of each degree's basis and skip none;
- Cor3.7.1: h_i = C(d, i) at every degree i = 1..d-1, and Gamma is the
  boundary itself, on pairs 1..d, so each degree has
  full = restricted = C(d, j) for j = i..d.
"""

from __future__ import annotations

import json
import sys
from math import comb


def failures(d: int, records: list) -> list[str]:
    """The checks that the `verify` records of the d-cross-polytope
    fail, each as one line; [] when all hold."""
    out = []
    if not records:
        out.append("no records")
    out += [f"{r['claim']}: verdict fail" for r in records
            if r["verdict"] == "fail"]

    def computed(claim):
        return [r["computed"] for r in records if r["claim"] == claim]

    thm = computed("Thm2.2.1")
    if not (len(thm) == 1
            and thm[0]["h"] == [comb(d, i) for i in range(1, d + 1)]
            and thm[0]["minus_dims"] == [0] * d):
        out.append(f"Thm2.2.1: {thm} is not h = C(d, i), minus 0")
    rows = [c for cs in computed("Thm3.5") for c in cs]
    off = [(c["degree"], c["transported"]) for c in rows
           if c["transported"] != sum(4 * comb(j, 2) * comb(d, j)
                                      for j in range(c["degree"] + 1, d + 1))]
    if not rows or off:
        out.append(f"Thm3.5: (degree, transported) {off or 'absent'} "
                   "off the closed form")
    lem = computed("Lem3.1")
    if lem != [{"checked": d * (2 ** d - 2)}]:
        out.append(f"Lem3.1: {lem} is not checked = {d * (2 ** d - 2)}")
    rows = [c for cs in computed("Lem3.2-3.4") for c in cs]
    if ([(c["degree"], c["checked"], c["skipped"]) for c in rows]
            != [(i, comb(d, i), 0) for i in range(1, d + 1)]):
        out.append(f"Lem3.2-3.4: {rows} is not checked = C(d, i), "
                   "skipped 0")
    rows = [c for cs in computed("Cor3.7.1") for c in cs]
    if rows != [{"degree": i, "gamma_pairs": list(range(1, d + 1)),
                 "dims": {str(j): {"full": comb(d, j),
                                   "restricted": comb(d, j)}
                          for j in range(i, d + 1)}}
                for i in range(1, d)]:
        out.append(f"Cor3.7.1: {rows} is not full = restricted = C(d, j), "
                   "gamma_pairs 1..d")
    return out


def stress_failures(d: int, obj: dict) -> list[str]:
    """The checks that `stress --format json` on the d-cross-polytope
    fails."""
    rows = [(r["degree"], r["dim"], r["plus"], r["minus"])
            for r in obj["degrees"]]
    want = [(i, comb(d, i), comb(d, i), 0) for i in range(d + 1)]
    if rows == want:
        return []
    return [f"stress: (degree, dim, plus, minus) {rows} is not "
            "(i, C(d, i), C(d, i), 0)"]


def info_failures(d: int, obj: dict) -> list[str]:
    """The checks that `info --format json` on the d-cross-polytope
    fails."""
    want = {
        "d": d,
        "f": [2 ** k * comb(d, k) for k in range(d + 1)],
        "h": [comb(d, i) for i in range(d + 1)],
        "g": [1] + [comb(d, i) - comb(d, i - 1)
                    for i in range(1, d // 2 + 1)],
    }
    out = [] if obj["cs"] is True else [f"info: cs = {obj['cs']!r}, not true"]
    return out + [f"info: {key} = {obj[key]!r}, not {value!r}"
                  for key, value in want.items() if obj[key] != value]


def main(argv) -> int:
    if argv[0] in ("stress", "info"):
        mode, d, path = argv
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        check = stress_failures if mode == "stress" else info_failures
        try:
            found = check(int(d), obj)
        except (KeyError, TypeError) as e:
            found = [f"malformed {mode} output: {e!r}"]
    else:
        d, status, path = argv
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        try:
            found = failures(int(d), records)
        except (KeyError, TypeError) as e:
            found = [f"malformed record: {e!r}"]
        if status != "0":
            found.insert(0, f"verify exited {status}")
    for line in found:
        print(f"d = {d}: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
