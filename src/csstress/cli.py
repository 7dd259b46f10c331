"""Command-line interface: inspect instances, compute stress tables, run
the verification suite, and generate the built-in instance families.

Exit codes: 0 success, 1 at least one claim failed, 2 input error,
3 engine error (no l.s.o.p. found within the retry budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .claims import (
    CorpusInstance,
    affine_table,
    instance_from_json,
    linear_table,
    run_claims,
)
from .engine import lsop_check, stress_space, vanishing_stress_space
from .errors import CsStressError, InputError, LsopNotFound
from .polytopes import bipyramid, cross_polytope, polygon, polytope_to_json_obj

DEFAULT_SEED = 1


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from e


def _load_instance(path: str) -> CorpusInstance:
    return instance_from_json(_read_text(path), fallback_name=Path(path).stem)


def _fmt_vector(vec) -> str:
    return "(" + ",".join(str(x) for x in vec) + ")"


def cmd_info(path: str, output_format: str) -> int:
    inst = _load_instance(path)
    cx = inst.complex
    if output_format == "json":
        obj = {"cs": cx.cs, "dim": cx.dim, "polytope": inst.polytope is not None}
        if cx.is_pure():
            vec = cx.fhg_vectors()
            obj.update(
                {"d": vec.d, "f": list(vec.f), "h": list(vec.h),
                 "g": list(vec.g)}
            )
        else:
            obj["pure"] = False
        print(json.dumps(obj, sort_keys=True))
        return 0
    cs_text = "yes" if cx.cs else "no"
    if cx.is_pure():
        vec = cx.fhg_vectors()
        print(
            f"d={vec.d}, f={_fmt_vector(vec.f)}, h={_fmt_vector(vec.h)}, "
            f"cs={cs_text}"
        )
        print(f"g={_fmt_vector(vec.g)}")
    else:
        print(f"dim={cx.dim}, not pure, cs={cs_text}")
    if inst.polytope is not None:
        p = inst.polytope
        print(f"polytope: d={p.d}, {len(p.coordinates)} vertices")
    return 0


def cmd_stress(path: str, seed: int, affine: bool, degree, max_degree,
               show_basis: bool, output_format: str) -> int:
    inst = _load_instance(path)
    if affine:
        if inst.polytope is None:
            raise InputError(
                "affine mode needs a polytope input with coordinates"
            )
        seq, table = affine_table(inst.polytope)
        cx = inst.polytope.boundary
        default_top = inst.polytope.d // 2 + 1
    else:
        cx = inst.complex
        seq, table = linear_table(cx, seed)
        default_top = cx.dim + 1
    top = max_degree if max_degree is not None else default_top
    degrees = [degree] if degree is not None else list(range(top + 1))
    if any(i < 0 for i in degrees):
        raise InputError("degrees are nonnegative")
    d = cx.dim + 1
    # Above degree d an l.s.o.p. leaves no stresses.  Sampled linear forms
    # passed lsop_check already; canonical forms are checked here.
    vanish_above_d = any(i > d for i in degrees) and (
        not affine or lsop_check(cx, seq.forms[:d])
    )
    spaces = {}
    for i in degrees:
        if i < len(table):
            spaces[i] = table[i]
        elif i > d and vanish_above_d:
            spaces[i] = vanishing_stress_space(cx, seq, i)
        else:
            spaces[i] = stress_space(cx, seq, i)
    if output_format == "json":
        obj = {
            "seed": seed,
            "mode": "affine" if affine else "linear",
            "kind": seq.kind,
            "attempts": seq.attempts,
            "degrees": [
                {
                    "degree": i,
                    "dim": spaces[i].dim,
                    "plus": spaces[i].plus_dim,
                    "minus": spaces[i].minus_dim,
                }
                for i in degrees
            ],
        }
        if show_basis:
            for row in obj["degrees"]:
                row["basis"] = [w.text() for w in spaces[row["degree"]].basis]
        print(json.dumps(obj, sort_keys=True))
        return 0
    print(f"seed: {seed}")
    attempts = "" if seq.attempts is None else f" (attempts: {seq.attempts})"
    print(f"forms: {seq.kind}{attempts}")
    print("degree  dim  plus  minus")
    for i in degrees:
        s = spaces[i]
        plus = "-" if s.plus_dim is None else s.plus_dim
        minus = "-" if s.minus_dim is None else s.minus_dim
        print(f"{i:>6}  {s.dim:>3}  {plus:>4}  {minus:>5}")
        if show_basis:
            for w in s.basis:
                print(f"        {w.text()}")
    return 0


def _collect_paths(inputs) -> list[Path]:
    paths = []
    for raw in inputs:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            paths.append(p)
    if not paths:
        raise InputError("no instance files found")
    return paths


def cmd_verify(inputs, seed: int, claims_filter, output_format: str) -> int:
    instances = [_load_instance(str(p)) for p in _collect_paths(inputs)]
    reports = run_claims(instances, seed, claims=claims_filter)
    failed = sum(1 for r in reports if r.verdict == "fail")
    if output_format == "json":
        for r in reports:
            obj = r.to_json_obj()
            obj["seed"] = seed
            print(json.dumps(obj, sort_keys=True))
    else:
        print(f"seed: {seed}")
        width = max([len(r.instance) for r in reports] + [8])
        cwidth = max([len(r.claim_id) for r in reports] + [5])
        for r in reports:
            note = f"  [{r.note}]" if r.note else ""
            print(
                f"{r.instance:<{width}}  {r.claim_id:<{cwidth}}  "
                f"{r.verdict}{note}"
            )
        passed = sum(1 for r in reports if r.verdict == "pass")
        unmet = sum(1 for r in reports if r.verdict == "hypothesis_unmet")
        print(
            f"{len(reports)} records: {passed} pass, {failed} fail, "
            f"{unmet} hypothesis-unmet"
        )
    return 1 if failed else 0


def cmd_generate(family: str, d, m, out) -> int:
    if family == "crosspoly":
        if d is None or d < 1:
            raise InputError("crosspoly needs --d at least 1")
        p = cross_polytope(d)
        name = f"crosspoly_d{d}"
    elif family == "polygon":
        if m is None or m < 2:
            raise InputError("polygon needs --m at least 2")
        p = polygon(m)
        name = f"polygon_m{m}"
    elif family == "bipyramid":
        if m is None or m < 2:
            raise InputError("bipyramid needs --m at least 2")
        p = bipyramid(m)
        name = f"bipyramid_m{m}"
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown family {family!r}")
    obj = {"name": name}
    obj.update(polytope_to_json_obj(p))
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    target = Path(out) if out else Path(f"{name}.json")
    target.write_text(text)
    print(f"wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csstress",
        description="Exact stress spaces and face-number certificates "
                    "for centrally symmetric simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print f/h/g vectors and cs status")
    p_info.add_argument("input")
    p_info.add_argument("--format", choices=("table", "json"),
                        default="table")

    p_stress = sub.add_parser("stress", help="per-degree stress dimensions")
    p_stress.add_argument("input")
    p_stress.add_argument("--affine", action="store_true",
                          help="use the polytope's canonical forms")
    p_stress.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_stress.add_argument("--degree", type=int, default=None,
                          help="single degree instead of the full table")
    p_stress.add_argument("--max-degree", type=int, default=None)
    p_stress.add_argument("--basis", action="store_true",
                          help="also print basis stresses")
    p_stress.add_argument("--format", choices=("table", "json"),
                          default="table")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("inputs", nargs="+",
                          help="instance files or directories")
    p_verify.add_argument("--claims", nargs="+", default=None,
                          help="only claims whose id starts with a prefix")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", choices=("table", "json"),
                          default="table")

    p_gen = sub.add_parser("generate", help="write a built-in family instance")
    p_gen.add_argument("family", choices=("crosspoly", "bipyramid", "polygon"))
    p_gen.add_argument("--d", type=int, default=None,
                       help="dimension (crosspoly)")
    p_gen.add_argument("--m", type=int, default=None,
                       help="half the polygon size (polygon, bipyramid)")
    p_gen.add_argument("--out", default=None, help="output path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "info":
            return cmd_info(args.input, args.format)
        if args.command == "stress":
            return cmd_stress(args.input, args.seed, args.affine,
                              args.degree, args.max_degree, args.basis,
                              args.format)
        if args.command == "verify":
            return cmd_verify(args.inputs, args.seed, args.claims,
                              args.format)
        if args.command == "generate":
            return cmd_generate(args.family, args.d, args.m, args.out)
        raise InputError(f"unknown command {args.command!r}")
    except LsopNotFound as e:
        print(f"engine error: {e} (attempts: {e.attempts})",
              file=sys.stderr)
        return 3
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except CsStressError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
