"""Command-line interface: inspect instances, compute stress tables, run
the verification suite, and generate the built-in instance families.

Exit codes: 0 success, 1 at least one claim failed, 2 input error,
3 engine error (no l.s.o.p. found within the retry budget), 141 stdout
closed before all output was written, as by `| head -1`: the rest is
dropped and nothing goes to stderr (128 + SIGPIPE, the status a shell
reports for a writer that signal ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .claims import (
    CorpusInstance,
    affine_table,
    instance_from_json,
    linear_dims,
    linear_table,
    run_claims,
)
from .complexes import MAX_REQUEST_MONOMIALS
from .engine import lsop_check, stress_space, vanishing_stress_space
from .errors import CsStressError, InputError, LsopNotFound
from .polynomials import monomial_count
from .polytopes import bipyramid, cross_polytope, polygon, polytope_to_json_obj

DEFAULT_SEED = 1
EXIT_CLOSED_PIPE = 141


def _read_text(path: str) -> str:
    # JSON is UTF-8, whatever the locale says
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8: {e.reason} "
                         f"at byte {e.start}") from e


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
    if any(x is not None and x < 0 for x in (degree, max_degree)):
        raise InputError("degrees are nonnegative")
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
        # without bases only dimensions are read: no table is held
        seq, table = (linear_table if show_basis else linear_dims)(cx, seed)
        default_top = cx.dim + 1
    top = max_degree if max_degree is not None else default_top
    degrees = [degree] if degree is not None else range(top + 1)
    d = cx.dim + 1
    # Above degree d an l.s.o.p. leaves no stresses.  Sampled linear forms
    # passed lsop_check already; canonical forms are checked here.
    vanish_above_d = any(i > d for i in degrees) and (
        not affine or lsop_check(cx, seq.forms[:d])
    )
    built = {
        i for i in degrees
        if i >= len(table) and not (i > d and vanish_above_d)
    }
    count = sum(monomial_count(cx, i) for i in built)
    if count > MAX_REQUEST_MONOMIALS:
        raise InputError(
            f"the requested degrees beyond the table have {count} "
            f"face-supported monomials, more than the limit of "
            f"{MAX_REQUEST_MONOMIALS}"
        )

    def space(i):
        # each degree is built as it is printed and dropped after, so a
        # long run of degrees answered by theorem holds no memory
        if i < len(table):
            return table[i]
        if i in built:
            return stress_space(cx, seq, i)
        return vanishing_stress_space(cx, seq, i)

    if output_format == "json":
        # json.dumps of the whole object with sorted keys, written one
        # degree at a time: "attempts" < "degrees" < "kind" < ...
        head = json.dumps({"attempts": seq.attempts})[:-1]
        tail = json.dumps({"kind": seq.kind,
                           "mode": "affine" if affine else "linear",
                           "seed": seed}, sort_keys=True)[1:]
        print(f'{head}, "degrees": [', end="")
        sep = ""
        for i in degrees:
            s = space(i)
            row = {"degree": i, "dim": s.dim, "plus": s.plus_dim,
                   "minus": s.minus_dim}
            if show_basis:
                row["basis"] = [w.text() for w in s.basis]
            print(sep + json.dumps(row, sort_keys=True), end="")
            sep = ", "
        print(f"], {tail}")
        return 0
    print(f"seed: {seed}")
    attempts = "" if seq.attempts is None else f" (attempts: {seq.attempts})"
    print(f"forms: {seq.kind}{attempts}")
    print("degree  dim  plus  minus")
    for i in degrees:
        s = space(i)
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
    instances = []
    paths = {}  # instance name -> the file that named it
    for p in _collect_paths(inputs):
        inst = _load_instance(str(p))
        if inst.name in paths:
            # the records of the two could not be told apart
            raise InputError(f"instance {inst.name!r} is named by both "
                             f"{paths[inst.name]} and {p}")
        paths[inst.name] = p
        instances.append(inst)
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
    flag, least, build = {"crosspoly": ("d", 1, cross_polytope),
                          "polygon": ("m", 2, polygon),
                          "bipyramid": ("m", 2, bipyramid)}[family]
    n = d if flag == "d" else m
    if n is None or n < least:
        raise InputError(f"{family} needs --{flag} at least {least}")
    p = build(n)
    name = f"{family}_{flag}{n}"
    obj = {"name": name}
    obj.update(polytope_to_json_obj(p))
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    target = Path(out) if out else Path(f"{name}.json")
    try:
        target.write_text(text)
    except OSError as e:
        raise InputError(f"cannot write {target}: {e.strerror}") from e
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
    degrees = p_stress.add_mutually_exclusive_group()
    degrees.add_argument("--degree", type=int, default=None,
                         help="single degree instead of the full table")
    degrees.add_argument("--max-degree", type=int, default=None)
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
            code = cmd_info(args.input, args.format)
        elif args.command == "stress":
            code = cmd_stress(args.input, args.seed, args.affine,
                              args.degree, args.max_degree, args.basis,
                              args.format)
        elif args.command == "verify":
            code = cmd_verify(args.inputs, args.seed, args.claims,
                              args.format)
        elif args.command == "generate":
            code = cmd_generate(args.family, args.d, args.m, args.out)
        else:
            raise InputError(f"unknown command {args.command!r}")
        # a closed pipe shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at /dev/null, so that the flush at exit, which
        # still holds the unwritten output, cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
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
