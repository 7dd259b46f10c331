"""Outside-in layer tracing for csstress.

Run as a script, this module is a drop-in for the `csstress` console
command that records a span around every call of the public functions
listed in TARGETS:

    PYTHONPATH=src python3 perfbench/tracing.py OUT.json 0 -- verify corpus

`cli`, `claims` and `engine` import these functions by name, so a wrapper
is installed at every module attribute that refers to the original, not
only in the defining module.  Spans (name, start, end, parent, pass id and
a few counts) stay in memory and are written to OUT.json when the
command returns; stdout is left to the command alone.  Span times come
from the process CPU clock, which leaves out time the hypervisor gives
to other guests.

Imported, it turns span files into per-layer metrics (`layer_metrics`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _nullspace_counts(args, kwargs, result, _pre):
    matrix = args[0] if args else kwargs["matrix"]
    bits = 0
    for vec in result.vectors:
        for x in vec:
            if x:
                bits = max(bits, x.numerator.bit_length(),
                           x.denominator.bit_length())
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "nnz": len(matrix.entries),
        "kernel_dim": result.dim,
        "max_bits": bits,
    }


def _lsop_counts(args, kwargs, result, _pre):
    return {"attempts": result.attempts or 0}


def _monomial_counts(args, kwargs, result, _pre):
    return {"monomials": len(result)}


def _faces_pending(args, kwargs):
    # all_faces caches its set on the complex; count faces only when built
    return getattr(args[0], "_faces", None) is None


def _face_counts(args, kwargs, result, pending):
    return {"faces": len(result)} if pending else None


# (span name, module, attribute, post hook, pre hook).  An attribute
# "Class.method" wraps a method on the class; a missing attribute is
# skipped, so the tracer keeps working when the package drops a function.
TARGETS = (
    ("cli.main", "csstress.cli", "main", None, None),
    ("claims.instance_reports", "csstress.claims", "instance_reports",
     None, None),
    ("claims.linear_table", "csstress.claims", "linear_table", None, None),
    ("claims.verify_lemma31", "csstress.claims", "verify_lemma31",
     None, None),
    ("claims.verify_lemma32_34", "csstress.claims", "verify_lemma32_34",
     None, None),
    ("claims.verify_thm35", "csstress.claims", "verify_thm35", None, None),
    ("engine.stress_space", "csstress.engine", "stress_space", None, None),
    ("engine.special_lsop", "csstress.engine", "special_lsop",
     _lsop_counts, None),
    ("engine.lsop_check", "csstress.engine", "lsop_check", None, None),
    ("exactla.nullspace", "csstress.exactla", "nullspace",
     _nullspace_counts, None),
    ("exactla.rank", "csstress.exactla", "rank", None, None),
    ("exactla.span_basis", "csstress.exactla", "span_basis", None, None),
    ("exactla.intersect", "csstress.exactla", "intersect", None, None),
    ("polynomials.delta_monomials", "csstress.polynomials",
     "delta_monomials", _monomial_counts, None),
    ("polynomials.pm_split", "csstress.polynomials", "pm_split", None, None),
    ("complexes.from_facets", "csstress.complexes",
     "SimplicialComplex.from_facets", None, None),
    ("complexes.contains", "csstress.complexes",
     "SimplicialComplex.contains", None, None),
    ("complexes.all_faces", "csstress.complexes",
     "SimplicialComplex.all_faces", _face_counts, _faces_pending),
    ("complexes.star", "csstress.complexes", "SimplicialComplex.star",
     None, None),
    ("complexes.link", "csstress.complexes", "SimplicialComplex.link",
     None, None),
    ("polytopes.polytope_from_json_obj", "csstress.polytopes",
     "polytope_from_json_obj", None, None),
)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []  # [name, start, end, parent index, counts]
        self.stack = [-1]

    def wrap(self, name, fn, post, pre):
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1], None]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post:
                span[4] = post(args, kwargs, result, state)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every import site."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "csstress"
                                  or key.startswith("csstress."))
        ]
        for name, modname, attr, post, pre in TARGETS:
            owner = sys.modules.get(modname)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, meth,
                            classmethod(self.wrap(name, raw.__func__,
                                                  post, pre)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, post, pre))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, post, pre)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"pass": self.pass_id, "spans": self.spans}, fh)


# -- span files -> per-layer metrics ----------------------------------------


def layer_metrics(spans) -> dict[str, float]:
    """Per-span-name totals for one traced pass.

    `<name>.self_s` is the summed span duration minus the time covered by
    its direct child spans, `<name>.calls` the number of spans, and each
    count a post hook returned is summed as `<name>.<count>`
    (`max_bits` is a maximum instead).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    has_child = [False] * len(spans)
    for span in spans:
        if span[3] >= 0:
            has_child[span[3]] = True
    out = defaultdict(int)
    for sid, (name, start, end, parent, counts) in enumerate(spans):
        out[f"{name}.self_s"] += end - start - child_time[sid]
        out[f"{name}.calls"] += 1
        # a cache lookup that had to compute something made child calls
        out[f"{name}.misses"] += has_child[sid]
        for key, value in (counts or {}).items():
            metric = f"{name}.{key}"
            if key == "max_bits":
                out[metric] = max(out[metric], value)
            else:
                out[metric] += value
    return dict(out)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS.json PASS_ID -- CSSTRESS-ARGS...",
              file=sys.stderr)
        return 2
    out, pass_id, cli_args = argv[0], int(argv[1]), argv[3:]
    import csstress.cli

    tracer = Tracer(pass_id)
    tracer.install()
    try:
        return csstress.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
