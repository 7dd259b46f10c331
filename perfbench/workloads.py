"""The benchmark's workloads: inputs made from the seed, the csstress
command line run on them, and the oracle that checks its output.

Why these three (see README.md for the measured layer shares):
  verify_corpus    the claims layer over many small matrices; the only
                   workload that reads stress basis vectors.
  stress_crosspoly a few large exact eliminations (exactla) with no claims.
  load_large       complex construction and the cs check (complexes) with
                   no linear algebra.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from oracles import CrosspolyInfoOracle, CrosspolyStressOracle, VerifyOracle

# The ten checked-in corpus instances (115 verify records).  Named here so
# that instances added to corpus/ later do not change this workload.
CORPUS = (
    "bipyramid_m3", "bipyramid_m4", "bipyramid_m5",
    "crosspoly_d2", "crosspoly_d3", "crosspoly_d4",
    "noncm_edges", "polygon_m3", "polygon_m4", "simplex2",
)
STRESS_D = 5  # `stress` builds every degree up to d; d = 6 takes ~70 s
LOAD_D = 9    # 512 facets, 19683 faces


def crosspoly_instance(d: int, seed: int, name: str) -> dict:
    """Boundary of the d-cross-polytope on seed-chosen pair labels, with
    the vertices of each facet and the facets in seed-chosen order."""
    rng = random.Random(f"{name}:{seed}")
    labels = rng.sample(range(1, 3 * d + 1), d)
    facets = [
        [s * k for k, s in zip(labels, signs)]
        for signs in itertools.product((1, -1), repeat=d)
    ]
    for f in facets:
        rng.shuffle(f)
    rng.shuffle(facets)
    return {"name": name, "cs": True, "facets": facets}


class Workload:
    name = ""

    def write_inputs(self, root: Path, work: Path, seed: int) -> list[str]:
        """Write the inputs under `work`; return the csstress arguments."""
        raise NotImplementedError

    def oracle(self, work: Path, seed: int):
        raise NotImplementedError


class VerifyCorpus(Workload):
    name = "verify_corpus"

    def write_inputs(self, root, work, seed):
        dst = work / "corpus"
        dst.mkdir(exist_ok=True)
        for stem in CORPUS:
            text = (root / "corpus" / f"{stem}.json").read_text()
            (dst / f"{stem}.json").write_text(text)
        return ["verify", str(dst), "--format", "json", "--seed", str(seed)]

    def oracle(self, work, seed):
        instances = []
        for stem in CORPUS:
            obj = json.loads((work / "corpus" / f"{stem}.json").read_text())
            obj.setdefault("name", stem)
            instances.append(obj)
        return VerifyOracle(instances, seed)


class StressCrosspoly(Workload):
    name = "stress_crosspoly"

    def write_inputs(self, root, work, seed):
        path = work / f"crosspoly_d{STRESS_D}.json"
        obj = crosspoly_instance(STRESS_D, seed, path.stem)
        path.write_text(json.dumps(obj))
        return ["stress", str(path), "--format", "json", "--seed", str(seed)]

    def oracle(self, work, seed):
        return CrosspolyStressOracle(STRESS_D, seed)


class LoadLarge(Workload):
    name = "load_large"

    def write_inputs(self, root, work, seed):
        path = work / f"crosspoly_d{LOAD_D}.json"
        obj = crosspoly_instance(LOAD_D, seed, path.stem)
        path.write_text(json.dumps(obj))
        return ["info", str(path), "--format", "json"]

    def oracle(self, work, seed):
        return CrosspolyInfoOracle(LOAD_D)


WORKLOADS = {w.name: w for w in (VerifyCorpus(), StressCrosspoly(),
                                 LoadLarge())}
