"""The benchmark's workloads: inputs made from a seed, timed jobs, output checks.

Imported only by child processes (`child.py`, `capture.py`), where importing
frobtool is part of the measured set-up.

Seeds.  Seed 0 runs the shipped inputs and checks them byte for byte.  Any
other seed relabels the variable order of the `colon` and `probe` ideals
with a permutation drawn from the ideal's own symmetry group: a row swap
and column permutation of the generic 2x3 matrix for the minors, the
reversal of the Hankel matrix for the twisted cubic.  Each relabelling poses
the same problem in another variable order, so seeds are comparable runs of
equal work; an arbitrary permutation changes the Buchberger work by up to
three times on the twisted cubic, which would make seeds different
problems.  Answers under a relabelling are checked order-independently.
`monomial` and `cli-cache` ignore the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from frobtool.frobenius import fingen_probe
from frobtool.gallery import (
    determinantal_case,
    minors_ideal,
    probe_rows,
    run_case,
    twisted_cubic_ideal,
)
from frobtool.groebner import Ideal, colon, frobenius_power, ideal_equal
from frobtool.parsing import parse_polynomial
from frobtool.polyring import RingSpec
from frobtool.report import (
    comparable,
    digest_params,
    expectations_payload,
    make_report,
    report_json,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
GOLDEN_DIR = ROOT / "tests" / "golden" / "v1"


def _minors_symmetries():
    rows = ((0, 1, 2), (3, 4, 5))
    out = []
    for top, bottom in (rows, rows[::-1]):
        for cols in itertools.permutations(range(3)):
            out.append(tuple(top[c] for c in cols) + tuple(bottom[c] for c in cols))
    return out


MODELS = {
    "minors": (minors_ideal, _minors_symmetries()),
    "twisted_cubic": (twisted_cubic_ideal, [(0, 1, 2, 3), (3, 2, 1, 0)]),
}

# (job name, model, p, e or emax, degree guard)
COLON_JOBS = (
    ("minors_p2_e3", "minors", 2, 3, None),
    ("minors_p3_e2", "minors", 3, 2, None),
    ("twisted_cubic_p7_e2", "twisted_cubic", 7, 2, 600),
)
PROBE_JOBS = (
    ("twisted_cubic_p7_emax2", "twisted_cubic", 7, 2, 588),
    ("minors_p2_emax3", "minors", 2, 3, 400),
)
MONOMIAL_JOBS = (
    ("determinantal_p2_mono8",
     lambda: determinantal_case(2, emax_groebner=1, emax_monomial=8)),
    ("determinantal_p3_mono5",
     lambda: determinantal_case(3, emax_groebner=1, emax_monomial=5)),
    ("twisted_d3_p7_e3", lambda: run_case("twisted", dim=3, p=7, emax=3)),
)
# Golden of the twisted-cubic probe: its components are the gallery case's.
PROBE_GOLDENS = {"twisted_cubic_p7_emax2": "gallery_veronese_p7_e2"}
ROW_FIELDS = ("min_gen_count", "new_gen_count", "max_gen_degree", "generated_from_lower")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def relabelled(model: str, p: int, seed: int):
    """(shipped ring, relabelled ring, relabelled ideal) for the seed."""
    build, symmetries = MODELS[model]
    ring, ideal = build(p)
    perm = symmetries[0] if seed == 0 else random.Random(seed).choice(symmetries[1:])
    new_ring = RingSpec(ring.field, tuple(ring.variables[i] for i in perm))
    gens = [parse_polynomial(str(g), new_ring) for g in ideal.generators]
    return ring, new_ring, Ideal(new_ring, gens)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class Job:
    """One timed call; `run` is timed, `outcome` and `check` are not."""

    name = ""

    def run(self):
        raise NotImplementedError

    def outcome(self, result) -> dict:
        """What the reference records for this job at seed 0."""
        raise NotImplementedError

    def check(self, result, reference: dict):
        """None when the output is correct, else a one-line reason."""
        raise NotImplementedError


class ColonJob(Job):
    def __init__(self, name, model, p, e, guard, seed):
        self.name, self.e, self.guard, self.seed = name, e, guard, seed
        self.ring, _, self.ideal = relabelled(model, p, seed)

    def run(self):
        return colon(frobenius_power(self.ideal, self.e), self.ideal, self.guard)

    def outcome(self, result):
        basis = [str(g) for g in result.generators]
        return {"basis": basis, "digest": digest("\n".join(basis))}

    def check(self, result, reference):
        expected = reference[self.name]
        basis = [str(g) for g in result.generators]
        if self.seed == 0:
            return None if digest("\n".join(basis)) == expected["digest"] else \
                "colon basis differs from the reference digest"
        back = Ideal(self.ring, [parse_polynomial(s, self.ring) for s in basis])
        ref = Ideal(self.ring, [parse_polynomial(s, self.ring) for s in expected["basis"]])
        ref.gb_cache[self.ring.order.tag] = ref.generators  # stored reduced basis
        return None if ideal_equal(back, ref, self.guard) else \
            "relabelled colon maps back to a different ideal"


class ProbeJob(Job):
    def __init__(self, name, model, p, emax, guard, seed):
        self.name, self.emax, self.guard, self.seed = name, emax, guard, seed
        _, _, self.ideal = relabelled(model, p, seed)

    def run(self):
        return fingen_probe(self.ideal, self.emax, self.guard)

    def _rows(self, result):
        return probe_rows(result.report, result.components)

    def outcome(self, result):
        rows = self._rows(result)
        return {"digest": digest(_canonical(rows)),
                "counts": [{k: r[k] for k in ROW_FIELDS} for r in rows]}

    def check(self, result, reference):
        expected = reference[self.name]
        rows = self._rows(result)
        if self.seed != 0:
            counts = [{k: r[k] for k in ROW_FIELDS} for r in rows]
            return None if counts == expected["counts"] else \
                "per-degree counts differ from seed 0"
        golden = PROBE_GOLDENS.get(self.name)
        if golden is not None:
            text = (GOLDEN_DIR / f"{golden}.json").read_text(encoding="utf-8")
            want = _canonical(json.loads(text)["components"])
            return None if _canonical(rows) == want else \
                f"components differ from golden {golden}"
        return None if digest(_canonical(rows)) == expected["digest"] else \
            "probe rows differ from the reference digest"


class MonomialJob(Job):
    def __init__(self, name, call):
        self.name, self.call = name, call

    def run(self):
        return self.call()

    @staticmethod
    def _report_text(case):
        report = make_report(f"frobtool gallery {case.case}", digest_params(case.params),
                             case.components, expectations_payload(case.expectations))
        return report_json(comparable(report))

    def outcome(self, result):
        return {"digest": digest(self._report_text(result))}

    def check(self, result, reference):
        if not result.passed:
            failed = [e.name for e in result.expectations if not e.ok]
            return "gallery expectations failed: " + ", ".join(failed)
        return None if digest(self._report_text(result)) == reference[self.name]["digest"] \
            else "gallery report differs from the reference digest"


def jobs(workload: str, seed: int):
    if workload == "colon":
        return [ColonJob(*spec, seed) for spec in COLON_JOBS]
    if workload == "probe":
        return [ProbeJob(*spec, seed) for spec in PROBE_JOBS]
    if workload == "monomial":
        return [MonomialJob(*spec) for spec in MONOMIAL_JOBS]
    raise ValueError(f"no in-process jobs for workload {workload!r}")
