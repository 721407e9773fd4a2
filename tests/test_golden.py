"""Golden-file regression for gallery and CLI reports.

Reports are byte-stable for a fixed input, version and flags once the
timing block is dropped.  Regenerate with FROBTOOL_REGOLD=1 after an
intentional change and review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from frobtool.cli import main
from frobtool.gallery import run_case
from frobtool.groebner import set_persistent_cache
from frobtool.report import (
    comparable,
    digest_params,
    expectations_payload,
    make_report,
    report_json,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "v1"
INPUTS_DIR = Path(__file__).parent.parent / "inputs"
REGOLD = os.environ.get("FROBTOOL_REGOLD") == "1"

GALLERY_CASES = [
    ("gallery_fedder_p2", "fedder", {"p": 2}),
    ("gallery_fedder_p3", "fedder", {"p": 3}),
    ("gallery_lifts_p2", "lifts", {}),
    ("gallery_katzman_p2_e3", "katzman", {}),
    ("gallery_veronese_p2_e3", "veronese", {"p": 2}),
    ("gallery_veronese_p3_e3", "veronese", {"p": 3}),
    ("gallery_veronese_p7_e2", "veronese", {"p": 7}),
    ("gallery_veronese_p7_e3", "veronese", {"p": 7, "emax": 3}),
    ("gallery_determinantal_p2", "determinantal", {}),
    ("gallery_determinantal_p2_e4", "determinantal",
     {"p": 2, "emax": 4, "degree_guard": 1000}),
    ("gallery_twisted_d1_p2", "twisted", {"dim": 1}),
    ("gallery_twisted_d2_p3", "twisted", {"dim": 2, "p": 3}),
    ("gallery_twisted_d3_p2", "twisted", {"dim": 3}),
]

CLI_CASES = [
    ("cli_fops_katzman_e3",
     ["fops", "--input", str(INPUTS_DIR / "katzman.frob"), "--ideal", "I",
      "--emax", "3", "--json", "--no-cache"]),
    ("cli_gb_determinantal",
     ["gb", "--input", str(INPUTS_DIR / "determinantal.frob"), "--ideal", "I",
      "--json", "--no-cache"]),
    ("cli_colon_veronese",
     ["colon", "--input", str(INPUTS_DIR / "veronese.frob"), "--lhs", "I",
      "--rhs", "I", "--json", "--no-cache"]),
]


def _check(slug: str, text: str):
    path = GOLDEN_DIR / f"{slug}.json"
    if REGOLD:
        path.write_text(text, encoding="utf-8")
    assert path.exists(), f"golden file missing: run with FROBTOOL_REGOLD=1 ({path})"
    assert text == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("slug,case_name,kwargs", GALLERY_CASES,
                         ids=[c[0] for c in GALLERY_CASES])
def test_gallery_golden(slug, case_name, kwargs):
    case = run_case(case_name, **kwargs)
    report = make_report(f"frobtool gallery {case_name}",
                         digest_params(case.params), case.components,
                         expectations_payload(case.expectations))
    _check(slug, report_json(comparable(report)))


@pytest.mark.parametrize("slug,argv", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_golden(slug, argv):
    set_persistent_cache(None)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    report = json.loads(buffer.getvalue())
    _check(slug, report_json(comparable(report)))
