"""Report assembly and canonical JSON emission.

Reports are deterministic for a fixed input, version and flags: the
comparable payload carries no timestamps, and timing (plus cache counters)
lives in a segregated block that golden comparisons drop.
"""

from __future__ import annotations

import hashlib
import json
from . import __version__


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_params(params: dict) -> str:
    return digest_bytes(json.dumps(params, sort_keys=True).encode("utf-8"))


def make_report(command: str, input_digest: str, components=None,
                expectations=None) -> dict:
    return {
        "version": __version__,
        "input_digest": input_digest,
        "command": command,
        "components": components or [],
        "expectations": expectations or [],
        "timing": {},
    }


def expectations_payload(expectations) -> list:
    return [{"name": e.name, "status": e.status, "measured": e.measured,
             "provenance": e.provenance} for e in expectations]


def probe_rows(report, components=None) -> list:
    """The report components of a generation probe: the fields of each
    DegreeRecord of the FinGenReport `report`, with each degree's
    generators printed when the probe's `components` are given."""
    rows = []
    for row in report.rows:
        rec = row._asdict()
        if components is not None:
            rec["generators"] = [str(g) for g in components[row.e - 1].min_gens]
        rows.append(rec)
    return rows


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def comparable(report: dict) -> dict:
    out = dict(report)
    out.pop("timing", None)
    return out
