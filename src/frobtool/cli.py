"""Command-line front end.

Subcommands: gb, colon, fpow and fops read a .frob input file; gallery runs
a named case.  Exit codes: 0 success with all expectations passing, 1 failed
expectation, 2 usage or parse errors, 3 degree-guard abort, 4 internal error
(a failed arithmetic invariant, a lift verification or a ring mismatch), 5
out of memory, with the construction that ran out named where a guard
context knows it.
Environment: FROBTOOL_CACHE (basis cache directory).

Each command imports only the layers it runs: this module loads the
parsing, Groebner, cache and report layers; fops imports `frobenius` (and
through it `monomials`), and gallery imports `gallery` (and through it
both), when they run.  Library paths import nothing at call time.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from . import CASE_NAMES, __version__
from .cache import BasisCache, default_cache_dir
from .groebner import (
    DEFAULT_DEGREE_GUARD,
    DegreeGuardExceeded,
    LiftVerificationError,
    colon,
    frobenius_power,
    set_persistent_cache,
    _guard_context,
)
from .inputfile import InputFileError, parse_input_file
from .parsing import ParseError
from .polyring import RingMismatch
from .report import (
    digest_bytes,
    digest_params,
    expectations_payload,
    make_report,
    probe_rows,
    report_json,
)

log = logging.getLogger("frobtool")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobtool",
        description="Exact Frobenius-operator computations over prime fields.")
    parser.add_argument("--version", action="version", version=f"frobtool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help=".frob input file")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--degree-guard", type=int, default=None,
                       help=f"cap on intermediate weighted degree (default {DEFAULT_DEGREE_GUARD}"
                       "; a .frob degree_guard line overrides it; gallery veronese: "
                       f"max({DEFAULT_DEGREE_GUARD}, 12*p^emax))")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the persistent basis cache")

    p_gb = sub.add_parser("gb", help="reduced basis of a named ideal")
    common(p_gb)
    p_gb.add_argument("--ideal", required=True)

    p_colon = sub.add_parser("colon", help="colon ideal lhs : rhs")
    common(p_colon)
    p_colon.add_argument("--lhs", required=True)
    p_colon.add_argument("--rhs", required=True)

    p_fpow = sub.add_parser("fpow", help="Frobenius power of a named ideal")
    common(p_fpow)
    p_fpow.add_argument("--ideal", required=True)
    p_fpow.add_argument("--e", type=int, required=True)

    p_fops = sub.add_parser("fops", help="per-degree operator components and generation probe")
    common(p_fops)
    p_fops.add_argument("--ideal", required=True)
    p_fops.add_argument("--emax", type=int, default=2)

    p_gal = sub.add_parser("gallery", help="run a named gallery case")
    common(p_gal, needs_input=False)
    p_gal.add_argument("case", choices=CASE_NAMES)
    p_gal.add_argument("--p", type=int, default=None)
    p_gal.add_argument("--emax", type=int, default=None)
    p_gal.add_argument("--dim", type=int, default=None)
    return parser


def _basis_component(kind: str, name: str, basis) -> dict:
    return {"kind": kind, "name": name, "generators": [str(g) for g in basis]}


def _run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.degree_guard is not None and args.degree_guard < 1:
        parser.error(f"argument --degree-guard: must be at least 1: {args.degree_guard}")
    if args.command == "fpow" and args.degree_guard is not None:
        raise ValueError("fpow does not use --degree-guard")

    cache = None
    root = None if args.no_cache else default_cache_dir()
    if root is not None:
        cache = BasisCache(root)
        set_persistent_cache(cache)
    started = time.monotonic()
    passed = True

    try:
        if args.command in ("gb", "colon", "fpow", "fops"):
            doc = parse_input_file(args.input)
            with open(args.input, "rb") as handle:
                input_digest = digest_bytes(handle.read())
            guard = args.degree_guard
            if guard is None:
                guard = doc.options.get("degree_guard")
            components = []
            expectations = []
            if args.command == "gb":
                ideal = doc.ideal(args.ideal)
                with _guard_context(f"the basis of {args.ideal}"):
                    basis = ideal.groebner_basis(degree_guard=guard)
                components.append(_basis_component("basis", args.ideal, basis))
            elif args.command == "colon":
                lhs = doc.ideal(args.lhs)
                rhs = doc.ideal(args.rhs)
                with _guard_context(f"the colon {args.lhs} : {args.rhs}"):
                    result = colon(lhs, rhs, guard)
                components.append(_basis_component(
                    "basis", f"{args.lhs}:{args.rhs}", result.generators))
            elif args.command == "fpow":
                ideal = doc.ideal(args.ideal)
                result = frobenius_power(ideal, args.e)
                components.append(_basis_component(
                    "generators", f"{args.ideal}^[p^{args.e}]", result.generators))
            else:  # fops
                from .frobenius import degree_growth, fingen_probe
                ideal = doc.ideal(args.ideal)
                probe = fingen_probe(ideal, args.emax, guard)
                components = probe_rows(probe.report, probe.components)
                growth = degree_growth(probe.report)
                for row, (_, _, ratio) in zip(components, growth):
                    row["max_gen_degree_ratio"] = str(ratio)
            report = make_report(
                " ".join(["frobtool", args.command]), input_digest,
                components, expectations)
        else:  # gallery
            from .gallery import run_case
            case = run_case(args.case, p=args.p, emax=args.emax, dim=args.dim,
                            degree_guard=args.degree_guard)
            passed = case.passed
            report = make_report(
                f"frobtool gallery {args.case}", digest_params(case.params),
                case.components, expectations_payload(case.expectations))
    finally:
        if cache is not None:
            set_persistent_cache(None)

    timing = {"seconds": round(time.monotonic() - started, 6)}
    if cache is not None:
        timing["persistent_cache"] = cache.stats()
    report["timing"] = timing

    if args.json:
        sys.stdout.write(report_json(report))
    else:
        _print_human(report)
    return 0 if passed else 1


def _print_human(report: dict) -> None:
    print(f"# {report['command']} (frobtool {report['version']})")
    for comp in report["components"]:
        if "e" not in comp:  # a basis or a list of generators
            print(f"{comp['kind']} {comp['name']}:")
            for g in comp["generators"]:
                print(f"  {g}")
            continue
        e = comp["e"]
        flag = "generated from lower" if comp["generated_from_lower"] else \
            (f"new generators required at e = {e}" if e > 1 else "base degree")
        if "min_gen_count" in comp:  # a probe row
            extra = (f"{comp['min_gen_count']} generator(s), {comp['new_gen_count']} new, "
                     f"max degree {comp['max_gen_degree']}")
        else:  # a row of the twisted algebra
            extra = (f"size {comp['component_size']}, "
                     f"{comp['missing_count']} outside lower products")
        print(f"e={e}: {extra} [{flag}]")
    for exp in report["expectations"]:
        print(f"{exp['status'].upper():4s} {exp['name']}")
    cachestats = report["timing"].get("persistent_cache")
    suffix = ""
    if cachestats:
        suffix = f", cache hits {cachestats['hits']}/{cachestats['hits'] + cachestats['misses']}"
    print(f"done in {report['timing']['seconds']}s{suffix}")


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return _run(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    except DegreeGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 5
    except (ArithmeticError, LiftVerificationError, RingMismatch) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (InputFileError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
