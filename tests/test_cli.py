import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frobtool.cli import main
from frobtool.groebner import (
    DEFAULT_DEGREE_GUARD,
    LiftVerificationError,
    NoLiftExists,
    clear_memo,
    set_persistent_cache,
)
from frobtool.polyring import RingMismatch
from frobtool.report import comparable, report_json

ROOT = Path(__file__).resolve().parents[1]

KATZMAN = """\
char 2
vars x y z
ideal I = x*y, y*z
"""


@pytest.fixture(autouse=True)
def fresh_state():
    clear_memo()
    set_persistent_cache(None)
    yield
    clear_memo()
    set_persistent_cache(None)


@pytest.fixture
def katzman_file(tmp_path):
    path = tmp_path / "katzman.frob"
    path.write_text(KATZMAN, encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_gb(capsys, katzman_file):
    code, report = run_json(capsys, ["gb", "--input", katzman_file, "--ideal", "I",
                                     "--json", "--no-cache"])
    assert code == 0
    assert report["components"][0]["generators"] == ["y*z", "x*y"]
    assert report["command"] == "frobtool gb"


def test_fops_report(capsys, katzman_file):
    code, report = run_json(capsys, ["fops", "--input", katzman_file, "--ideal", "I",
                                     "--emax", "3", "--json", "--no-cache"])
    assert code == 0
    rows = report["components"]
    assert [r["min_gen_count"] for r in rows] == [3, 3, 3]
    assert [r["new_gen_count"] for r in rows] == [3, 2, 2]
    assert rows[1]["generated_from_lower"] is False
    assert "input_digest" in report and len(report["input_digest"]) == 64


def test_fpow(capsys, katzman_file):
    code, report = run_json(capsys, ["fpow", "--input", katzman_file, "--ideal", "I",
                                     "--e", "2", "--json", "--no-cache"])
    assert code == 0
    assert report["components"][0]["generators"] == ["x^4*y^4", "y^4*z^4"]


def test_fpow_rejects_degree_guard_flag(capsys, katzman_file, tmp_path):
    # fpow runs no Buchberger, so the flag would select nothing; a .frob
    # degree_guard line stays allowed, since the commands share the file
    argv = ["fpow", "--input", katzman_file, "--ideal", "I", "--e", "1", "--no-cache"]
    assert main(argv + ["--degree-guard", "1"]) == 2
    assert capsys.readouterr().err == "error: fpow does not use --degree-guard\n"
    guarded = tmp_path / "guarded.frob"
    guarded.write_text(KATZMAN + "degree_guard 1\n", encoding="utf-8")
    argv[2] = str(guarded)
    assert main(argv) == 0


def test_colon_missing_ideal_names_it(capsys, katzman_file):
    code = main(["colon", "--input", katzman_file, "--lhs", "J", "--rhs", "I",
                 "--no-cache"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'J'" in err


def test_colon_runs(capsys, katzman_file, tmp_path):
    extended = tmp_path / "two.frob"
    extended.write_text(KATZMAN + "ideal J = x^2*y^2, y^2*z^2\n", encoding="utf-8")
    code, report = run_json(capsys, ["colon", "--input", str(extended), "--lhs", "J",
                                     "--rhs", "I", "--json", "--no-cache"])
    assert code == 0
    assert report["components"][0]["generators"] == ["y*z^2", "x*y*z", "x^2*y"]


def test_usage_error_exit2(capsys):
    assert main(["gb", "--ideal", "I"]) == 2
    assert main(["nonsense"]) == 2


def test_degree_guard_help_names_defaults(capsys):
    """The help gives the default from the constant and names both
    exceptions to it."""
    assert main(["gallery", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default {DEFAULT_DEGREE_GUARD}; a .frob degree_guard line overrides it;" in text
    assert f"gallery veronese: max({DEFAULT_DEGREE_GUARD}, 12*p^emax))" in text


def test_removed_options_exit2(capsys):
    assert main(["twisted-poly", "--dim", "2", "--no-cache"]) == 2
    assert main(["gallery", "katzman", "--deep", "--no-cache"]) == 2


@pytest.mark.parametrize("argv,arg", [
    (["gallery", "fedder", "--emax", "9"], "emax"),
    (["gallery", "katzman", "--dim", "3"], "dim"),
    (["gallery", "twisted", "--degree-guard", "50"], "degree_guard"),
])
def test_unused_gallery_option_exit2(capsys, argv, arg):
    assert main(argv + ["--no-cache"]) == 2
    assert capsys.readouterr().err.endswith(f"does not use {arg}\n")


def test_degree_guard_exit3(capsys, tmp_path):
    path = tmp_path / "guarded.frob"
    path.write_text("char 2\nvars x y z\ndegree_guard 2\n"
                    "ideal I = x^2 + y*z, x*y + z^2\nideal J = x^3, y^3\n", encoding="utf-8")
    for argv, context in ((["gb", "--ideal", "I"], "in the basis of I;"),
                          (["colon", "--lhs", "J", "--rhs", "I"], "in the colon J : I;")):
        code = main([argv[0], "--input", str(path)] + argv[1:] + ["--no-cache"])
        assert code == 3
        err = capsys.readouterr().err
        assert "degree guard" in err
        assert "(pair lcm)" in err
        assert context in err


def test_repeated_directive_exit2(capsys, tmp_path):
    path = tmp_path / "twice.frob"
    path.write_text("char 2\nvars x y\nchar 3\nideal I = x^2 + y\n", encoding="utf-8")
    assert main(["gb", "--input", str(path), "--ideal", "I", "--no-cache"]) == 2
    assert capsys.readouterr().err == \
        "error: 'char' declared twice (first on line 1) (line 3)\n"


def test_deep_nesting_exit2(capsys, tmp_path):
    # 5,000 levels of parentheses once raised RecursionError: a traceback, exit 1
    path = tmp_path / "deep.frob"
    path.write_text("char 2\nvars x y z\nideal I = " + 5000 * "(" + "x" + 5000 * ")" + "\n",
                    encoding="utf-8")
    assert main(["gb", "--input", str(path), "--ideal", "I", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: in ideal 'I': parentheses nested too deeply")
    assert err.endswith("(line 3)\n")


def test_katzman_p3_e4_aborts_under_default_guard(capsys):
    # the colon of component e=4 outgrows the default guard of 120; the
    # elimination's pair order must not move this abort
    assert main(["gallery", "katzman", "--p", "3", "--emax", "4", "--no-cache"]) == 3
    err = capsys.readouterr().err
    assert "intermediate weighted degree 163 (pair lcm) exceeds the degree guard 120" in err
    assert "in the colon I^[q]:I of component e=4 (q=81);" in err


@pytest.mark.parametrize("argv,message", [
    (["twisted", "--p", "4"], "characteristic must be prime: 4"),
    (["twisted", "--p", "6", "--dim", "3", "--emax", "2"], "characteristic must be prime: 6"),
    (["twisted", "--emax", "0"], "emax must be >= 1"),
    (["twisted", "--dim", "3", "--emax", "-3"], "emax must be >= 1"),
    (["lifts", "--emax", "0"], "emax must be >= 1"),
])
def test_gallery_bad_characteristic_or_depth_exit2(capsys, argv, message):
    assert main(["gallery"] + argv + ["--no-cache"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_degree_guard_below_one_is_usage_error(capsys, katzman_file):
    code = main(["gb", "--input", katzman_file, "--ideal", "I", "--degree-guard", "-7",
                 "--no-cache"])
    assert code == 2
    assert "--degree-guard: must be at least 1: -7" in capsys.readouterr().err


def test_file_degree_guard_below_one_is_usage_error(capsys, tmp_path):
    path = tmp_path / "guarded.frob"
    path.write_text(KATZMAN + "degree_guard 0\n", encoding="utf-8")
    code = main(["gb", "--input", str(path), "--ideal", "I", "--no-cache"])
    assert code == 2
    assert capsys.readouterr().err == "error: degree guard must be at least 1: 0 (line 4)\n"


def test_fops_degree_guard_names_component(capsys, tmp_path):
    path = tmp_path / "guarded.frob"
    path.write_text("char 2\nvars x y z\nideal I = x^2 + y*z, x*y + z^2\n", encoding="utf-8")
    code = main(["fops", "--input", str(path), "--ideal", "I", "--emax", "2",
                 "--degree-guard", "6", "--no-cache"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: intermediate weighted degree 7 (pair lcm) exceeds the degree guard 6 "
        "in the colon I^[q]:I of component e=1 (q=2); the input is likely intractable "
        "at this setting\n")


@pytest.mark.parametrize("error", [ArithmeticError, LiftVerificationError, RingMismatch])
def test_internal_error_exit4(capsys, katzman_file, monkeypatch, error):
    import frobtool.cli as cli_mod

    def broken(*args, **kwargs):
        raise error("planted failure")

    monkeypatch.setattr(cli_mod, "colon", broken)
    code = main(["colon", "--input", katzman_file, "--lhs", "I", "--rhs", "I",
                 "--no-cache"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "internal error: planted failure\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv, where", [
    (["colon", "--lhs", "I", "--rhs", "I"], " in the colon I : I"),
    (["fops", "--ideal", "I", "--emax", "2"], " in the colon I^[q]:I of component e=1 (q=2)"),
    (["fpow", "--ideal", "I", "--e", "1"], ""),
])
def test_memory_error_exit5(capsys, katzman_file, monkeypatch, argv, where):
    # a planted MemoryError where each command would run out: one line
    # naming the construction where a guard context knows it
    import frobtool.cli as cli_mod
    import frobtool.frobenius as frobenius_mod

    monkeypatch.setattr(cli_mod, "colon", _out_of_memory)
    monkeypatch.setattr(frobenius_mod, "_colon", _out_of_memory)
    monkeypatch.setattr(cli_mod, "frobenius_power", _out_of_memory)
    code = main([argv[0], "--input", katzman_file, *argv[1:], "--no-cache"])
    out, err = capsys.readouterr()
    assert code == 5
    assert out == "" and err == f"error: out of memory{where}\n"


def test_gallery_pass_and_fail_exit_codes(capsys, monkeypatch):
    assert main(["gallery", "fedder", "--p", "2", "--no-cache"]) == 0
    capsys.readouterr()

    import frobtool.gallery as gallery_mod
    from frobtool.gallery import CaseResult, Expectation

    def failing_case(name, **kwargs):
        return CaseResult(name, {"p": 2},
                          [Expectation("forced", "fail", {}, "direct")])

    monkeypatch.setattr(gallery_mod, "run_case", failing_case)
    assert main(["gallery", "fedder", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "FAIL forced" in out


@pytest.mark.parametrize("error, code", [(NoLiftExists, 2), (LiftVerificationError, 4)])
def test_failed_lift_stops_the_lift_family(capsys, monkeypatch, error, code):
    # the lift family reports memberships and verified lifts as passed
    # without checking them again: a lift that is missing or fails its own
    # check must stop the case, never reach a report
    import frobtool.gallery as gallery_mod

    def failing_lift(*args, **kwargs):
        raise error("planted failure")

    monkeypatch.setattr(gallery_mod, "lift_by_nzd", failing_lift)
    assert main(["gallery", "lifts", "--no-cache"]) == code
    out, err = capsys.readouterr()
    assert out == "" and "planted failure" in err


def test_twisted_poly(capsys):
    code, report = run_json(capsys, ["gallery", "twisted", "--dim", "2", "--p", "3",
                                     "--emax", "4", "--json", "--no-cache"])
    assert code == 0
    assert all(r["generated_from_lower"] for r in report["components"] if r["e"] >= 2)


def test_json_reports_byte_stable(capsys, katzman_file):
    code1, rep1 = run_json(capsys, ["fops", "--input", katzman_file, "--ideal", "I",
                                    "--emax", "2", "--json", "--no-cache"])
    clear_memo()
    code2, rep2 = run_json(capsys, ["fops", "--input", katzman_file, "--ideal", "I",
                                    "--emax", "2", "--json", "--no-cache"])
    rep1.pop("timing")
    rep2.pop("timing")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_cache_dir_env_and_hits(capsys, katzman_file, tmp_path, monkeypatch):
    monkeypatch.setenv("FROBTOOL_CACHE", str(tmp_path / "cachedir"))
    code1, rep1 = run_json(capsys, ["fops", "--input", katzman_file, "--ideal", "I",
                                    "--emax", "2", "--json"])
    assert code1 == 0
    clear_memo()
    code2, rep2 = run_json(capsys, ["fops", "--input", katzman_file, "--ideal", "I",
                                    "--emax", "2", "--json"])
    assert code2 == 0
    stats = rep2["timing"]["persistent_cache"]
    assert stats["hits"] >= 1
    rep1.pop("timing")
    rep2.pop("timing")
    assert rep1 == rep2




def test_non_object_cache_entry_discarded(capsys, tmp_path, monkeypatch):
    root = tmp_path / "cachedir"
    monkeypatch.setenv("FROBTOOL_CACHE", str(root))
    veronese = Path(__file__).resolve().parents[1] / "inputs" / "veronese.frob"
    argv = ["colon", "--input", str(veronese), "--lhs", "I", "--rhs", "I", "--json"]
    code1, rep1 = run_json(capsys, argv)
    assert code1 == 0
    (entry,) = root.glob("*.json")  # the one colon entry
    entry.write_text("[]", encoding="utf-8")
    clear_memo()
    code2, rep2 = run_json(capsys, argv)
    assert code2 == 0
    assert rep2["timing"]["persistent_cache"] == {"hits": 0, "misses": 1, "discarded": 1}
    rep1.pop("timing")
    rep2.pop("timing")
    assert rep1 == rep2


def test_corrupt_cache_entry_warning_line(tmp_path, monkeypatch, capsys):
    # a fresh interpreter, where cli.main's logging.basicConfig sets the
    # format; in this process pytest's own log handler makes it a no-op
    root = tmp_path / "cachedir"
    monkeypatch.setenv("FROBTOOL_CACHE", str(root))
    argv = ["colon", "--input", str(ROOT / "inputs" / "veronese.frob"), "--lhs", "I",
            "--rhs", "I", "--json"]
    assert main(argv) == 0
    capsys.readouterr()
    (entry,) = root.glob("*.json")  # the one colon entry
    entry.write_text("[]", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FROBTOOL_CACHE=str(root))
    done = subprocess.run([sys.executable, "-m", "frobtool.cli"] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == (f"WARNING frobtool: discarding corrupt cache entry {entry.name} "
                           "(entry is not an object with a basis list); recomputing\n")
    golden = ROOT / "tests" / "golden" / "v1" / "cli_colon_veronese.json"
    assert report_json(comparable(json.loads(done.stdout))) == golden.read_text(encoding="utf-8")


def test_no_home_directory_runs_without_cache(capsys, monkeypatch, caplog):
    # Path.home() raises RuntimeError when HOME is unset and the user has no
    # passwd entry; the command warns and runs without the cache
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("FROBTOOL_CACHE", raising=False)
    monkeypatch.setattr(Path, "home", no_home)
    code, report = run_json(capsys, ["gallery", "fedder", "--p", "2", "--json"])
    assert code == 0
    assert "persistent_cache" not in report["timing"]
    assert any("cache disabled" in rec.message for rec in caplog.records)
    golden = Path(__file__).parent / "golden" / "v1" / "gallery_fedder_p2.json"
    assert report_json(comparable(report)) == golden.read_text(encoding="utf-8")


def test_human_output(capsys, katzman_file):
    code = main(["fops", "--input", katzman_file, "--ideal", "I", "--emax", "2",
                 "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "new generators required at e = 2" in out


KATZMAN_INPUT = str(ROOT / "inputs" / "katzman.frob")


@pytest.mark.parametrize("argv, lines", [
    (["gb", "--input", KATZMAN_INPUT, "--ideal", "I"],
     ["# frobtool gb (frobtool 0.1.0)", "basis I:", "  y*z", "  x*y"]),
    (["colon", "--input", KATZMAN_INPUT, "--lhs", "I", "--rhs", "I"],
     ["# frobtool colon (frobtool 0.1.0)", "basis I:I:", "  1"]),
    (["fpow", "--input", KATZMAN_INPUT, "--ideal", "I", "--e", "2"],
     ["# frobtool fpow (frobtool 0.1.0)", "generators I^[p^2]:", "  x^4*y^4", "  y^4*z^4"]),
    (["fops", "--input", KATZMAN_INPUT, "--ideal", "I", "--emax", "3"],
     ["# frobtool fops (frobtool 0.1.0)",
      "e=1: 3 generator(s), 3 new, max degree 3 [base degree]",
      "e=2: 3 generator(s), 2 new, max degree 9 [new generators required at e = 2]",
      "e=3: 3 generator(s), 2 new, max degree 21 [new generators required at e = 3]"]),
    (["gallery", "twisted", "--dim", "3", "--p", "2", "--emax", "3"],
     ["# frobtool gallery twisted (frobtool 0.1.0)",
      "e=1: size 3, 3 outside lower products [base degree]",
      "e=2: size 10, 1 outside lower products [new generators required at e = 2]",
      "e=3: size 36, 3 outside lower products [new generators required at e = 3]",
      "PASS witness_excluded_e2", "PASS witness_excluded_e3"]),
    (["gallery", "fedder", "--p", "2"],
     ["# frobtool gallery fedder (frobtool 0.1.0)",
      "PASS colon_identity_q2", "PASS strict_containment_q4"]),
], ids=["gb", "colon", "fpow", "fops", "twisted", "fedder"])
def test_human_output_in_full(capsys, argv, lines):
    """Each shape of report component, printed: a basis or a list of
    generators, a probe row and a row of the twisted algebra; only the
    time on the last line varies."""
    code = main(argv + ["--no-cache"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[:-1] == lines
    assert out[-1].startswith("done in ") and out[-1].endswith("s")
