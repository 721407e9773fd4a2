"""Cold-start benchmark of frobtool.

    python3 perfbench/run.py --workload colon --seed 0 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all   --seed 0 --seconds 26 --trace 0

Run from the root of a checkout.  Every timed pass runs in a fresh
interpreter started from here, one child process at a time, with
PYTHONPATH pointing at the checkout's `src`.  The run measures for
`--seconds`: it starts another pass only while the longest pass so far
still fits.  With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics of traced passes (alternating with
untraced ones, to measure the tracing overhead).  The last line of
standard output is one JSON object; the full record of the run goes to
`.perfbench/results/`, and the spans of the last traced pass to
`.perfbench/spans/`.  The exit code is 0 when every output was correct,
1 when one was not, 2 when the checkout lacks what the benchmark needs.

See perfbench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CACHE_DIR = WORK / "cache"
GOLDEN_DIR = ROOT / "tests" / "golden" / "v1"

WORKLOADS = ("colon", "probe", "monomial", "cli-cache")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # a run of one workload, hung children included, ends within this
REQUIRED = (ROOT / "src" / "frobtool" / "__init__.py", ROOT / "inputs" / "veronese.frob",
            ROOT / "inputs" / "katzman.frob", GOLDEN_DIR, HERE / "reference.json")

# (job name, CLI arguments, golden report)
CLI_JOBS = (
    ("gallery_veronese_p3", ["gallery", "veronese", "--p", "3", "--json"],
     "gallery_veronese_p3_e3"),
    ("gallery_lifts_p2", ["gallery", "lifts", "--json"], "gallery_lifts_p2"),
    ("colon_veronese", ["colon", "--input", "inputs/veronese.frob", "--lhs", "I",
                        "--rhs", "I", "--json"], "cli_colon_veronese"),
    ("fops_katzman_e3", ["fops", "--input", "inputs/katzman.frob", "--ideal", "I",
                         "--emax", "3", "--json"], "cli_fops_katzman_e3"),
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("wall_s_tail", "s"), ("fill_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric prefix -> traced span names it sums; each gets .calls and .self_s
SPAN_METRICS = (
    ("groebner.groebner_basis", ("groebner.groebner_basis",)),
    ("groebner.intersect", ("groebner.intersect",)),
    ("groebner.colon", ("groebner.colon",)),
    ("groebner.minimal_generators_mod", ("groebner.minimal_generators_mod",)),
    ("groebner.normal_form", ("groebner.Ideal.normal_form",)),
    ("groebner.lift_by_nzd", ("groebner.lift_by_nzd",)),
    ("frobenius.component", ("frobenius.component",)),
    ("frobenius.twisted_mul_reps", ("frobenius.twisted_mul_reps",)),
    ("frobenius.fingen_probe", ("frobenius.fingen_probe",)),
    ("monomials.frac_twisted_product", ("monomials.frac_twisted_product",)),
    ("monomials.FracMonomialModule.contains", ("monomials.FracMonomialModule.contains",)),
    ("monomials.components", ("monomials.segre_component_2x3",
                              "monomials.veronese_component",
                              "monomials.poly_twisted_component")),
    ("polyring.Polynomial.__str__", ("polyring.Polynomial.__str__",)),
    ("parsing.parse_polynomial", ("parsing.parse_polynomial",)),
    ("cache.get", ("cache.BasisCache.get",)),
    ("cache.put", ("cache.BasisCache.put",)),
    ("gallery.run_case", ("gallery.run_case",)),
    ("cli.main", ("cli.main",)),
    ("inputfile.parse_input_file", ("inputfile.parse_input_file",)),
    ("report.report_json", ("report.report_json",)),
)
FILL_METRICS = ("cache.put.calls", "cache.put.self_s", "cache.misses",
                "cache.bytes_written", "groebner.basis_computed")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"  # same set and dict layout in every child
    env["FROBTOOL_CACHE"] = str(CACHE_DIR)  # never the user's cache
    return env


class Child:
    """Start one process, wait for it, and keep its wall time and rusage."""

    def __init__(self, argv, deadline, stdout_path=None):
        env = child_env()
        stdout = open(stdout_path or os.devnull, "w", encoding="utf-8")
        stderr_path = WORK / "stderr.txt"
        stderr = open(stderr_path, "w", encoding="utf-8")
        try:
            self.start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
            timer = threading.Timer(max(0.0, deadline - self.start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.end = time.monotonic()
        finally:
            stdout.close()
            stderr.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def spawn_child(run, mode, trace=False):
    """Run child.py; returns (Child, its JSON result or None)."""
    out = WORK / "child.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), mode, "--workload", run.workload,
            "--seed", str(run.seed), "--out", str(out)]
    if trace:
        argv += ["--trace", "--spans", str(WORK / "spans" / f"{run.workload}.json")]
    child = Child(argv, run.deadline)
    return child, (read_json(out) if child.code == 0 else None)


def setup_samples(run):
    """Set-up children; each record holds measured and reference seconds."""
    spawn_child(run, "setup")  # untimed: compiles bytecode once
    calibration = Calibration()
    samples = []
    for _ in range(SETUP_SAMPLES):
        child, out = spawn_child(run, "setup")
        slowdown = calibration.slowdown()
        if out is None:
            run.attempted += 1
            run.fail("setup", f"child exited {child.code}: {child.stderr.strip()[-300:]}")
            break
        seconds = out["ready"] - child.start
        samples.append({"setup_s": seconds, "setup_ref_s": seconds / slowdown})
    return samples


class Run:
    """Samples and failures of one benchmark run of one workload."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setup = []
        self.passes = []  # untraced: measured and reference seconds, rss_mb
        self.traced = []  # traced: wall seconds and per-layer metrics
        self.attempted = 0
        self.failures = []

    def fail(self, job, reason):
        self.failures.append(f"{job}: {reason}")


# ---------------------------------------------------------------------------
# in-process workloads: one child per pass

def library_pass(run, traced):
    child, out = spawn_child(run, "pass", traced)
    if out is None:
        run.attempted += 1
        run.fail("pass", f"child exited {child.code}: {child.stderr.strip()[-300:]}")
        return child.wall_s
    for job in out["jobs"]:
        run.attempted += 1
        if job["error"] is not None:
            run.fail(job["name"], job["error"])
    record = {k: out[k] for k in ("wall_s", "wall_ref_s", "cpu_s", "cpu_ref_s", "handler_s")}
    record["jobs"] = {j["name"]: j["seconds"] for j in out["jobs"]}
    if traced:
        record["layers"] = layer_metrics([out["layers"]], out["wall_s"] + out["handler_s"])
        record["layers"].update({f"fill.{key}": 0 for key in FILL_METRICS})  # no fill pass
        run.traced.append(record)
    else:
        record["rss_mb"] = out["rss_mb"]
        run.passes.append(record)
    return child.wall_s


# ---------------------------------------------------------------------------
# cli-cache: fill pass into an empty cache, then warm pass reading it

def cache_snapshot():
    return {e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size)
            for e in os.scandir(CACHE_DIR) if e.name.endswith(".json")}


def bytes_written(before, after):
    return sum(sig[2] for name, sig in after.items() if before.get(name) != sig)


def comparable_text(report) -> str:
    body = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def cli_pass(run, traced):
    """One CLI process per command; returns (record, report texts)."""
    before = cache_snapshot()
    record = {"wall_s": 0.0, "wall_ref_s": 0.0, "cpu_s": 0.0, "cpu_ref_s": 0.0,
              "handler_s": 0.0, "rss_mb": 0.0}
    texts = {}
    layers = []
    for name, args, golden in CLI_JOBS:
        run.attempted += 1
        report_path = WORK / "report.json"
        out = WORK / "child.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), "cli", "--out", str(out)]
        if traced:
            argv += ["--trace", "--spans", str(WORK / "spans" / f"cli-cache-{name}.json")]
        child = Child(argv + ["--"] + args, run.deadline, report_path)
        result = read_json(out) if child.code == 0 else None
        code = child.code if result is None else result["code"]
        if result is not None:
            # the sampler's handler time is not the program's; scale the rest
            wall = child.wall_s - result["spent_s"]
            cpu = child.cpu_s - result["spent_s"]
            record["wall_s"] += wall
            record["wall_ref_s"] += wall / result["slowdown"]
            record["cpu_s"] += cpu
            record["cpu_ref_s"] += cpu / result["slowdown"]
            record["handler_s"] += result["spent_s"]
            record["rss_mb"] = max(record["rss_mb"], child.rss_mb)
            if traced:
                layers.append(result["layers"])
        report = read_json(report_path) if code == 0 else None
        if report is None:
            run.fail(name, f"exit code {code}: {child.stderr.strip()[-300:]}")
            continue
        texts[name] = comparable_text(report)
        want = (GOLDEN_DIR / f"{golden}.json").read_text(encoding="utf-8")
        if texts[name] != want:
            run.fail(name, f"report differs from golden {golden}")
    if traced:
        written = bytes_written(before, cache_snapshot())
        record["layers"] = layer_metrics(layers, record["wall_s"] + record["handler_s"],
                                         written)
    return record, texts


def cli_cycle(run, traced):
    shutil.rmtree(CACHE_DIR, ignore_errors=True)
    CACHE_DIR.mkdir(parents=True)
    started = time.monotonic()
    fill, fill_texts = cli_pass(run, traced)
    warm, warm_texts = cli_pass(run, traced)
    for name, text in warm_texts.items():
        if name in fill_texts and text != fill_texts[name]:
            run.fail(name, "warm report differs from the fill report")
    if traced:
        for key in FILL_METRICS:
            warm["layers"][f"fill.{key}"] = fill["layers"][key]
        run.traced.append(warm)
    else:
        warm["fill_s"], warm["fill_ref_s"] = fill["wall_s"], fill["wall_ref_s"]
        run.passes.append(warm)
    return time.monotonic() - started


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(layers, wall_s, cache_bytes=0):
    """Per-layer metrics of one pass from the layer records of its processes;
    `wall_s` is the pass's time including the sampler's handler, like spans."""
    spans, counters, root = {}, {}, 0.0
    for rec in layers:
        root += rec["root_s"]
        for name, (calls, self_s) in rec["spans"].items():
            c, s = spans.get(name, (0, 0.0))
            spans[name] = (c + calls, s + self_s)
        for name, value in rec["counters"].items():
            counters[name] = counters.get(name, 0) + value
    out = {}
    for metric, names in SPAN_METRICS:
        out[f"{metric}.calls"] = sum(spans.get(n, (0, 0.0))[0] for n in names)
        out[f"{metric}.self_s"] = sum(spans.get(n, (0, 0.0))[1] for n in names)
    gb_calls = out["groebner.groebner_basis.calls"]
    memo_misses = counters.get("store.get", 0) + out["cache.get.calls"]
    out["groebner.basis_computed"] = counters.get("store.put", 0) + out["cache.put.calls"]
    out["groebner.memo_hit_ratio"] = (gb_calls - memo_misses) / gb_calls if gb_calls else 0.0
    candidates = counters.get("mingens.candidates", 0)
    out["groebner.mingens_kept_ratio"] = (counters.get("mingens.survivors", 0) / candidates
                                          if candidates else 0.0)
    for name in ("hits", "misses", "discarded"):
        out[f"cache.{name}"] = counters.get(f"cache.{name}", 0)
    out["cache.bytes_written"] = cache_bytes
    out["trace.untraced_s"] = wall_s - root
    return out


def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples
    above it; with fewer than eleven samples, the maximum (percentile 100)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(run):
    """Time metrics in reference seconds, and the measured medians beside them."""
    walls = [p["wall_ref_s"] for p in run.passes]
    value, pct = tail(walls)
    fill_key = "fill_ref_s" if "fill_ref_s" in run.passes[0] else "wall_ref_s"
    metrics = {
        "setup_s": median_of(run.setup, "setup_ref_s"),
        "wall_s": statistics.median(walls),
        "wall_s_tail": value,
        "fill_s": median_of(run.passes, fill_key),
        "cpu_s": median_of(run.passes, "cpu_ref_s"),
        "peak_rss_mb": median_of(run.passes, "rss_mb"),
    }
    measured = {"setup_s": median_of(run.setup, "setup_s"),
                "wall_s": median_of(run.passes, "wall_s"),
                "cpu_s": median_of(run.passes, "cpu_s")}
    return metrics, {"wall_s_tail_percentile": pct, "wall_s_samples": len(walls),
                     "measured": measured}


def per_layer(run):
    """Medians over traced passes.  Span times include the speed sampler's
    handler, so they are scaled to reference speed by the pass's reference
    time over its time with the handler."""
    out = {}
    for name in run.traced[0]["layers"]:
        if name.endswith("_s"):
            out[name] = statistics.median(
                t["layers"][name] * t["wall_ref_s"] / (t["wall_s"] + t["handler_s"])
                for t in run.traced)
        else:  # counts and ratios: a value one traced pass measured
            out[name] = statistics.median_low(t["layers"][name] for t in run.traced)
    traced = median_of(run.traced, "wall_ref_s")
    out["trace.overhead_ratio"] = traced / median_of(run.passes, "wall_ref_s") - 1.0
    return out


# ---------------------------------------------------------------------------
# one run

def measure(workload, seed, seconds, trace):
    """Set-up samples, then passes until the next one would overrun."""
    run = Run(workload, seed)
    started = time.monotonic()
    one_pass = cli_cycle if workload == "cli-cache" else library_pass
    run.setup = setup_samples(run)
    longest = 0.0
    traced_next = False
    while not run.failures:
        longest = max(longest, one_pass(run, traced_next))
        traced_next = trace and not traced_next
        enough = run.passes and (run.traced or not trace)
        if enough and time.monotonic() - started + longest > seconds:
            break
    shutil.rmtree(CACHE_DIR, ignore_errors=True)
    return run


def environment():
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def report(run, trace, env_before):
    correct = not run.failures and run.attempted > 0
    record = {"workload": run.workload, "seed": run.seed, "trace": trace,
              "environment": {"before": env_before, "after": environment()},
              "attempted": run.attempted, "failures": run.failures,
              "setup_samples": run.setup, "passes": run.passes, "traced": run.traced}
    metrics = {}
    if correct:
        e2e, tail_info = end_to_end(run)
        record.update(end_to_end=e2e, **tail_info)
        print(f"# {run.workload} seed {run.seed}: {len(run.passes)} untraced pass(es), "
              f"{len(run.traced)} traced; python {env_before['python']}, "
              f"nproc {env_before['nproc']}, load {env_before['loadavg']}")
        print(f"{run.workload:10s} fail_ratio  {len(run.failures) / run.attempted:.6f} ratio"
              f" ({len(run.failures)} of {run.attempted} jobs)")
        for name, unit in END_TO_END:
            extra = ""
            if name in tail_info["measured"]:
                extra = f" (measured {tail_info['measured'][name]:.6f} s)"
            if name == "wall_s_tail":
                extra = (f" (p{tail_info['wall_s_tail_percentile']:.1f} of "
                         f"{tail_info['wall_s_samples']} passes)")
            print(f"{run.workload:10s} {name:11s} {e2e[name]:.6f} {unit}{extra}")
        if trace:
            layers = per_layer(run)
            record["per_layer"] = layers
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
            for name, value in layers.items():
                print(f"{run.workload:10s} {name} {value:.6g} {layer_unit(name)}")
        else:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        for failure in run.failures:
            print(f"FAIL {run.workload} {failure}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{run.workload}-seed{run.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"correct": correct, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print("perfbench: run from a frobtool checkout; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        env = environment()
        result = report(measure(name, args.seed, args.seconds, bool(args.trace)),
                        bool(args.trace), env)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if len(names) == 1:
            summary["metrics"] = result["metrics"]
        else:
            summary["metrics"].update(
                {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
