"""One fresh interpreter of the benchmark: a set-up sample, a timed pass,
or one CLI invocation.  `run.py` starts it; it is not run by hand.

    child.py setup --workload W --seed N --out FILE
    child.py pass  --workload W --seed N --out FILE [--trace --spans FILE]
    child.py cli   --out FILE [--trace --spans FILE] -- CLI-ARGS...

The result goes to --out as one JSON object.  `ready` is the
`time.monotonic()` reading when set-up ended; the parent subtracts its own
reading taken just before starting this process.  A pass times each job
with `time.perf_counter()`, while the `speed.Sampler` measures the machine's
speed during the job; each job's seconds are also given at reference speed
(`*_ref_s`).  A CLI process reports the sampler's slowdown and the seconds
its handler took, for the parent to correct the process's wall time.
"""

import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class RecordingStore:
    """A persistent-cache stand-in for traced library passes: every lookup
    misses and every store is only counted.  `groebner_basis` consults the
    store exactly on a memo miss and stores exactly what Buchberger computed."""

    def __init__(self):
        self.gets = 0
        self.puts = 0

    def get(self, key, ring):
        self.gets += 1
        return None

    def put(self, key, ring, basis):
        self.puts += 1


def _layers(tracer) -> dict:
    counters = dict(tracer.counters)
    for name in ("hits", "misses", "discarded"):
        counters[f"cache.{name}"] = sum(getattr(c, name) for c in tracer.caches)
    return {"spans": {k: list(v) for k, v in tracer.self_times().items()},
            "root_s": tracer.root_seconds(),
            "counters": counters}


def _write_spans(tracer, path):
    names = sorted({row[0] for row in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": names,
                   "columns": ["name", "start_s", "end_s", "parent"],
                   "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans]},
                  handle, separators=(",", ":"))


def _args(argv):
    # by hand: importing argparse would count in the measured set-up
    mode, rest = argv[0], argv[1:]
    opts = {"trace": False, "seed": "0", "cli": []}
    if "--" in rest:
        cut = rest.index("--")
        rest, opts["cli"] = rest[:cut], rest[cut + 1:]
    i = 0
    while i < len(rest):
        flag = rest[i]
        if flag == "--trace":
            opts["trace"] = True
            i += 1
        else:
            opts[flag.lstrip("-")] = rest[i + 1]
            i += 2
    return mode, opts


def _install_tracer(opts):
    if not opts["trace"]:
        return None
    from tracer import install
    return install()


def run_cli(opts) -> dict:
    from speed import Sampler

    sampler = Sampler()
    sampler.start()
    sampler.sample(4)  # a warm CLI process can end before the first tick
    from frobtool import cli

    tracer = _install_tracer(opts)
    if tracer is not None:
        from tracer import verify
        verify(tracer)
    code = cli.main(opts["cli"])
    sys.stdout.flush()
    sampler.sample(4)
    sampler.stop()
    out = {"code": code, "spent_s": sampler.spent, "slowdown": sampler.slowdown()}
    if tracer is not None:
        out["layers"] = _layers(tracer)
        _write_spans(tracer, opts["spans"])
    return out


def run_pass(opts, workload: str, seed: int) -> dict:
    tracer = _install_tracer(opts)  # before the imports below bind frobtool names
    from frobtool.groebner import set_persistent_cache
    from speed import Sampler
    from workloads import jobs, load_reference

    job_list = jobs(workload, seed)
    ready = time.monotonic()

    store = None
    if tracer is not None:
        from tracer import verify
        verify(tracer, sys.modules["workloads"])
        store = RecordingStore()
        set_persistent_cache(store)
        tracer.reset()
    sampler = Sampler()
    sampler.start()
    timed = []
    for job in job_list:
        mark = sampler.mark()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result, error = job.run(), None
        except Exception as exc:  # any exception is a failed job, reported below
            result, error = None, f"{type(exc).__name__}: {exc}"
        handler = sampler.spent_since(mark)
        seconds = time.perf_counter() - t0 - handler
        cpu = _cpu_seconds() - cpu0 - handler
        timed.append({"job": job, "result": result, "error": error, "seconds": seconds,
                      "cpu_s": cpu, "handler_s": handler, "slowdown": sampler.slowdown(mark)})
    sampler.stop()
    # the peak so far: the output checks below (a Groebner computation at
    # seeds other than 0) must not set it
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"ready": ready,
           "rss_mb": peak_kb / 1024.0,
           "wall_s": sum(t["seconds"] for t in timed),
           "cpu_s": sum(t["cpu_s"] for t in timed),
           "handler_s": sum(t["handler_s"] for t in timed),
           "wall_ref_s": sum(t["seconds"] / t["slowdown"] for t in timed),
           "cpu_ref_s": sum(t["cpu_s"] / t["slowdown"] for t in timed)}
    if tracer is not None:
        layers = _layers(tracer)
        set_persistent_cache(None)
        layers["counters"]["store.get"] = store.gets
        layers["counters"]["store.put"] = store.puts
        out["layers"] = layers
        _write_spans(tracer, opts["spans"])

    reference = load_reference()
    out["jobs"] = []
    for t in timed:
        error = t["error"]
        if error is None:
            try:
                error = t["job"].check(t["result"], reference)
            except Exception as exc:  # a crashing check is a failed job too
                error = f"check raised {type(exc).__name__}: {exc}"
        out["jobs"].append({"name": t["job"].name, "seconds": t["seconds"],
                            "slowdown": t["slowdown"], "error": error})
    return out


def main(argv) -> int:
    mode, opts = _args(argv)
    if mode == "cli":
        out = run_cli(opts)
    else:
        workload, seed = opts["workload"], int(opts["seed"])
        if mode == "setup":
            if workload == "cli-cache":
                import frobtool.cli  # noqa: F401  (what every CLI process imports)
            else:
                from workloads import jobs
                jobs(workload, seed)
            out = {"ready": time.monotonic()}
        else:
            out = run_pass(opts, workload, seed)
    with open(opts["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
