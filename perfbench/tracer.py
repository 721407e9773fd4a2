"""Span tracing of frobtool's layers from outside the package.

`install()` replaces every traced function of the package with a wrapper
that records a span (name, start, end, parent) in memory, in every module
namespace that binds the function.  `verify()`, called once the process has
done its imports, then walks every loaded frobtool module and the classes,
containers and closures it binds, and fails if any traced original is still
reachable there.  Untraced processes never import this module,
so their passes carry no wrappers.

What is traced:

- every public function defined in one of the layer modules, except the
  per-term monomial primitives of `polyring` (`mono_lcm` and friends run
  millions of times per pass; wrapping them would measure the tracer);
- every public method of `Ideal`, `FracMonomialModule` and `BasisCache`;
- `Polynomial.__str__`, the one `Polynomial` method with a layer metric
  (it builds cache keys and prints reports; the arithmetic operators are
  per-term primitives like the `mono_*` functions).
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter

LAYERS = ("polyring", "parsing", "groebner", "monomials", "frobenius",
          "gallery", "cache", "cli", "inputfile", "report")

CLASS_METHODS = {
    ("groebner", "Ideal"): None,  # None: every public method
    ("monomials", "FracMonomialModule"): None,
    ("cache", "BasisCache"): None,
    ("polyring", "Polynomial"): ("__str__",),
}

PRIMITIVES = {"polyring": {"mono_mul", "mono_div", "mono_divides", "mono_gcd", "mono_lcm"}}

_MISSING = object()


class Tracer:
    """Spans and counters of one process; `spans` rows are [name, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = {}
        self.caches = []  # BasisCache instances seen, read for their counters
        self.originals = {}  # id -> the unwrapped function, filled by install()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.counters.clear()

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        after = AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            row = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        traced.__span__ = name  # marks a wrapper; verify() skips its closure
        return traced

    def self_times(self):
        """Per span name: (calls, self seconds), where self time is the span's
        duration minus the time covered by its direct child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, covered):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start - inner))
        return out

    def root_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _after_mingens(tracer, args, result):
    gens = args[0]
    if hasattr(gens, "__len__"):
        tracer.count("mingens.candidates", len(gens))
    tracer.count("mingens.survivors", len(result))


def _after_cache_access(tracer, args, result):
    cache = args[0]
    if not any(cache is seen for seen in tracer.caches):
        tracer.caches.append(cache)


AFTER = {
    "groebner.minimal_generators_mod": _after_mingens,
    "cache.BasisCache.get": _after_cache_access,
    "cache.BasisCache.put": _after_cache_access,
}


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"frobtool.{layer}")
        skip = PRIMITIVES.get(layer, set())
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__ and attr not in skip):
                out.append((f"{layer}.{attr}", module, attr, value))
    for (layer, cls_name), names in CLASS_METHODS.items():
        cls = getattr(importlib.import_module(f"frobtool.{layer}"), cls_name)
        for attr, value in vars(cls).items():
            if not isinstance(value, types.FunctionType):
                continue
            if names is None and attr.startswith("_"):
                continue
            if names is not None and attr not in names:
                continue
            out.append((f"{layer}.{cls_name}.{attr}", cls, attr, value))
    return out


def _package_namespaces():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "frobtool" or n.startswith("frobtool.")) and m is not None]


def install() -> Tracer:
    """Wrap every traced callable in every frobtool namespace binding it."""
    tracer = Tracer()
    wrapped = {}  # id of the original -> wrapper (which keeps the original alive)
    for name, owner, attr, original in _targets():
        wrapped[id(original)] = tracer.wrap(name, original)
        setattr(owner, attr, wrapped[id(original)])
    for module in _package_namespaces():
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    tracer.originals = {key: fn.__wrapped__ for key, fn in wrapped.items()}
    return tracer


def _reachable(namespace, prefix):
    """(where, value) for every value bound in a namespace, in the classes it
    defines or holds, inside its containers, and in its functions' closures
    and defaults, one level deep each."""
    for attr, value in list(vars(namespace).items()):
        if attr.startswith("__"):
            continue
        where = f"{prefix}.{attr}"
        yield where, value
        if isinstance(value, (staticmethod, classmethod)):
            yield where, value.__func__
        elif isinstance(value, type) and value.__module__.startswith("frobtool"):
            for name, member in vars(value).items():
                yield f"{where}.{name}", getattr(member, "__func__", member)
        elif isinstance(value, dict):
            for key, item in value.items():
                yield f"{where}[{key!r}]", item
        elif isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                yield f"{where}[]", item
        elif isinstance(value, types.FunctionType) and not hasattr(value, "__span__"):
            for cell in value.__closure__ or ():
                try:
                    yield f"{where}.<closure>", cell.cell_contents
                except ValueError:  # an empty cell
                    pass
            for item in value.__defaults__ or ():
                yield f"{where}.<default>", item


def verify(tracer, *extra):
    """Fail if a traced original is still reachable, by identity, from any
    loaded frobtool module or from the extra namespaces given.  Call it after
    every import of the process, so it sees what those imports bound."""
    namespaces = [(m, m.__name__) for m in _package_namespaces()]
    namespaces += [(m, m.__name__) for m in extra]
    leftovers = sorted({where for namespace, prefix in namespaces
                        for where, value in _reachable(namespace, prefix)
                        if tracer.originals.get(id(value), _MISSING) is value})
    if leftovers:
        raise RuntimeError("unwrapped references remain: " + ", ".join(leftovers))
