"""Outside-in per-layer tracing of one `kv-calc` command.

`Tracer.install()` replaces every public module-level function and
`lru_cache` of each `kvcalc` layer module with a wrapper; the wrapper keeps
`cache_info` and `cache_clear` reachable.  Modules call each other as
`rootdata.f(...)` and import only classes and constants by name, so every
cross-layer call goes through a wrapper.  A wrapper opens a span only when
its caller is in another layer; calls within a layer run unwrapped apart from
the work counters.  Methods of classes are not wrapped, so their time counts
to the layer that calls them.

Spans are aggregated in memory per layer and returned by `stats()` when the
command ends.  A layer's self time is the time of its spans minus the time of
the spans they open in other layers.  `Tracer.run` also times the whole
command with a clock of its own, outside every span, so that the sum of the
self times can be checked against it.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "rootdata", "linalg", "weyl", "multiplicity", "conjugacy", "kv",
          "strata", "vinberg")

# Work counters, each fed by one wrapped function (see `_hooks`).
WORK = ("weyl.elements", "weyl.coset_reps", "multiplicity.weights",
        "multiplicity.dominant_below", "vinberg.strata", "strata.member_tests",
        "rootdata.predicate_calls")


class Tracer:
    def __init__(self):
        self.stack = ["bench"]   # layer of each open span; the caller is outside kvcalc
        self.inner = [0.0]       # time of child spans, per open span
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)   # spans opened, per callee layer
        self.run_s = 0.0
        self.work = dict.fromkeys(WORK, 0)
        self.seen = {}           # per counter, the arguments already counted
        self.caches = {}         # "layer.function" -> lru_cache wrapper

    def install(self) -> None:
        hooks = self._hooks()
        for layer in LAYERS:
            mod = importlib.import_module(f"kvcalc.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                cached = hasattr(obj, "cache_info")
                if not (cached or inspect.isfunction(obj)):
                    continue
                qualname = f"{layer}.{name}"
                if cached:
                    self.caches[qualname] = obj
                setattr(mod, name, self._wrap(layer, obj, hooks.get(qualname)))

    def _wrap(self, layer, fn, hook):
        stack, inner, self_s, calls = self.stack, self.inner, self.self_s, self.calls
        perf = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            if hook is not None and cache_info is not None:
                misses = cache_info().misses
            if stack[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                stack.append(layer)
                inner.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    self_s[layer] += dt - inner.pop()
                    inner[-1] += dt
                    calls[layer] += 1
            if hook is not None:
                hook(args, result, cache_info is None or cache_info().misses != misses)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        if cache_info is not None:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _hooks(self):
        work, seen = self.work, self.seen

        def size_on_miss(counter):
            def hook(args, result, missed):
                if missed:
                    work[counter] += len(result)
            return hook

        def size_once_per(counter, key):
            # Counted once per distinct argument, so that computing the same
            # answer twice in one command does not change the count.
            done = seen.setdefault(counter, set())

            def hook(args, result, missed):
                k = key(args)
                if k not in done:
                    done.add(k)
                    work[counter] += len(result)
            return hook

        def count(counter):
            def hook(args, result, missed):
                work[counter] += 1
            return hook

        predicate = count("rootdata.predicate_calls")
        return {
            "weyl.enumerate_group": size_on_miss("weyl.elements"),
            "weyl.min_double_coset_reps": size_once_per(
                "weyl.coset_reps", lambda a: (a[0], frozenset(a[1]), frozenset(a[2]))),
            "multiplicity.weight_system": size_on_miss("multiplicity.weights"),
            "multiplicity.dominant_below": size_on_miss("multiplicity.dominant_below"),
            "vinberg.nilcone_strata": size_once_per("vinberg.strata", lambda a: a[0]),
            "strata.polytope_member": count("strata.member_tests"),
            "rootdata.is_dominant": predicate,
            "rootdata.is_integral": predicate,
            "rootdata.leq_q": predicate,
        }

    def run(self, fn, *args):
        """Call `fn(*args)` from outside kvcalc, timing the call with a clock
        of its own as well as by the spans."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.run_s += time.perf_counter() - t0

    def stats(self) -> dict:
        return {
            "run_s": self.run_s,
            "command_s": self.inner[0],   # time of the outermost spans
            "self_s": self.self_s,
            "calls": self.calls,
            "work": self.work,
            "caches": {name: list(fn.cache_info()[:2]) for name, fn in self.caches.items()},
        }
