"""Per-layer tracing of ncmink from outside the package.

The tracer swaps public functions of ``src/ncmink`` for wrappers that
record a span around each call: calls, wall time and self time (wall time
minus the time of the wrapped calls nested inside it).  A function is
replaced under every name any ``ncmink`` module holds it by, because the
modules import each other's functions by name.  Nothing inside the package
changes, and ``uninstall`` puts every original back.

Spans are aggregated per name in memory.  All wrapped functions run on the
calling thread: the Monte Carlo worker threads execute ``_mc_block``, which
is not wrapped, so a single span stack is enough.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from ncmink import geometry, integrate, state, testfn, weyl


@dataclass
class Span:
    """Aggregate of every span recorded under one name; `own` is self time."""

    calls: int = 0
    total: float = 0.0
    own: float = 0.0


class Tracer:
    """Records spans and counters while ``active``; a no-op pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.spans = defaultdict(Span)
        self.counts = defaultdict(float)
        self._children = []  # child time accumulated by each open span
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        self._children.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            child = self._children.pop()
            span = self.spans[name]
            span.calls += 1
            span.total += elapsed
            span.own += elapsed - child
            if self._children:
                self._children[-1] += elapsed
        return result, elapsed

    def _wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result, _ = self._record(name, fn, args, kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _wrap_pair(self, cached):
        """Split `_pair_cached` calls into lru-cache hits and misses."""

        def traced(*args):
            if not self.active:
                return cached(*args)
            hits = cached.cache_info().hits
            result, elapsed = self._record("integrate.pair", cached, args, {})
            hit = cached.cache_info().hits > hits
            self.counts["integrate.pair.hits" if hit else "integrate.pair.misses"] += 1
            self.counts["integrate.pair.hit_s" if hit else "integrate.pair.miss_s"] += elapsed
            return result

        return traced

    # -- observers of returned results --------------------------------------

    def _observe_reduce(self, args, result):
        _, _, evals, converged = result
        kind = args[0].name.lower()
        self.counts[f"integrate.reduce.calls.{kind}"] += 1
        self.counts[f"integrate.reduce.evals.{kind}"] += evals
        self.counts["integrate.reduce.nonconverged"] += not converged

    def _observe_quadrature(self, prefix):
        def observe(args, result):
            self.counts[f"{prefix}.evals"] += result.evals
            self.counts[f"{prefix}.nonconverged"] += not result.converged

        return observe

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        """Rebind `original` to `wrapper` in every ncmink module namespace."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "ncmink" or module_name.startswith("ncmink.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original))
        self._undo.append((cls, attr, original))

    def install(self):
        reduce_2d = integrate._reduce_2d
        self._replace(reduce_2d, self._wrap("integrate.reduce", reduce_2d, self._observe_reduce))
        self._replace(integrate._pair_cached, self._wrap_pair(integrate._pair_cached))
        for module, name, observe in (
            (integrate, "bilinear_form", None),
            (integrate, "mc_oracle", self._observe_quadrature("integrate.mc_oracle")),
            (integrate, "momentum_form", self._observe_quadrature("integrate.momentum_form")),
            (state, "sigma_indexed", None),
            (state, "log_minus_form", None),
            (state, "dm_bilinear", None),
            (state, "mu2", None),
            (state, "gram_check", None),
            (geometry, "distance", None),
            (geometry, "causal", None),
            (testfn, "project_psi", None),
        ):
            original = getattr(module, name)
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            self._replace(original, self._wrap(label, original, observe))
        self._replace_method(weyl.WeylCalculus, "mul", "weyl.mul")
        self._replace_method(weyl.WeylCalculus, "eval_omega", "weyl.eval_omega")
        self._replace_method(testfn.VectorSmearing, "__init__", "testfn.smearing")
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
