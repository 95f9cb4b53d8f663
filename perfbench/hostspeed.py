"""Host speed, read from a fixed reference task run next to every timed op.

The benchmark runs on shared virtual machines whose speed changes by a
third within a second and drifts by more over minutes, under load from
other tenants; CPU time rises with wall time, so process time does not
help.  A short reference task that does not touch ``ncmink`` slows down
with the op it runs next to.

How much it slows down depends on the kind of work.  Over one-minute
probes on a 2-vCPU shared virtual machine, the summed time of a fixed list
of ops was regressed on the mean time of the reference tasks run between
them, on log scales.  A slope of 1 means the task slows down exactly as
the ops do.  A task of small numpy calls on 1024-element arrays plus a
plain integer loop had slopes of 1.2 to 1.4, so dividing by it left about
0.1 of quartile spread in the op time.  The task below mixes the two kinds
of work the ops do, building and sorting small Python objects and tensor
Gauss-Legendre rules over 64 panels at once.  On the ``observables`` ops
its slope was 1.02, and the spread of the op time fell from 0.54 to 0.03;
on the ``state`` ops the slope was 0.93 to 1.12, and the spread fell from
0.25 to 0.09; on the ``oracle`` ops, with one Monte Carlo worker, the
slope was 0.83 and the spread fell from 0.15 to 0.05.

``scaled(seconds, ref)`` converts a wall time measured next to reference
readings ``ref`` into *reference seconds*: the time it would have taken on
a host where one reference task takes exactly ``NOMINAL_S``.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Reference-task duration that defines a reference second.
NOMINAL_S = 1e-3

_NODES = {n: np.polynomial.legendre.leggauss(n) for n in (7, 15)}
_EDGES = np.linspace(-3.0, 3.0, 9)


def _objects():
    """Tuple keys into a dict, then a keyed sort: interpreter and allocator work."""
    table = {}
    for i in range(300):
        key = (i % 17, 0.5 * i, (7 * i) % 11)
        table[key] = table.get(key, 0.0) + math.exp(-1e-3 * i)
    items = sorted(table.items(), key=lambda kv: (kv[0][2], kv[0][1]))
    return sum(value for _, value in items)


def _panels(n):
    """A Gauss-log integrand on 64 panels with an n-point tensor rule."""
    x, w = _NODES[n]
    uu0, vv0 = np.meshgrid(_EDGES[:-1], _EDGES[:-1], indexing="ij")
    uu1, vv1 = np.meshgrid(_EDGES[1:], _EDGES[1:], indexing="ij")
    u0, u1 = uu0.ravel() + 0.01, uu1.ravel() + 0.01
    v0, v1 = vv0.ravel() + 0.02, vv1.ravel() + 0.02
    uu = (u0[:, None] + (u1 - u0)[:, None] * x)[:, :, None]
    vv = (v0[:, None] + (v1 - v0)[:, None] * x)[:, None, :]
    vals = np.exp(-0.7 * (uu * uu + vv * vv)) * np.log(np.abs(uu * vv) + 1e-300)
    return float(((u1 - u0) * (v1 - v0) * np.einsum("mij,i,j->m", vals, w, w)).sum())


def reference_task():
    """About one millisecond of fixed work; returns its wall time in seconds."""
    t0 = perf_counter()
    acc = _objects() + _objects() + _panels(15) - _panels(7)
    elapsed = perf_counter() - t0
    if math.isnan(acc):  # never true; keeps the work observable
        raise AssertionError
    return elapsed


def scaled(seconds, ref):
    """`seconds` in reference seconds, given reference-task times taken around it."""
    return seconds * NOMINAL_S / (sum(ref) / len(ref))
