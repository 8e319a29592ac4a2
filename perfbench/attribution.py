"""Per-layer host-time attribution from outside the program.

A layer is a ``repro.<pkg>`` package (``repro.messengers.mcl`` is split
out of ``messengers`` as ``mcl``; top-level modules such as
``repro/facade.py`` are layers of their own).  The traced run profiles
one benchmark run with :mod:`cProfile` and folds the per-function
statistics into layers:

* a function defined under ``repro/<pkg>/`` is charged to ``<pkg>``;
* numpy functions are charged to ``apps`` (only the applications call
  numpy);
* C builtins and other library functions (``heapq``, ``copy``,
  ``hashlib``, ...) are charged to the layer that called them, split
  over their callers in proportion to the time each caller spent in
  them, and followed up the call graph until a layer is reached;
* whatever reaches no layer (the benchmark's own harness code) is
  ``unattributed``.

The profiler's clock is its default fast counter; the layer totals are
scaled so that they sum to the traced run's CPU seconds.

Every call from a function of one layer into a function of another is
a *boundary crossing*.  Crossings are aggregated in memory per
``caller -> callee`` layer edge (count, total time, self time) and
written out when the benchmark ends.
"""

from __future__ import annotations

import os

UNATTRIBUTED = "unattributed"
#: Pseudo-layer of the benchmark's own code (the workload harness).
HARNESS = "harness"


class Classifier:
    """Maps a profiler function key ``(file, line, name)`` to a layer."""

    def __init__(self, src_root: str, bench_root: str):
        self.repro = os.path.join(os.path.realpath(src_root), "repro") + os.sep
        self.bench = os.path.realpath(bench_root) + os.sep
        self._cache: dict = {}

    def layer(self, key) -> str | None:
        """The layer a function belongs to, or None for library code."""
        filename, _line, name = key
        if filename == "~":  # a C builtin: numpy's own go to apps
            return "apps" if "numpy" in name else None
        try:
            return self._cache[filename]
        except KeyError:
            pass
        real = os.path.realpath(filename)
        if real.startswith(self.repro):
            parts = real[len(self.repro):].split(os.sep)
            if parts[:2] == ["messengers", "mcl"]:
                layer = "mcl"
            else:
                layer = parts[0].removesuffix(".py")
        elif real.startswith(self.bench):
            layer = HARNESS
        elif f"{os.sep}numpy{os.sep}" in real:
            layer = "apps"
        else:
            layer = None
        self._cache[filename] = layer
        return layer


def attribute(stats: dict, classifier: Classifier) -> dict:
    """Fold ``pstats.Stats(...).stats`` into layers.

    Returns ``{"self": {layer: seconds}, "edges": {(caller, callee):
    [count, total_s, self_s]}}`` in the profiler's clock.
    """
    layers = {key: classifier.layer(key) for key in stats}
    resolved: dict = {}
    in_progress: set = set()

    def resolve(key) -> dict:
        """Fractions of ``key``'s self time per layer."""
        layer = layers.get(key)
        if layer is not None:
            return {layer: 1.0}
        done = resolved.get(key)
        if done is not None:
            return done
        if key in in_progress or key not in stats:
            return {UNATTRIBUTED: 1.0}
        in_progress.add(key)
        callers = stats[key][4]
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values())
        shares: dict = {}
        if total > 0:
            for caller, weight in weights.items():
                for name, frac in resolve(caller).items():
                    shares[name] = shares.get(name, 0.0) + \
                        frac * weight / total
        else:
            shares = {UNATTRIBUTED: 1.0}
        in_progress.discard(key)
        resolved[key] = shares
        return shares

    self_time: dict = {}
    edges: dict = {}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        for name, frac in resolve(key).items():
            self_time[name] = self_time.get(name, 0.0) + tt * frac
        callee = layers[key]
        if callee is None:
            continue
        for caller_key, (_c, c_nc, c_tt, c_ct) in callers.items():
            caller = layers.get(caller_key)
            if caller is None:
                shares = resolve(caller_key)
                caller = max(shares, key=shares.get)
            if caller == callee:
                continue
            edge = edges.setdefault((caller, callee), [0, 0.0, 0.0])
            edge[0] += c_nc
            edge[1] += c_ct
            edge[2] += c_tt
    self_time[UNATTRIBUTED] = (
        self_time.get(UNATTRIBUTED, 0.0) + self_time.pop(HARNESS, 0.0)
    )
    return {"self": self_time, "edges": edges}


def calls_of(stats: dict, suffix: str, name: str) -> int:
    """Total calls of the function ``name`` defined in a file ending
    with ``suffix`` (e.g. ``des/core.py``)."""
    return sum(
        value[1] for (filename, _line, fn), value in stats.items()
        if fn == name and filename.replace(os.sep, "/").endswith(suffix)
    )


def calls_from_layer(
    stats: dict, classifier: Classifier, suffix: str, name: str, layer: str
) -> int:
    """Calls of ``suffix:name`` made directly by functions of ``layer``."""
    total = 0
    for (filename, _line, fn), value in stats.items():
        if fn != name or not filename.replace(os.sep, "/").endswith(suffix):
            continue
        for caller, (_c, nc, _tt, _ct) in value[4].items():
            if classifier.layer(caller) == layer:
                total += nc
    return total
