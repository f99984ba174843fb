"""Span tracing of cipid's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
cipid module that holds it, so calls made inside the package are seen
too; ``JointDistribution`` is traced through its ``__init__``.  Spans
(name, start, end, parent) are kept in memory and written out at the
end.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, function) pairs; the class entry is traced through __init__
TRACED = [
    ("distribution", "JointDistribution"),
    ("distribution", "channel_from"),
    ("sources", "normalize_sources"),
    ("sources", "enumerate_ci_partitions"),
    ("ci", "build_q"),
    ("ci", "ci_union_information"),
    ("simplex", "solve_lp"),
    ("channels", "degradation_leq"),
    ("channels", "degradation_redundancy"),
    ("channels", "vk_union_information"),
    ("classic", "maxent_ipf"),
    ("classic", "dep_synergy"),
    ("classic", "wb_pid"),
    ("classic", "delta_i_synergy"),
    ("classic", "imin_redundancy"),
    ("corpus", "load_distribution"),
    ("corpus", "canonical"),
    ("axioms", "run_axiom_suite"),
    ("cli", "main"),
]


def _support(args, kwargs, result):
    return len(args[0].pmf)


def _dropped(args, kwargs, result):
    return len(args[1]) - len(result)


def _partitions(args, kwargs, result):
    return len(result)


def _cells(args, kwargs, result):
    a = np.asarray(args[1] if len(args) > 1 else kwargs["a_eq"])
    return a.size


# counters beyond calls and self time: name -> (span name, fn(args, kwargs, result))
COUNTERS = {
    "distribution.JointDistribution.support": ("distribution.JointDistribution", _support),
    "sources.dropped": ("sources.normalize_sources", _dropped),
    "sources.partitions": ("sources.enumerate_ci_partitions", _partitions),
    "simplex.solve_lp.cells": ("simplex.solve_lp", _cells),
}

# every per-layer metric, in report order, with its unit
PER_LAYER = [
    ("distribution.JointDistribution.calls", "count"),
    ("distribution.JointDistribution.support", "count"),
    ("distribution.channel_from.calls", "count"),
    ("distribution.channel_from.self_s", "s"),
    ("sources.normalize_sources.calls", "count"),
    ("sources.normalize_sources.self_s", "s"),
    ("sources.dropped", "count"),
    ("sources.enumerate_ci_partitions.calls", "count"),
    ("sources.enumerate_ci_partitions.self_s", "s"),
    ("sources.partitions", "count"),
    ("ci.build_q.calls", "count"),
    ("ci.build_q.self_s", "s"),
    ("ci.ci_union_information.calls", "count"),
    ("ci.ci_union_information.self_s", "s"),
    ("simplex.solve_lp.calls", "count"),
    ("simplex.solve_lp.self_s", "s"),
    ("simplex.solve_lp.cells", "count"),
    ("channels.degradation_leq.calls", "count"),
    ("channels.degradation_leq.self_s", "s"),
    ("channels.degradation_redundancy.calls", "count"),
    ("channels.degradation_redundancy.self_s", "s"),
    ("channels.vk_union_information.calls", "count"),
    ("channels.vk_union_information.self_s", "s"),
    ("classic.maxent_ipf.calls", "count"),
    ("classic.maxent_ipf.self_s", "s"),
    ("classic.dep_synergy.self_s", "s"),
    ("classic.wb_pid.self_s", "s"),
    ("classic.delta_i_synergy.self_s", "s"),
    ("classic.imin_redundancy.self_s", "s"),
    ("corpus.load_distribution.calls", "count"),
    ("corpus.load_distribution.self_s", "s"),
    ("corpus.canonical.self_s", "s"),
    ("axioms.run_axiom_suite.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records spans while installed; ``report`` turns them into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            me = len(spans)
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(me)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "cipid" or n.startswith("cipid.")) and m is not None]
        for layer, fname in TRACED:
            name = f"{layer}.{fname}"
            counter = next(((c, f) for c, (s, f) in COUNTERS.items() if s == name), None)
            home = sys.modules[f"cipid.{layer}"]
            orig = getattr(home, fname)
            if isinstance(orig, type):
                init = orig.__init__
                self._undo.append((orig, "__init__", init))
                orig.__init__ = self._wrap(name, init, counter)
                continue
            wrapper = self._wrap(name, orig, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def report(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Per-round totals of every per-layer metric."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (idx, start, end, _) in enumerate(self.spans):
            calls[self.names[idx]] += 1
            busy[self.names[idx]] += (end - start) - child[k]
        values = {}
        for metric, _ in PER_LAYER:
            if metric == "trace.overhead_s":
                values[metric] = overhead_s
            elif metric.endswith(".calls"):
                values[metric] = calls[metric[: -len(".calls")]] / rounds
            elif metric.endswith(".self_s"):
                values[metric] = busy[metric[: -len(".self_s")]] / rounds
            else:
                values[metric] = self.counts[metric] / rounds
        return values

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
