"""Self-tests of the benchmark's oracles against values the paper fixes.

Run with ``python3 -m pytest bench/test_oracles.py`` from the repository
root.  Tolerances follow tests/test_acceptance.py: 5e-3 for closed-form
values, 2e-2 for optimisation-defined ones.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as o  # noqa: E402
import tracing  # noqa: E402

CLOSED = 5e-3
OPT = 2e-2
PAIR = [{1}, {2}]


@pytest.mark.parametrize("p, want", [(o.XOR, 1.0), (o.AND, 0.270), (o.COPY, 0.0)])
def test_ci_synergy_matches_paper(p, want):
    assert abs(o.ci_synergy(p, PAIR) - want) <= CLOSED


def test_ci_union_within_its_bounds():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(24)).reshape(2, 3, 2, 2)
    srcs = [{1, 2}, {2, 3}]
    u = o.ci_union(p, srcs)
    assert max(o.mutual_information(p, s, [0]) for s in srcs) - o.TOL <= u
    assert u <= o.mutual_information(p, {1, 2, 3}, [0]) + o.TOL


def test_admissible_partitions_counts():
    # Bell(4) = 15 with one covering source; singletons admit only one
    assert len(o.admissible_partitions({1, 2, 3, 4}, [{1, 2, 3, 4}])) == 15
    assert len(o.admissible_partitions({1, 2, 3, 4}, [{1}, {2}, {3}, {4}])) == 1
    # partitions of 1..6 that never join 1 and 6: Bell(6) - Bell(5)
    assert len(o.admissible_partitions(range(1, 7), [range(1, 6), range(2, 7)])) == 203 - 52


def test_normalize_drops_subsets_and_functions():
    p = o.AND
    assert o.normalize(p, [{1}, {1, 2}, {2}]) == [frozenset({1, 2})]
    dup = np.zeros((2, 2, 2, 2))
    for t, y1, y2 in o.cells((2, 2, 2)):
        dup[t, y1, y2, y1] = o.AND[t, y1, y2]
    # predictor 3 copies predictor 1, so the later one goes
    assert o.normalize(dup, [{1}, {2}, {3}]) == [frozenset({1}), frozenset({2})]


def test_and_degradation_redundancy():
    # Q = Y1's channel is below both sources and reaches I(Y1;T) = 0.311
    w = o.marginal(o.AND, [0])
    k1, k2 = o.channel(o.AND, [1]), o.channel(o.AND, [2])
    assert o.garbling_residual(k1, k1) <= 1e-9
    assert o.garbling_residual(k2, k1) <= 1e-9
    assert abs(o.channel_information(w, k1) - 0.311) <= OPT
    assert o.channel_information(w, k1) <= min(
        o.mutual_information(o.AND, [i], [0]) for i in (1, 2)) + o.TOL


def test_boom_degradation_redundancy():
    w = o.marginal(o.BOOM, [0])
    k1, k2 = o.channel(o.BOOM, [1]), o.channel(o.BOOM, [2])
    q = o.BOOM_Q
    assert o.garbling_residual(k1, q) <= 1e-9
    assert o.garbling_residual(k2, q) <= 1e-9
    assert abs(o.channel_information(w, q) - 0.322) <= OPT
    # the target itself is not below Y1: the check must reject it
    assert o.garbling_residual(k1, np.eye(3)) > 0.1


def test_measure_bounds_pin_closed_forms():
    lo, hi = o.measure_bounds(o.XOR, "s_wms")
    assert lo == hi and abs(lo - 1.0) <= 1e-12
    lo, hi = o.measure_bounds(o.AND, "i_total")
    assert abs(lo - 0.811278) <= 1e-6


def test_family_pmfs_are_normalised():
    for name in ("ADAPTED_XOR", "ADAPTED_XOR_V2", "ADAPTED_REDUCED_OR"):
        for r in (0.0, 0.3, 1.0):
            p = o.family(name, r)
            assert abs(p.sum() - 1.0) <= 1e-12 and p.min() >= 0.0


def test_benchmark_json_names_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import run

    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
