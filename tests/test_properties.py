"""Randomized invariants, generated with hypothesis.

Weights are drawn as small integers and normalized, which keeps the
distributions exactly representable and the shrunk counterexamples
readable. Example counts are kept modest because several properties
call optimizers.
"""

import itertools
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from cipid import (
    ArgumentError,
    DomainError,
    JointDistribution,
    SourceCollection,
    VariableSet,
    ci_bivariate_decomposition,
    build_q,
    ci_synergy,
    ci_union_information,
    enumerate_ci_partitions,
    entropy,
    kl_divergence,
    load_distribution,
    marginalize,
    mutual_information,
    normalize_sources,
    save_distribution,
)
from cipid import conditional_mutual_information
from cipid.axioms import run_axiom_suite


@st.composite
def joints(draw, min_vars=2, max_vars=3, max_arity=3):
    n_vars = draw(st.integers(min_vars, max_vars))
    arities = [draw(st.integers(2, max_arity)) for _ in range(n_vars)]
    outcomes = list(itertools.product(*[[str(s) for s in range(a)] for a in arities]))
    weights = draw(
        st.lists(st.integers(0, 8), min_size=len(outcomes), max_size=len(outcomes))
        .filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    names = tuple(f"V{i}" for i in range(n_vars))
    alphabets = tuple(tuple(str(s) for s in range(a)) for a in arities)
    pmf = {o: w / total for o, w in zip(outcomes, weights) if w}
    return JointDistribution(names, pmf, alphabets=alphabets)


def target_and_rest(dist):
    target = VariableSet.of(0)
    rest = tuple(range(1, dist.n_vars))
    return target, SourceCollection.singletons(rest)


@given(joints())
@settings(max_examples=60, deadline=None)
def test_entropy_bounds(d):
    h = entropy(d, VariableSet(tuple(range(d.n_vars))))
    cap = sum(math.log2(len(a)) for a in d.alphabets)
    assert -1e-12 <= h <= cap + 1e-9


@given(joints())
@settings(max_examples=60, deadline=None)
def test_mutual_information_symmetry_and_bounds(d):
    a, b = VariableSet.of(0), VariableSet(tuple(range(1, d.n_vars)))
    mi = mutual_information(d, a, b)
    assert mi >= -1e-12
    assert abs(mi - mutual_information(d, b, a)) <= 1e-12
    assert mi <= min(entropy(d, a), entropy(d, b)) + 1e-9


@given(joints(min_vars=3, max_vars=3))
@settings(max_examples=40, deadline=None)
def test_mi_chain_rule(d):
    t = VariableSet.of(0)
    y1, y2 = VariableSet.of(1), VariableSet.of(2)
    joint = mutual_information(d, y1.union(y2), t)
    chained = mutual_information(d, y1, t) + conditional_mutual_information(d, y2, t, y1)
    assert abs(joint - chained) <= 1e-9


@given(joints())
@settings(max_examples=40, deadline=None)
def test_union_information_bracket(d):
    target, coll = target_and_rest(d)
    cup = ci_union_information(d, target, coll)
    best_single = max(
        mutual_information(d, s.members, target) for s in coll.sources
    )
    total = mutual_information(d, VariableSet(tuple(range(1, d.n_vars))), target)
    assert best_single - 1e-9 <= cup <= total + 1e-9


@given(joints())
@settings(max_examples=40, deadline=None)
def test_synergy_bracket(d):
    target, coll = target_and_rest(d)
    s = ci_synergy(d, target, coll)
    total = mutual_information(d, VariableSet(tuple(range(1, d.n_vars))), target)
    assert -1e-9 <= s <= total + 1e-9


@given(joints(min_vars=3, max_vars=3))
@settings(max_examples=40, deadline=None)
def test_bivariate_atoms_are_nonnegative_and_sum(d):
    res = ci_bivariate_decomposition(d, VariableSet.of(0))
    total = mutual_information(d, VariableSet((1, 2)), VariableSet.of(0))
    atoms = [res[k] for k in ("R", "U1", "U2", "S")]
    assert min(atoms) >= -1e-9
    assert abs(sum(atoms) - total) <= 1e-9
    assert abs(res["I_total"] - total) <= 1e-9
    assert abs(res["I_cup"] - (total - res["S"])) <= 1e-9


@given(
    st.lists(st.integers(0, 8), min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
    st.lists(st.integers(0, 8), min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
)
@settings(max_examples=60, deadline=None)
def test_kl_nonnegative(wp, wq):
    p = [w / sum(wp) for w in wp]
    q = [w / sum(wq) for w in wq]
    try:
        assert kl_divergence(p, q) >= -1e-12
    except DomainError:
        # q missing mass where p has some is a legitimate refusal
        pass


@given(joints(min_vars=3, max_vars=4, max_arity=2))
@settings(max_examples=40, deadline=None)
def test_normalize_is_idempotent(d):
    coll = SourceCollection.singletons(tuple(range(1, d.n_vars)))
    once = normalize_sources(d, coll)
    twice = normalize_sources(d, once)
    assert once == twice
    assert len(once.sources) >= 1


@given(joints())
@settings(max_examples=40, deadline=None)
def test_save_load_round_trip(d):
    # The file format records support rows only, so alphabet symbols
    # that never occur cannot survive; compare with inferred alphabets.
    observed = JointDistribution(d.var_names, dict(d.pmf))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.dist")
        save_distribution(d, path)
        assert load_distribution(path) == observed


@given(joints(min_vars=3, max_vars=3))
@settings(max_examples=30, deadline=None)
def test_build_q_preserves_block_joints(d):
    target = VariableSet.of(0)
    coll = SourceCollection.singletons((1, 2))
    for part in enumerate_ci_partitions(coll):
        q = build_q(d, target, part)
        assert abs(math.fsum(q.pmf.values()) - 1.0) <= 1e-9
        for block in part.blocks:
            keep = block.union(target)
            got, want = marginalize(q, keep), marginalize(d, keep)
            for outcome, p_want in want.pmf.items():
                assert abs(got.prob(outcome) - p_want) <= 1e-9


def test_axiom_suite_rejects_a_negative_seed():
    with pytest.raises(ArgumentError, match="seed must be non-negative, got -1"):
        run_axiom_suite(trials=1, seed=-1)
