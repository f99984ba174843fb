"""Union information and synergy from conditional-independence surrogates."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cipid import (
    ArgumentError,
    JointDistribution,
    UnsupportedError,
    VariableSet,
    build_q,
    canonical,
    ci_bivariate_decomposition,
    ci_synergy,
    ci_union_information,
    conditional_mutual_information,
    entropy,
    enumerate_ci_partitions,
    marginalize,
    mutual_information,
    normalize_sources,
)
from cipid.ci import PidResult
from cipid.distribution import _mi_lenient
from cipid.sources import CiPartition, SourceCollection, _partition_tree


def singleton_partition(dist, names):
    idx = [dist.index_of(n) for n in names]
    return CiPartition(tuple(VariableSet.of(i) for i in idx), tuple(range(len(idx))))


class TestBuildQ:
    def test_copy_is_fixed_point(self):
        """With the target pinning both predictors, the surrogate is p itself."""
        d = canonical("COPY")
        q = build_q(d, VariableSet.of(d.index_of("T")), singleton_partition(d, ("Y1", "Y2")))
        assert q == d

    def test_and_surrogate_information(self):
        d = canonical("AND")
        t = VariableSet.of(d.index_of("T"))
        q = build_q(d, t, singleton_partition(d, ("Y1", "Y2")))
        iq = mutual_information(q, q.varset("Y1", "Y2"), q.varset("T"))
        assert iq == pytest.approx(0.540852, abs=5e-4)

    def test_sums_to_one_and_keeps_block_conditionals(self):
        d = canonical("BOOM")
        t = VariableSet.of(d.index_of("T"))
        part = singleton_partition(d, ("Y1", "Y2"))
        q = build_q(d, t, part)
        assert math.fsum(q.pmf.values()) == pytest.approx(1.0, abs=1e-12)

        # each block keeps its joint with the target, hence its conditional
        for block in part.blocks:
            orig = marginalize(d, block.union(t)).pmf
            surr = marginalize(q, block.union(t)).pmf
            for key in set(orig) | set(surr):
                assert orig.get(key, 0.0) == pytest.approx(surr.get(key, 0.0), abs=1e-12)

    def test_adapted_reduced_or_table_is_r_free(self):
        """The surrogate puts mass 1/2 on the all-zero cell and 1/8 elsewhere."""
        for r in (0.0, 0.5, 1.0):
            d = canonical("ADAPTED_REDUCED_OR", r)
            t = VariableSet.of(d.index_of("T"))
            q = build_q(d, t, singleton_partition(d, ("Y1", "Y2")))
            got = {k: v for k, v in q.pmf.items() if v > 0.0}
            assert got == {
                ("0", "0", "0"): pytest.approx(0.5, abs=1e-12),
                ("1", "0", "0"): pytest.approx(0.125, abs=1e-12),
                ("1", "0", "1"): pytest.approx(0.125, abs=1e-12),
                ("1", "1", "0"): pytest.approx(0.125, abs=1e-12),
                ("1", "1", "1"): pytest.approx(0.125, abs=1e-12),
            }


class TestUnionInformation:
    def test_and_value(self):
        d = canonical("AND")
        t = VariableSet.of(d.index_of("T"))
        coll = SourceCollection.singletons([d.index_of("Y1"), d.index_of("Y2")])
        assert ci_union_information(d, t, coll) == pytest.approx(0.540852, abs=5e-4)

    def test_lone_source_gives_its_information(self):
        d = canonical("BOOM")
        t = VariableSet.of(d.index_of("T"))
        y1 = d.index_of("Y1")
        got = ci_union_information(d, t, SourceCollection.of((y1,)))
        want = mutual_information(d, VariableSet.of(y1), t)
        assert got == pytest.approx(want, abs=1e-12)

    def test_duplicate_source_ignored(self):
        d = canonical("ANDDUPLICATE")
        t = VariableSet.of(d.index_of("T"))
        idx = [d.index_of(n) for n in ("Y1", "Y2", "Y3")]
        with_dup = ci_union_information(d, t, SourceCollection.singletons(idx))
        without = ci_union_information(d, t, SourceCollection.singletons(idx[:2]))
        assert with_dup == pytest.approx(without, abs=1e-12)

    def test_target_as_source_carries_its_entropy(self):
        d = canonical("AND")
        t = VariableSet.of(d.index_of("T"))
        got = ci_union_information(d, t, SourceCollection.of((d.index_of("T"),)))
        assert got == pytest.approx(entropy(d, t), abs=1e-12)

    def test_capped_by_pooled_information(self):
        """Once the surrogate exceeds what p itself carries, the cap binds."""
        d = canonical("ADAPTED_REDUCED_OR", 0.75)
        t = VariableSet.of(d.index_of("T"))
        coll = SourceCollection.singletons([d.index_of("Y1"), d.index_of("Y2")])
        i_p = mutual_information(d, d.varset("Y1", "Y2"), t)
        assert ci_union_information(d, t, coll) == pytest.approx(i_p, abs=1e-12)

    def test_richer_target_can_lower_the_union(self):
        d = canonical("TARGET_MONO_CI")
        coll = SourceCollection.of((d.index_of("Y1"),), (d.index_of("Y2"),))
        narrow = ci_union_information(d, VariableSet.of(d.index_of("T")), coll)
        wide = ci_union_information(
            d, VariableSet.of(d.index_of("T"), d.index_of("Z")), coll
        )
        assert narrow == pytest.approx(0.908682, abs=5e-4)
        assert wide == pytest.approx(0.902202, abs=5e-4)
        assert wide < narrow - 1e-3

    def test_empty_target_rejected(self):
        d = canonical("AND")
        with pytest.raises(ArgumentError):
            ci_union_information(d, VariableSet(()), SourceCollection.of((1,)))

    def test_too_many_cells_rejected(self):
        """Two sparse groups of 12 and 11 binary variables span 4 * 2^23 cells."""
        a = [("0",) * 12, ("1",) * 12]
        b = [("0",) * 11, ("0", "1") * 5 + ("0",)]
        pmf = {(str(2 * i + j),) + a[i] + b[j]: 0.25 for i in (0, 1) for j in (0, 1)}
        alphabets = [("0", "1", "2", "3")] + [("0", "1")] * 23
        d = JointDistribution(["T"] + [f"Y{i}" for i in range(1, 24)], pmf, alphabets)
        coll = SourceCollection.of(range(1, 13), range(13, 24))
        with pytest.raises(UnsupportedError, match=str(4 * 2**23)):
            ci_union_information(d, VariableSet.of(0), coll)

    def test_too_many_partitions_rejected(self):
        """Two disjoint groups of 10 binary variables fit in 2^21 cells but
        admit Bell(10)^2 partitions, past the cap of 2^16.  The count
        comes before any table is built."""
        zero, one = ("0",) * 10, ("1",) * 10
        rows = [("0",) + zero + zero, ("0",) + one + zero,
                ("1",) + zero + one, ("1",) + zero + zero]
        d = JointDistribution(["T"] + [f"Y{i}" for i in range(1, 21)], {r: 0.25 for r in rows})
        coll = SourceCollection.of(range(1, 11), range(11, 21))
        assert len(normalize_sources(d, coll)) == 2
        with mock.patch("cipid.ci._table", side_effect=AssertionError("a table was built")):
            with pytest.raises(UnsupportedError, match=str(2**16)):
                ci_union_information(d, VariableSet.of(0), coll)


def reference_union(dist, target, collection):
    """The defining formula: min(I_p, max over partitions of I on build_q)."""
    norm = normalize_sources(dist, collection)
    pooled = norm.union().indices
    vars_q = sorted(set(pooled) | set(target.indices))
    qa = [vars_q.index(v) for v in pooled]
    qt = [vars_q.index(v) for v in target.indices]
    best = max(
        _mi_lenient(build_q(dist, target, part), qa, qt)
        for part in enumerate_ci_partitions(norm)
    )
    return min(_mi_lenient(dist, pooled, target.indices), best)


@st.composite
def union_cases(draw):
    """Dirichlet pmfs with about a fifth of their cells zeroed, one- or
    two-variable targets, and two to four predictor groups of up to four
    predictors.  The first group may also hold a target variable.  With
    six to eight variables every alphabet is binary, and a collection
    may admit a few hundred partitions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vars = draw(st.integers(3, 8))
    arities = [draw(st.integers(2, 3 if n_vars <= 5 else 2)) for _ in range(n_vars)]
    p = rng.dirichlet(np.ones(math.prod(arities))) * (rng.random(math.prod(arities)) > 0.2)
    assume(p.sum() > 0)
    cells = itertools.product(*[[str(s) for s in range(a)] for a in arities])
    dist = JointDistribution(
        tuple(f"V{i}" for i in range(len(arities))),
        {c: w / p.sum() for c, w in zip(cells, p) if w > 0},
        alphabets=tuple(tuple(str(s) for s in range(a)) for a in arities),
    )
    target = tuple(range(draw(st.integers(1, 2))))
    predictors = st.sampled_from(range(len(target), len(arities)))
    groups = draw(
        st.lists(st.frozensets(predictors, min_size=1, max_size=4), min_size=2, max_size=4, unique=True)
    )
    extra = draw(st.sampled_from((None,) + target))
    if extra is not None:
        groups[0] |= {extra}
    return dist, VariableSet(target), SourceCollection.of(*groups)


@given(union_cases())
@settings(max_examples=150, deadline=None)
def test_union_matches_the_surrogate_definition(case):
    dist, target, coll = case
    assert ci_union_information(dist, target, coll) == pytest.approx(
        reference_union(dist, target, coll), abs=1e-9
    )


@given(union_cases())
@settings(max_examples=100, deadline=None)
def test_partitions_are_counted_before_they_are_listed(case):
    dist, _, coll = case
    norm = normalize_sources(dist, coll)
    _, count = _partition_tree(norm)
    assert count == len(enumerate_ci_partitions(norm))


@given(union_cases())
@settings(max_examples=60, deadline=None)
def test_a_small_stack_gives_the_same_union(case):
    """With room for two rows at a time the scan scores many stacks,
    and may stop early, yet the union is the same float."""
    dist, target, coll = case
    whole = ci_union_information(dist, target, coll)
    pooled = normalize_sources(dist, coll).union().indices
    cells = math.prod(len(dist.alphabets[v]) for v in pooled)
    with mock.patch("cipid.ci._MAX_CELLS", 2 * cells):
        assert ci_union_information(dist, target, coll) == whole


class TestSynergy:
    def test_table_column(self):
        expected = {
            "XOR": 1.0, "AND": 0.270426, "COPY": 0.0, "RDNXOR": 1.0,
            "RDNUNQXOR": 1.0, "XORDUPLICATE": 1.0, "ANDDUPLICATE": 0.270426,
            "XORLOSES": 0.0, "XORMULTICOAL": 1.0,
        }
        for name, want in expected.items():
            d = canonical(name)
            t = VariableSet.of(d.index_of("T"))
            assert ci_synergy(d, t) == pytest.approx(want, abs=5e-4), name

    def test_target_split_changes_everything(self):
        d = canonical("COPY_XOR_TARGETS")
        coll = SourceCollection.of((d.index_of("Y1"),), (d.index_of("Y2"),))
        s1 = ci_synergy(d, VariableSet.of(d.index_of("T1")), coll)
        s2 = ci_synergy(d, VariableSet.of(d.index_of("T2")), coll)
        assert s1 == pytest.approx(0.0, abs=1e-6)
        assert s2 == pytest.approx(1.0, abs=1e-6)

    def test_lone_source_synergy_is_conditional_information(self):
        d = canonical("BOOM")
        t = VariableSet.of(d.index_of("T"))
        y1, y2 = d.index_of("Y1"), d.index_of("Y2")
        got = ci_synergy(d, t, SourceCollection.of((y1,)))
        want = conditional_mutual_information(
            d, VariableSet.of(y2), t, VariableSet.of(y1)
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_default_collection_is_all_singletons(self):
        d = canonical("AND")
        t = VariableSet.of(d.index_of("T"))
        explicit = ci_synergy(
            d, t, SourceCollection.singletons([d.index_of("Y1"), d.index_of("Y2")])
        )
        assert ci_synergy(d, t) == explicit


class TestBivariateDecomposition:
    def test_and_atoms(self):
        d = canonical("AND")
        res = ci_bivariate_decomposition(d, VariableSet.of(d.index_of("T")))
        assert res["R"] == pytest.approx(0.081704, abs=5e-4)
        assert res["U1"] == pytest.approx(0.229574, abs=5e-4)
        assert res["U2"] == pytest.approx(0.229574, abs=5e-4)
        assert res["S"] == pytest.approx(0.270426, abs=5e-4)
        assert res["I_cup"] == pytest.approx(0.540852, abs=5e-4)
        total = res["R"] + res["U1"] + res["U2"] + res["S"]
        assert total == pytest.approx(res["I_total"], abs=1e-9)

    def test_copy_atoms(self):
        d = canonical("COPY")
        res = ci_bivariate_decomposition(d, VariableSet.of(d.index_of("T")))
        assert (res["R"], res["U1"], res["U2"], res["S"]) == pytest.approx(
            (0.0, 1.0, 1.0, 0.0), abs=1e-9
        )

    def test_xor_atoms(self):
        d = canonical("XOR")
        res = ci_bivariate_decomposition(d, VariableSet.of(d.index_of("T")))
        assert (res["R"], res["U1"], res["U2"], res["S"]) == pytest.approx(
            (0.0, 0.0, 0.0, 1.0), abs=1e-9
        )

    def test_needs_exactly_two_predictors(self):
        d = canonical("XORLOSES")
        with pytest.raises(ArgumentError):
            ci_bivariate_decomposition(d, VariableSet.of(d.index_of("T")))


def test_pid_result_behaves_like_a_mapping():
    res = PidResult({"S": 0.5, "R": 0.25})
    assert res["S"] == 0.5
    assert set(res) == {"S", "R"}
    assert len(res) == 2
    assert dict(res.items()) == {"S": 0.5, "R": 0.25}
    assert res == PidResult({"R": 0.25, "S": 0.5})
    with pytest.raises(ArgumentError):
        PidResult({"S": float("nan")})
