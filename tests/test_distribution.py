"""Core container and information-measure tests."""

import math

import numpy as np
import pytest

from cipid import (
    ArgumentError,
    Channel,
    ConsistencyError,
    JointDistribution,
    SourceCollection,
    VariableSet,
    channel_from,
    conditional_mutual_information,
    entropy,
    kl_divergence,
    marginalize,
    mutual_information,
)


def xor_dist():
    rows = [("0", "0", "0"), ("1", "0", "1"), ("1", "1", "0"), ("0", "1", "1")]
    return JointDistribution(("T", "Y1", "Y2"), {r: 0.25 for r in rows})


class TestVariableSet:
    def test_sorts_and_dedupes(self):
        assert VariableSet.of(2, 0, 2, 1).indices == (0, 1, 2)

    def test_set_algebra(self):
        a = VariableSet.of(0, 1)
        b = VariableSet.of(1, 2)
        assert a.union(b).indices == (0, 1, 2)
        assert a.intersection(b).indices == (1,)
        assert a.difference(b).indices == (0,)
        assert not a.isdisjoint(b)
        assert VariableSet.of(0).issubset(a)

    def test_rejects_negative_and_bool(self):
        with pytest.raises(ArgumentError):
            VariableSet.of(-1)
        with pytest.raises(ArgumentError):
            VariableSet.of(True)

    def test_rejects_a_non_integer_among_integers(self):
        with pytest.raises(ArgumentError, match="'a'"):
            VariableSet(("a", 1))
        with pytest.raises(ArgumentError):
            VariableSet((1.0,))

    def test_numpy_integers_become_python_ints(self):
        vs = VariableSet((np.int64(2), np.uint8(0), 2))
        assert vs.indices == (0, 2) and all(type(i) is int for i in vs.indices)
        assert vs == VariableSet.of(0, 2) and hash(vs) == hash(VariableSet.of(0, 2))
        members = SourceCollection.of(np.flatnonzero([False, True, True])).union()
        assert members == VariableSet.of(1, 2)

    def test_rejects_numpy_bool_and_negative(self):
        for bad in (np.True_, np.int64(-1)):
            with pytest.raises(ArgumentError, match="non-negative integer"):
                VariableSet((bad,))

    def test_membership_and_len(self):
        vs = VariableSet.of(3, 1)
        assert 1 in vs and 3 in vs and 2 not in vs
        assert len(vs) == 2
        assert list(vs) == [1, 3]


class TestJointDistribution:
    def test_rejects_bad_mass(self):
        with pytest.raises(ConsistencyError):
            JointDistribution(("A",), {("0",): 0.4, ("1",): 0.4})
        with pytest.raises(ConsistencyError):
            JointDistribution(("A",), {("0",): 1.2, ("1",): -0.2})
        with pytest.raises(ConsistencyError):
            JointDistribution(("A",), {("0",): 1.0, ("1",): math.nan})

    def test_tiny_negative_is_clipped(self):
        d = JointDistribution(("A",), {("0",): 1.0, ("1",): -1e-12})
        assert d.prob(("1",)) == 0.0

    def test_rejects_wrong_arity(self):
        with pytest.raises(ArgumentError):
            JointDistribution(("A", "B"), {("0",): 1.0})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ArgumentError):
            JointDistribution(("A", "A"), {("0", "0"): 1.0})

    def test_alphabets_inferred_and_checked(self):
        d = JointDistribution(("A", "B"), {("x", "0"): 0.5, ("y", "1"): 0.5})
        assert d.alphabets == (("x", "y"), ("0", "1"))
        with pytest.raises(ArgumentError):
            JointDistribution(
                ("A",), {("z",): 1.0}, alphabets=(("x", "y"),)
            )

    def test_explicit_alphabet_keeps_unused_symbols(self):
        d = JointDistribution(
            ("A",), {("x",): 1.0}, alphabets=(("x", "y", "z"),)
        )
        assert d.alphabets == (("x", "y", "z"),)

    def test_immutable(self):
        d = xor_dist()
        with pytest.raises(AttributeError):
            d.var_names = ("X",)

    def test_equality_and_hash(self):
        assert xor_dist() == xor_dist()
        assert hash(xor_dist()) == hash(xor_dist())
        other = JointDistribution(("T",), {("0",): 1.0})
        assert xor_dist() != other

    def test_prob_lookup(self):
        d = xor_dist()
        assert d.prob(("0", "0", "0")) == 0.25
        assert d.prob(("1", "0", "0")) == 0.0

    def test_mixed_symbol_types_sort_without_error(self):
        d = JointDistribution(("A",), {(0,): 0.5, ("x",): 0.5})
        assert len(d.alphabets[0]) == 2


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        d = JointDistribution(("A",), {("0",): 0.5, ("1",): 0.5})
        assert entropy(d, VariableSet.of(0)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_four_symbols(self):
        d = JointDistribution(("A",), {(s,): 0.25 for s in "abcd"})
        assert entropy(d, VariableSet.of(0)) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_is_zero(self):
        d = JointDistribution(("A", "B"), {("0", "1"): 1.0})
        assert entropy(d, VariableSet.of(0, 1)) == 0.0

    def test_and_target_entropy(self):
        rows = {("0", "0", "0"): 0.25, ("0", "0", "1"): 0.25,
                ("0", "1", "0"): 0.25, ("1", "1", "1"): 0.25}
        d = JointDistribution(("T", "Y1", "Y2"), rows)
        assert entropy(d, VariableSet.of(0)) == pytest.approx(0.8112781244591, abs=1e-9)

    def test_empty_set_rejected(self):
        with pytest.raises(ArgumentError):
            entropy(xor_dist(), VariableSet(()))


class TestMutualInformation:
    def test_xor_structure(self):
        d = xor_dist()
        t, y1, y2 = VariableSet.of(0), VariableSet.of(1), VariableSet.of(2)
        assert mutual_information(d, y1, t) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(d, y2, t) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(d, VariableSet.of(1, 2), t) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        d = xor_dist()
        a, b = VariableSet.of(0, 1), VariableSet.of(2)
        assert mutual_information(d, a, b) == pytest.approx(
            mutual_information(d, b, a), abs=1e-12
        )

    def test_overlap_rejected(self):
        with pytest.raises(ArgumentError):
            mutual_information(xor_dist(), VariableSet.of(0, 1), VariableSet.of(1))

    def test_conditional_chain_rule(self):
        d = xor_dist()
        t = VariableSet.of(0)
        lhs = mutual_information(d, VariableSet.of(1, 2), t)
        rhs = mutual_information(d, VariableSet.of(1), t) + conditional_mutual_information(
            d, VariableSet.of(2), t, VariableSet.of(1)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_conditioning_reveals_xor(self):
        d = xor_dist()
        cmi = conditional_mutual_information(
            d, VariableSet.of(2), VariableSet.of(0), VariableSet.of(1)
        )
        assert cmi == pytest.approx(1.0, abs=1e-12)


def test_marginalize_keeps_alphabets_and_mass():
    d = JointDistribution(
        ("A", "B"), {("x", "0"): 0.5, ("x", "1"): 0.25, ("y", "1"): 0.25},
        alphabets=(("x", "y", "z"), ("0", "1")),
    )
    m = marginalize(d, VariableSet.of(0))
    assert m.var_names == ("A",)
    assert m.alphabets == (("x", "y", "z"),)
    assert m.prob(("x",)) == pytest.approx(0.75)
    assert sum(m.pmf.values()) == pytest.approx(1.0, abs=1e-12)


def test_marginalize_empty_rejected():
    with pytest.raises(ArgumentError):
        marginalize(xor_dist(), VariableSet(()))


class TestKlDivergence:
    def test_zero_for_identical(self):
        p = [0.2, 0.3, 0.5]
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        got = kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0), abs=1e-12)

    def test_zero_in_q_on_support(self):
        from cipid import DomainError

        with pytest.raises(DomainError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_rejects_nan_mass(self):
        for p, q in (([1.0, math.nan], [0.5, 0.5]), ([0.5, 0.5], [math.nan, 1.0])):
            with pytest.raises(ArgumentError):
                kl_divergence(p, q)


class TestChannel:
    def test_channel_from_rows(self):
        rows = {("0", "0", "0"): 0.25, ("0", "0", "1"): 0.25,
                ("0", "1", "0"): 0.25, ("1", "1", "1"): 0.25}
        d = JointDistribution(("T", "Y1", "Y2"), rows)
        k = channel_from(d, VariableSet.of(0), VariableSet.of(1))
        assert k.input_states == (("0",), ("1",))
        assert np.allclose(k.input_marginal, [0.75, 0.25])
        assert np.allclose(k.matrix, [[2.0 / 3.0, 1.0 / 3.0], [0.0, 1.0]])
        assert k.mutual_information() == pytest.approx(
            mutual_information(d, VariableSet.of(1), VariableSet.of(0)), abs=1e-12
        )

    def test_zero_probability_target_state_dropped(self):
        d = JointDistribution(
            ("T", "Y"), {("0", "0"): 0.5, ("0", "1"): 0.5},
            alphabets=(("0", "1"), ("0", "1")),
        )
        k = channel_from(d, VariableSet.of(0), VariableSet.of(1))
        assert k.input_states == (("0",),)

    def test_rejects_bad_rows(self):
        with pytest.raises(ConsistencyError):
            Channel(("a", "b"), (0.5, 0.5), (0, 1), np.array([[0.7, 0.7], [0.5, 0.5]]))

    def test_rejects_nan_mass(self):
        with pytest.raises(ConsistencyError, match="input marginal"):
            Channel(("a", "b"), (1.0, math.nan), (0, 1), np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ConsistencyError, match="row 1"):
            Channel(("a", "b"), (0.5, 0.5), (0, 1), np.array([[1.0, 0.0], [math.nan, 1.0]]))

    def test_rejects_zero_marginal(self):
        with pytest.raises(ArgumentError):
            Channel(("a", "b"), (1.0, 0.0), (0, 1), np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_matrix_is_read_only(self):
        k = Channel(("a",), (1.0,), (0, 1), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            k.matrix[0, 0] = 0.9
