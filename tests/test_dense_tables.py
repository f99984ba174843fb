"""Channels, surrogates and couplings on explicit alphabets, zero-mass
target states and product alphabets past the dense-table cap."""

import numpy as np
import pytest

from cipid import (
    JointDistribution,
    UnsupportedError,
    VariableSet,
    build_q,
    channel_from,
    maxent_ipf,
    vk_union_information,
)
from cipid.distribution import _marginal_pmf
from cipid.sources import CiPartition, SourceCollection


def singletons(*indices):
    return CiPartition(tuple(VariableSet.of(i) for i in indices), tuple(range(len(indices))))


def conditional_rows(d, t_idx, s_idx, states, outs):
    """p(s|t) read straight off the pmf, one row per target state."""
    joint = _marginal_pmf(d, tuple(t_idx) + tuple(s_idx))
    p_t = _marginal_pmf(d, tuple(t_idx))
    return np.array([[joint.get(t + o, 0.0) / p_t[t] for o in outs] for t in states])


def test_channel_from_on_reversed_alphabets():
    pmf = {("b", "1", "x"): 0.1, ("b", "0", "y"): 0.3, ("a", "1", "y"): 0.2,
           ("a", "0", "x"): 0.15, ("a", "1", "x"): 0.25}
    d = JointDistribution(("T", "Y1", "Y2"), pmf,
                          alphabets=(("b", "a"), ("1", "0"), ("y", "x")))
    k = channel_from(d, VariableSet.of(0), VariableSet.of(1, 2))
    assert k.input_states == (("a",), ("b",))
    assert k.output_alphabet == (("1", "y"), ("1", "x"), ("0", "y"), ("0", "x"))
    assert np.allclose(k.input_marginal, [0.6, 0.4], atol=1e-15)
    want = conditional_rows(d, (0,), (1, 2), k.input_states, k.output_alphabet)
    assert np.allclose(k.matrix, want, atol=1e-15)


def two_variable_target():
    """Target (T1, T2) whose state (1, 1) carries no mass."""
    rng = np.random.default_rng(3)
    cells = [(t1, t2, y1, y2) for t1 in (0, 1) for t2 in (0, 1) for y1 in (0, 1, 2)
             for y2 in (0, 1) if (t1, t2) != (1, 1)]
    w = rng.dirichlet(np.ones(len(cells)))
    return JointDistribution(("T1", "T2", "Y1", "Y2"), dict(zip(cells, w.tolist())),
                             alphabets=((0, 1), (0, 1), (0, 1, 2), (0, 1)))


def test_zero_mass_state_of_a_two_variable_target():
    d = two_variable_target()
    t = VariableSet.of(0, 1)
    live = ((0, 0), (0, 1), (1, 0))

    k = channel_from(d, t, VariableSet.of(2))
    assert k.input_states == live
    p_t = _marginal_pmf(d, (0, 1))
    assert np.allclose(k.input_marginal, [p_t[s] for s in live], atol=1e-15)
    assert np.allclose(k.matrix, conditional_rows(d, (0, 1), (2,), live, k.output_alphabet),
                       atol=1e-15)

    q = build_q(d, t, singletons(2, 3))
    assert q.var_names == d.var_names and q.alphabets == d.alphabets
    assert not any(key[:2] == (1, 1) for key in q.pmf)
    p_y1 = _marginal_pmf(d, (0, 1, 2))
    p_y2 = _marginal_pmf(d, (0, 1, 3))
    for key, p in q.pmf.items():
        tt = key[:2]
        want = p_t[tt] * (p_y1[tt + key[2:3]] / p_t[tt]) * (p_y2[tt + key[3:]] / p_t[tt])
        assert p == pytest.approx(want, abs=1e-15)

    rep = vk_union_information(d, t, SourceCollection.of((2,), (3,)))
    arg = rep.argument
    assert arg.var_names == d.var_names
    assert not any(key[:2] == (1, 1) for key in arg.pmf)
    for s in (2, 3):
        a = _marginal_pmf(d, (0, 1, s))
        b = _marginal_pmf(arg, (0, 1, s))
        assert max(abs(a[k] - b.get(k, 0.0)) for k in a) <= 1e-7

    # the same program with the target merged into one three-state variable
    merged = JointDistribution(
        ("T", "Y1", "Y2"),
        {(f"{k[0]}{k[1]}",) + k[2:]: p for k, p in d.pmf.items()},
        alphabets=(("00", "01", "10"), (0, 1, 2), (0, 1)),
    )
    again = vk_union_information(merged, VariableSet.of(0), SourceCollection.of((1,), (2,)))
    assert rep.value == pytest.approx(again.value, abs=1e-9)


def test_sparse_pmf_past_the_cell_cap_is_rejected():
    """23 binary variables span 2^23 cells although only two carry mass."""
    names = ["T"] + [f"Y{i}" for i in range(1, 23)]
    d = JointDistribution(names, {(0,) * 23: 0.5, (1,) * 23: 0.5})
    t = VariableSet.of(0)
    with pytest.raises(UnsupportedError, match=str(2**23)):
        channel_from(d, t, VariableSet(tuple(range(1, 23))))
    with pytest.raises(UnsupportedError, match=str(2**23)):
        build_q(d, t, singletons(*range(1, 23)))
    with pytest.raises(UnsupportedError, match=str(2**23)):
        maxent_ipf(d, [VariableSet.of(0, i) for i in range(1, 23)])
