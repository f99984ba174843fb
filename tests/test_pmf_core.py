"""The support-coded pmf core against the dict-of-tuples reference.

``reference_table`` and ``reference_marginal_pmf`` are the dict-based
implementations that the code matrix replaced; every table and marginal
must match them bit for bit and key for key.
"""

import itertools
import sys

import numpy as np
import pytest

from cipid import JointDistribution
from cipid.distribution import _marginal_sums, _table


def reference_marginal_pmf(dist, indices):
    out = {}
    for key, p in dist.pmf.items():
        sub = tuple(key[i] for i in indices)
        out[sub] = out.get(sub, 0.0) + p
    return out


def reference_table(dist, indices):
    idx = tuple(indices)
    out = np.zeros(tuple(len(dist.alphabets[i]) for i in idx))
    pos = [{s: k for k, s in enumerate(dist.alphabets[i])} for i in idx]
    pmf = dist.pmf
    cells = np.array([[m[key[i]] for m, i in zip(pos, idx)] for key in pmf], dtype=np.intp)
    np.add.at(out, tuple(cells.reshape(len(pmf), len(idx)).T), np.fromiter(pmf.values(), float))
    return out


SYMBOLS = (0, 1, 2, "a", "b", 2.5, None, (0, 1), "0")


def random_pmf(rng, explicit):
    """A random pmf over 1-4 variables, mixed-type symbols, shuffled support."""
    n = int(rng.integers(1, 5))
    alphabets = [
        tuple(SYMBOLS[k] for k in rng.choice(len(SYMBOLS), int(rng.integers(1, 5)), replace=False))
        for _ in range(n)
    ]
    cells = list(itertools.product(*alphabets))
    rng.shuffle(cells)
    mass = rng.dirichlet(np.full(len(cells), 0.5))
    mass[rng.random(len(cells)) < 0.3] = 0.0
    if not mass.any():
        mass[0] = 1.0
    mass /= mass.sum()
    pmf = {cell: float(p) for cell, p in zip(cells, mass)}
    names = [f"V{i}" for i in range(n)]
    return JointDistribution(names, pmf, alphabets=alphabets if explicit else None)


def index_lists(rng, n):
    yield list(range(n))
    for _ in range(4):
        yield [int(i) for i in rng.integers(0, n, size=int(rng.integers(1, 5)))]


def assert_same(dist, idx):
    want = reference_marginal_pmf(dist, idx)
    alph = [dist.alphabets[i] for i in idx]
    got = {tuple(a[k] for a, k in zip(alph, row)): p for row, p in _marginal_sums(dist, idx).items()}
    assert list(got) == list(want)
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
    table = _table(dist, idx)
    assert table.shape == reference_table(dist, idx).shape
    assert np.array_equal(table, reference_table(dist, idx))


@pytest.mark.parametrize("explicit", [False, True])
def test_tables_and_marginals_match_the_dict_reference(explicit):
    rng = np.random.default_rng(7 + explicit)
    for _ in range(60):
        dist = random_pmf(rng, explicit)
        for idx in index_lists(rng, dist.n_vars):
            assert_same(dist, idx)


def test_a_300_letter_alphabet():
    rng = np.random.default_rng(5)
    letters = tuple(f"s{k}" for k in range(300))
    pairs = zip(rng.integers(0, 300, 400).tolist(), rng.integers(0, 3, 400).tolist())
    cells = list(dict.fromkeys((letters[i], j) for i, j in pairs))
    mass = rng.dirichlet(np.ones(len(cells)))
    dist = JointDistribution(
        ("A", "B"), dict(zip(cells, mass.tolist())), alphabets=(letters, (0, 1, 2, 3))
    )
    assert dist._codes.dtype == np.uint16
    for idx in ([0], [1], [0, 1], [1, 0, 1], [0, 0]):
        assert_same(dist, idx)


def test_pmf_round_trips_values_and_order():
    rng = np.random.default_rng(2)
    cells = list(itertools.product("xyz", (3, 1, 2)))
    rng.shuffle(cells)
    mass = rng.dirichlet(np.ones(len(cells)))
    mass[4] = 0.0
    pmf = {cell: float(p) for cell, p in zip(cells, mass / mass.sum())}
    dist = JointDistribution(("A", "B"), pmf)
    kept = [(k, p.hex()) for k, p in pmf.items() if p > 0.0]
    assert [(k, p.hex()) for k, p in dist.pmf.items()] == kept
    assert dist.pmf is not dist.pmf and dist.pmf == dist.pmf
    with pytest.raises(TypeError):
        dist.pmf[cells[0]] = 1.0


def test_prob_of_absent_and_wrong_length_outcomes():
    dist = JointDistribution(("A", "B"), {("x", 0): 0.25, ("y", 1): 0.75},
                             alphabets=(("x", "y", "z"), (0, 1)))
    assert dist.prob(("y", 1)) == 0.75
    assert dist.prob(["x", 0]) == 0.25
    assert dist.prob(("x", 1)) == 0.0  # both letters known, cell empty
    assert dist.prob(("z", 0)) == 0.0  # zero-mass letter
    assert dist.prob(("w", 0)) == 0.0  # not a letter
    assert dist.prob(("x",)) == 0.0
    assert dist.prob(("x", 0, 0)) == 0.0


def test_construction_keeps_no_outcome_tuple():
    key = ("left", "right")
    pmf = {key: 0.5, ("right", "left"): 0.5}
    before = sys.getrefcount(key)
    dist = JointDistribution(("A", "B"), pmf)
    assert sys.getrefcount(key) == before
    assert dist.prob(key) == 0.5
