"""Union information and synergy from conditional independence.

The union information of a source collection is computed by comparing
the true joint dependence of the pooled sources on the target against
the strongest dependence achievable by surrogate distributions in which
the pooled variables are conditionally independent across partition
blocks given the target:

    union = min( I_p(A; T),  max over partitions  I_q(A; T) )

where A is the union of the normalized sources and each surrogate q
keeps the target marginal and the per-block conditionals of p.  Synergy
is what the full set of predictor variables tells about the target
beyond that union.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .distribution import (
    _MAX_CELLS,
    JointDistribution,
    VariableSet,
    _bits,
    _check_target,
    _check_vars,
    _clamp_nonneg,
    _dense_shape,
    _from_table,
    _mi_lenient,
    _source_variables,
    _table,
)
from .errors import ArgumentError
from .sources import CiPartition, SourceCollection, _partition_tree, normalize_sources


class PidResult:
    """Immutable mapping from atom or measure labels to values in bits."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, float]):
        cleaned: dict[str, float] = {}
        for label, value in entries.items():
            v = float(value)
            if not math.isfinite(v):
                raise ArgumentError(f"entry {label!r} is not finite: {value!r}")
            cleaned[str(label)] = v
        if not cleaned:
            raise ArgumentError("a result needs at least one entry")
        object.__setattr__(self, "entries", MappingProxyType(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("PidResult is immutable")

    def __getitem__(self, label: str) -> float:
        return self.entries[label]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return self.entries.items()

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v:.6f}" for k, v in self.entries.items())
        return f"PidResult({body})"

    def __eq__(self, other):
        if not isinstance(other, PidResult):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)


def build_q(
    dist: JointDistribution, target: VariableSet, partition: CiPartition
) -> JointDistribution:
    """Surrogate joint over target and pooled variables for one partition.

    The surrogate keeps p's target marginal and, given each target
    state, draws every partition block independently from its true
    conditional:

        q(t, a) = p(t) * prod over blocks b of p(a_b | t)

    Blocks that overlap the target are consistent by construction,
    because conditioning on the full target pins their shared symbols.
    The result's variables are the union of target and pooled source
    variables in distribution order, with the original alphabets.  Past
    2^22 cells over those variables it raises
    :class:`~cipid.errors.UnsupportedError`.
    """
    _check_target(dist, target)
    for b in partition.blocks:
        _check_vars(dist, b, "partition block")

    t_set = set(target.indices)
    layout = sorted(t_set.union(*(b.indices for b in partition.blocks)))
    _dense_shape(dist, layout)

    def aligned(vs: list[int]) -> np.ndarray:
        """p over the sorted variables ``vs``, broadcast into the layout."""
        return _table(dist, vs).reshape([len(dist.alphabets[v]) if v in vs else 1 for v in layout])

    p_t = aligned(sorted(t_set))
    q = p_t
    for b in partition.blocks:
        joint = aligned(sorted(t_set | set(b.indices)))
        q = q * np.divide(joint, p_t, out=np.zeros_like(joint), where=p_t > 0.0)
    return _from_table(dist, layout, q)


def ci_union_information(
    dist: JointDistribution, target: VariableSet, collection: SourceCollection
) -> float:
    """Union information of a source collection about the target, in bits.

    The collection is normalized first, so duplicated or functionally
    redundant sources do not change the answer.

    Every partition is scored on one array of p without building its
    surrogate: given the target the blocks are independent, so
    I_q(A;T) = H_q(A) - sum over blocks b of H(A_b|T), with
    q(a) = sum over t of p(t) prod_b p(a_b|t).

    The partitions are the root-to-leaf paths of one tree of block
    choices, which ``sources._partition_tree`` builds and walks.  Before
    any table is built, the 2^22-cell table cap is checked and then the
    tree's leaves are counted against the 2^16 partition cap; past
    either this raises :class:`~cipid.errors.UnsupportedError`.  The
    walk folds the prefix product p(t) prod p(a_b|t) and the prefix sum
    of H(A_b|T) down the tree, depth first, so each edge of the tree
    costs one product; each block term is computed on its first use and
    kept for the call.  Each leaf's q(a) becomes one row of a stack of
    at most 2^22 cells, and a full stack gets its entropies from one
    vectorised sum per row.  A row that holds a zero is summed over its
    positive entries alone, as every other entropy here is, so each I_q
    is the same float a partition-by-partition scan gives.

    The scan stops once a stack reaches I_p, which is then the answer; a
    lone source reaches it at once.  The walk visits the partitions in
    another order than ``enumerate_ci_partitions`` returns them, but the
    answer, min(I_p, max over partitions), does not depend on the order.
    """
    _check_target(dist, target)
    norm = normalize_sources(dist, collection)
    pooled = norm.union().indices
    i_p = _mi_lenient(dist, pooled, target.indices)
    if len(norm) == 1:
        # its one-block partition keeps p itself, so I_q = I_p there
        return i_p
    # both caps fire before any table is built, the cell cap first
    layout = target.indices + pooled
    _dense_shape(dist, layout)
    paths, n_parts = _partition_tree(norm)

    # axis 0 runs over the target states of positive mass, then one axis
    # per pooled variable; a pooled target variable keeps its own axis
    p = _table(dist, layout)
    p = p.reshape(-1, *p.shape[len(target):])
    p_t = p.sum(axis=tuple(range(1, p.ndim)), keepdims=True)
    live = p_t.ravel() > 0.0
    p, p_t = p[live], p_t[live]
    h_t = _bits(p_t)
    # p(a_b|t) over the pooled axes, and H(A_b|T), per block on its first use
    terms: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}

    def step(acc: tuple[np.ndarray, float], block: tuple[int, ...], _witness: int):
        """A path's p(t) prod p(a_b|t) and sum of H(A_b|T), one block further down."""
        term = terms.get(block)
        if term is None:
            others = tuple(1 + k for k, v in enumerate(pooled) if v not in block)
            joint = p.sum(axis=others, keepdims=True)
            term = terms[block] = (joint / p_t, _bits(joint) - h_t)
        q, h = acc
        return q * term[0], h + term[1]

    # one row per leaf: q(a), and the sum of H(A_b|T) along its path
    rows = min(n_parts, max(1, _MAX_CELLS // p[0].size))
    q_a = np.empty((rows, *p.shape[1:]))
    h_cond = np.empty(rows)
    best = -math.inf
    for k, (q, h) in enumerate(paths(step, (p_t, 0.0))):
        row = k % rows
        np.add.reduce(q, axis=0, out=q_a[row])
        h_cond[row] = h
        if row == rows - 1 or k == n_parts - 1:
            i_q = _row_bits(q_a[: row + 1].reshape(row + 1, -1)) - h_cond[: row + 1]
            best = max(best, *(_clamp_nonneg(v, "mutual information") for v in i_q.tolist()))
            if best >= i_p:
                break
    return min(i_p, best)


def _row_bits(x: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of ``x``, the same float ``_bits`` gives.

    Rows without a zero share one vectorised sum; a row with a zero goes
    through ``_bits``, which sums its positive entries alone.
    """
    full = (x > 0.0).all(axis=1)
    out = np.empty(len(x))
    f = x[full]
    out[full] = -(f * np.log2(f)).sum(axis=1)
    for k in np.flatnonzero(~full):
        out[k] = _bits(x[k])
    return out


def ci_synergy(
    dist: JointDistribution,
    target: VariableSet,
    collection: SourceCollection | None = None,
) -> float:
    """Synergy of a collection: predictor information beyond the union.

    The minuend pools every non-target variable of the distribution
    together with the collection's own members.  For a lone source the
    result is therefore the conditional information the remaining
    predictors add on top of it, and it vanishes exactly when the
    collection already covers the target variables.  With ``collection``
    omitted, all non-target variables are used as singleton sources.
    """
    _check_target(dist, target)
    if collection is None:
        collection = SourceCollection.singletons(_source_variables(dist, target))
    pooled = collection.union()
    minuend = [i for i in range(dist.n_vars) if i not in target or i in pooled]
    i_total = _mi_lenient(dist, minuend, target.indices)
    return _clamp_nonneg(i_total - ci_union_information(dist, target, collection), "synergy")


def _two_predictor_informations(
    dist: JointDistribution, target: VariableSet, what: str
) -> tuple[list[int], float, float, float]:
    """The two predictors, I(Y1;T), I(Y2;T) and I(Y1,Y2;T); raises unless there are two."""
    src = _source_variables(dist, target)
    if len(src) != 2:
        raise ArgumentError(f"{what} needs exactly two predictor variables, found {len(src)}")
    i1, i2 = (_mi_lenient(dist, [y], target.indices) for y in src)
    return src, i1, i2, _mi_lenient(dist, src, target.indices)


def _iep_atoms(i1: float, i2: float, whole: float, r: float) -> dict[str, float]:
    """Atoms of redundancy ``r``: U_i = I(Y_i;T) - R and S = I(Y;T) - R - U1 - U2."""
    u1, u2 = i1 - r, i2 - r
    return {"R": r, "U1": u1, "U2": u2, "S": whole - r - u1 - u2}


def ci_bivariate_decomposition(dist: JointDistribution, target: VariableSet) -> PidResult:
    """Full four-atom decomposition for exactly two predictor variables.

    Returns entries R, U1, U2, S along with I_cup and I_total.  U1 is
    the unique contribution of the lower-indexed predictor.  The atoms
    are the inclusion-exclusion atoms of R = I(Y1;T) + I(Y2;T) - I_cup.
    """
    src, i1, i2, whole = _two_predictor_informations(dist, target, "bivariate decomposition")
    icup = ci_union_information(dist, target, SourceCollection.singletons(src))
    return PidResult({**_iep_atoms(i1, i2, whole, i1 + i2 - icup), "I_cup": icup, "I_total": whole})
