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
    JointDistribution,
    VariableSet,
    _check_target,
    _check_vars,
    _clamp_nonneg,
    _dense_shape,
    _from_table,
    _mi_lenient,
    _source_variables,
    _table,
)
from .errors import ArgumentError, ConsistencyError
from .sources import (
    CiPartition,
    SourceCollection,
    enumerate_ci_partitions,
    normalize_sources,
)


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


def _bits(masses: np.ndarray) -> float:
    x = masses[masses > 0.0]
    return float(-(x * np.log2(x)).sum())


def ci_union_information(
    dist: JointDistribution, target: VariableSet, collection: SourceCollection
) -> float:
    """Union information of a source collection about the target, in bits.

    The collection is normalized first, so duplicated or functionally
    redundant sources do not change the answer.

    Every partition is scored on one array of p without building its
    surrogate: given the target the blocks are independent, so
    I_q(A;T) = H_q(A) - sum over blocks b of H(A_b|T), with
    q(a) = sum over t of p(t) prod_b p(a_b|t).  Block terms are shared
    between partitions.  The scan stops once a partition reaches I_p,
    which is then the answer; a lone source reaches it at once.
    """
    _check_target(dist, target)
    norm = normalize_sources(dist, collection)
    pooled = norm.union().indices
    i_p = _mi_lenient(dist, pooled, target.indices)
    if len(norm) == 1:
        # its one-block partition keeps p itself, so I_q = I_p there
        return i_p

    # axis 0 runs over the target states of positive mass, then one axis
    # per pooled variable; a pooled target variable keeps its own axis
    p = _table(dist, target.indices + pooled)
    p = p.reshape(-1, *p.shape[len(target):])
    p_t = p.sum(axis=tuple(range(1, p.ndim)), keepdims=True)
    live = p_t.ravel() > 0.0
    p, p_t = p[live], p_t[live]
    h_t = _bits(p_t)
    terms: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}

    def block_term(block: tuple[int, ...]) -> tuple[np.ndarray, float]:
        """p(a_b|t) over the pooled axes, and H(A_b|T)."""
        if block not in terms:
            others = tuple(1 + k for k, v in enumerate(pooled) if v not in block)
            joint = p.sum(axis=others, keepdims=True)
            terms[block] = (joint / p_t, _bits(joint) - h_t)
        return terms[block]

    best = -math.inf
    for part in enumerate_ci_partitions(norm):
        q = p_t
        h_cond = 0.0
        for b in part.blocks:
            cond, h = block_term(b.indices)
            q = q * cond
            h_cond += h
        i_q = _clamp_nonneg(_bits(q.sum(axis=0)) - h_cond, "mutual information")
        best = max(best, i_q)
        if best >= i_p:
            break

    return min(i_p, best)


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


def ci_bivariate_decomposition(dist: JointDistribution, target: VariableSet) -> PidResult:
    """Full four-atom decomposition for exactly two predictor variables.

    Returns entries R, U1, U2, S along with I_cup and I_total.  U1 is
    the unique contribution of the lower-indexed predictor.  The atoms
    satisfy R + U1 + U2 + S = I(Y1,Y2; T) to within rounding.
    """
    src = _source_variables(dist, target)
    if len(src) != 2:
        raise ArgumentError(
            f"bivariate decomposition needs exactly two predictor variables, found {len(src)}"
        )
    y1, y2 = src
    i1 = _mi_lenient(dist, [y1], target.indices)
    i2 = _mi_lenient(dist, [y2], target.indices)
    i_total = _mi_lenient(dist, src, target.indices)
    icup = ci_union_information(dist, target, SourceCollection.of([y1], [y2]))

    s = i_total - icup
    u1 = icup - i2
    u2 = icup - i1
    r = i1 - u1

    total = r + u1 + u2 + s
    if abs(total - i_total) > 1e-9:
        raise ConsistencyError(
            f"atoms sum to {total!r} but the joint information is {i_total!r}"
        )
    return PidResult(
        {"R": r, "U1": u1, "U2": u2, "S": s, "I_cup": icup, "I_total": i_total}
    )
