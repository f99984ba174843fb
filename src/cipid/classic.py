"""Baseline synergy and redundancy measures.

This module collects the comparison measures: whole-minus-sum synergy,
the specific-information redundancy with its lattice decomposition, the
misinformation-style synergy built from a conditional-independence
surrogate, an iterative-scaling maximum-entropy projector and the
dependency-constraint synergy built on it, plus the inclusion-exclusion
decomposition driven by an externally supplied redundancy value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ci import PidResult, _iep_atoms, _two_predictor_informations, build_q
from .distribution import (
    JointDistribution,
    VariableSet,
    _check_target,
    _cell_map,
    _check_vars,
    _clamp_nonneg,
    _from_table,
    _marginal_sums,
    _mi_lenient,
    _outcomes,
    _source_variables,
    _table,
)
from .errors import (
    ArgumentError,
    ConsistencyError,
    DomainError,
    IterationLimitError,
    UnsupportedError,
)
from .simplex import _relative_interior_point
from .sources import CiPartition, SourceCollection

_IPF_SWEEPS = 10_000
_IPF_TOL = 1e-10


# ---------------------------------------------------------------------------
# whole minus sum
# ---------------------------------------------------------------------------


def wms_synergy(dist: JointDistribution, target: VariableSet) -> float:
    """Whole-minus-sum synergy: I(Y;T) minus the summed singleton informations.

    Needs at least two predictor variables.  Can be negative when the
    predictors are redundant.
    """
    src = _source_variables(dist, target)
    if len(src) < 2:
        raise ArgumentError("whole-minus-sum synergy needs at least two predictors")
    whole = _mi_lenient(dist, src, target.indices)
    parts = sum(_mi_lenient(dist, [y], target.indices) for y in src)
    return whole - parts


# ---------------------------------------------------------------------------
# specific information and the redundancy lattice
# ---------------------------------------------------------------------------


def specific_information(
    dist: JointDistribution, target: VariableSet, source: VariableSet, t
) -> float:
    """Information the source carries about one particular target state.

    Defined as sum over source states a of p(a|t) (log2 p(t|a) - log2 p(t)).
    ``t`` may be a bare symbol when the target is a single variable.
    Raises if p(t) is zero.
    """
    _check_target(dist, target)
    tval = tuple(t) if isinstance(t, (tuple, list)) else (t,)
    if len(tval) != len(target):
        raise ArgumentError(f"target state {t!r} has wrong arity for {len(target)} variables")

    p_t = _marginal_sums(dist, target.indices)
    alph = [dist.alphabets[i] for i in target.indices]
    tpos = tuple(a.index(s) if s in a else -1 for a, s in zip(alph, tval))
    if tpos not in p_t:
        raise ArgumentError(f"target state {t!r} has zero probability")
    return _specific_informations(dist, target, source, p_t)[tpos]


def _specific_informations(
    dist: JointDistribution, target: VariableSet, source: VariableSet, p_t: dict
) -> dict[tuple, float]:
    """Specific information of ``source`` for every target state of ``p_t``.

    ``p_t`` is the target marginal, keyed by alphabet positions as
    :func:`~cipid.distribution._marginal_sums` gives it, and so is the
    result.  One walk over the (source, target) marginal adds each
    source state's term to its target state.
    """
    if len(source) == 0:
        raise ArgumentError("source must be non-empty")
    _check_vars(dist, source, "source")
    if not source.isdisjoint(target):
        raise ArgumentError("source and target variables overlap")
    p_a = _marginal_sums(dist, source.indices)
    ns = len(source)
    out = dict.fromkeys(p_t, 0.0)
    for key, p in _marginal_sums(dist, source.indices + target.indices).items():
        tval = key[ns:]
        pt = p_t[tval]
        out[tval] += p / pt * (math.log2(p / p_a[key[:ns]]) - math.log2(pt))
    return out


def _expected_minimum(p_t: dict, informations: list[dict[tuple, float]]) -> float:
    """Sum over target states t of p(t) times the least specific information at t."""
    return math.fsum(pt * min(si[tval] for si in informations) for tval, pt in p_t.items())


def imin_redundancy(
    dist: JointDistribution, target: VariableSet, collection: SourceCollection
) -> float:
    """Expected minimum specific information across the sources.

    Always non-negative: specific information equals the divergence
    between the source posterior given t and the source prior, so every
    term inside the minimum is itself non-negative.
    """
    _check_target(dist, target)
    p_t = _marginal_sums(dist, target.indices)
    return _expected_minimum(
        p_t, [_specific_informations(dist, target, s.members, p_t) for s in collection]
    )


@dataclass(frozen=True, eq=False)
class RedundancyLattice:
    """Antichain lattice used for the lattice decomposition.

    ``nodes`` are antichains of non-empty subsets of {1..n}, each node a
    tuple of sorted index tuples, listed bottom-up (every node appears
    after everything below it).  ``below`` is a read-only boolean matrix
    whose entry [i, j] says that node ``i`` is at or below node ``j``;
    ``leq`` reads it, and ``down_set(i)`` returns the indices of all
    nodes at or below node ``i``.  ``mobius`` inverts values given at
    the nodes into atoms along ``below``.
    """

    n: int
    nodes: tuple[tuple[tuple[int, ...], ...], ...]
    below: np.ndarray
    bottom = 0  # the bottom-up listing starts at {1}..{n} and ends at {1..n}

    def leq(self, i: int, j: int) -> bool:
        return bool(self.below[i, j])

    def down_set(self, i: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.below[:, i]).tolist())

    def mobius(self, values: Sequence[float]) -> list[float]:
        """The atoms whose sum over each node's down set is that node's value.

        Node ``i``'s atom is ``values[i]`` minus the atoms strictly below
        it, added in node order; the bottom-up listing puts them all
        before ``i``.
        """
        atoms: list[float] = []
        for i, v in enumerate(values):
            atoms.append(v - sum(atoms[j] for j in np.flatnonzero(self.below[:i, i])))
        return atoms

    @property
    def top(self) -> int:
        return len(self.nodes) - 1


@functools.cache
def redundancy_lattice(n: int) -> RedundancyLattice:
    """The lattice of source antichains for n predictors (n in {2, 3}), built once per n."""
    if n not in (2, 3):
        raise UnsupportedError(f"redundancy lattice only built for 2 or 3 predictors, not {n}")

    subsets = [s for r in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), r)]
    # subsets come ordered by size, then lexicographically, and so does each antichain
    nodes = [
        col
        for r in range(1, len(subsets) + 1)
        for col in itertools.combinations(subsets, r)
        if not any(a != b and set(a) <= set(b) for a in col for b in col)
    ]

    def at_or_below(alpha, beta):
        return all(any(set(a) <= set(b) for a in alpha) for b in beta)

    # Counts must be taken before sorting: list.sort empties the list
    # while it runs, so a key function touching ``nodes`` would see [].
    depth = {nd: sum(at_or_below(m, nd) for m in nodes) for nd in nodes}
    nodes.sort(key=lambda nd: (depth[nd], nd))
    below = np.array([[at_or_below(a, b) for b in nodes] for a in nodes])
    below.setflags(write=False)
    return RedundancyLattice(n, tuple(nodes), below)


def _wb_atoms(
    dist: JointDistribution, target: VariableSet
) -> tuple[list[int], RedundancyLattice, list[float]]:
    """The predictors, their lattice and its atoms, the Moebius inverse of Imin.

    Each node's value is the expected minimum specific information of
    its sources.  Raises when the atoms do not sum to the joint
    information (checked to 1e-6).
    """
    src = _source_variables(dist, target)
    lat = redundancy_lattice(len(src))
    p_t = _marginal_sums(dist, target.indices)
    # every subset of predictors is a node on its own
    si = {
        sub: _specific_informations(dist, target, VariableSet(tuple(src[k - 1] for k in sub)), p_t)
        for node in lat.nodes
        if len(node) == 1
        for sub in node
    }
    atoms = lat.mobius([_expected_minimum(p_t, [si[sub] for sub in node]) for node in lat.nodes])

    total = math.fsum(atoms)
    whole = _mi_lenient(dist, src, target.indices)
    if abs(total - whole) > 1e-6:
        raise ConsistencyError(
            f"lattice atoms sum to {total!r} but the joint information is {whole!r}"
        )
    return src, lat, atoms


def wb_pid(dist: JointDistribution, target: VariableSet) -> PidResult:
    """Lattice decomposition of I(Y;T) over source antichains.

    Supports two or three predictor variables.  Atom labels are built
    from variable names, for example ``{Y1}{Y2}`` for the bottom node
    and ``{Y1,Y2}`` for the top.  The atoms are the Moebius inverse of
    the expected-minimum redundancy along the lattice and sum to the
    joint mutual information (checked to 1e-6).
    """
    src, lat, atoms = _wb_atoms(dist, target)
    names = [dist.var_names[v] for v in src]
    labels = ("".join("{" + ",".join(names[k - 1] for k in sub) + "}" for sub in node)
              for node in lat.nodes)
    return PidResult(dict(zip(labels, atoms)))


def wb_synergy(dist: JointDistribution, target: VariableSet) -> float:
    """The atom at the top lattice node, all predictors pooled as one source.

    Atoms are non-negative, so rounding below zero is clamped to zero.
    """
    _, lat, atoms = _wb_atoms(dist, target)
    return _clamp_nonneg(atoms[lat.top], "synergy")


def wb_union_information(dist: JointDistribution, target: VariableSet) -> float:
    """Sum of lattice atoms at nodes whose antichain mentions a lone predictor.

    These are the contributions accessible without pooling, so the
    complement I(Y;T) minus this sum is an alternative synergy reading
    of the same lattice.  For two predictors it coincides with
    I(Y;T) minus the top atom.
    """
    _, lat, atoms = _wb_atoms(dist, target)
    return sum(a for node, a in zip(lat.nodes, atoms) if any(len(sub) == 1 for sub in node))


# ---------------------------------------------------------------------------
# misinformation-style synergy
# ---------------------------------------------------------------------------


def delta_i_synergy(dist: JointDistribution, target: VariableSet) -> float:
    """Average divergence between true and conditionally independent posteriors.

    Builds the surrogate in which all predictors are independent given
    the target, forms its posterior over target states, and averages
    log2 p(t|y) - log2 q(t|y) under the true joint.  Non-negative, and
    not bounded by I(Y;T).
    """
    src = _source_variables(dist, target)

    part = CiPartition(
        tuple(VariableSet.of(v) for v in src), tuple(range(len(src)))
    )
    every = range(dist.n_vars)
    p = _table(dist, every)
    q = _table(build_q(dist, target, part), every)
    on = p > 0.0
    bad = np.flatnonzero(on & (q <= 0.0))
    if bad.size:
        raise DomainError(
            "independent surrogate assigns zero probability to outcome "
            f"{_outcomes(dist, every, bad[:1])[0]!r}"
        )

    def posterior(a: np.ndarray) -> np.ndarray:
        """a(t|y) on the support of p."""
        y = a.sum(axis=target.indices, keepdims=True)
        return np.divide(a, y, out=np.zeros_like(a), where=on)[on]

    total = float((p[on] * (np.log2(posterior(p)) - np.log2(posterior(q)))).sum())
    return _clamp_nonneg(total, "divergence")


# ---------------------------------------------------------------------------
# iterative proportional fitting
# ---------------------------------------------------------------------------


def maxent_ipf(
    dist: JointDistribution,
    preserved_marginals: Sequence[VariableSet],
) -> JointDistribution:
    """Maximum-entropy distribution with the given marginals of ``dist``.

    Iterative proportional fitting: it starts uniform on the maximal
    support of the distributions with these marginals, and rescales
    toward each preserved marginal in the listed order until every
    marginal matches within 1e-10 (checked after each full sweep).
    The preserved sets must jointly cover all variables.  A combination
    of marginals can force a cell to zero although every marginal cell
    touching it is positive, and fitting approaches such a zero only at
    a polynomial rate, so the support comes from LP rounds
    (:func:`~cipid.simplex._relative_interior_point` from p).

    Raises :class:`~cipid.errors.IterationLimitError` with the residual
    if 10,000 sweeps do not reach tolerance.
    """
    if not preserved_marginals:
        raise ArgumentError("need at least one marginal to preserve")
    covered: set[int] = set()
    for vs in preserved_marginals:
        if len(vs) == 0:
            raise ArgumentError("preserved marginal sets must be non-empty")
        _check_vars(dist, vs, "preserved marginal")
        covered |= set(vs.indices)
    if covered != set(range(dist.n_vars)):
        missing = sorted(set(range(dist.n_vars)) - covered)
        raise ArgumentError(
            f"preserved marginals must cover every variable; missing {missing}"
        )

    every = range(dist.n_vars)
    p = _table(dist, every)
    plans = [(_cell_map(p.shape, vs.indices), _table(dist, vs.indices).ravel())
             for vs in preserved_marginals]
    # the cells under no zero marginal cell, with one constraint row per
    # positive marginal cell
    live = np.logical_and.reduce([tvec[mapping] > 0.0 for mapping, tvec in plans])
    a_eq = np.vstack([mapping[live] == np.flatnonzero(tvec)[:, None] for mapping, tvec in plans])
    b_eq = np.concatenate([tvec[tvec > 0.0] for _, tvec in plans])
    on = np.zeros(p.size, dtype=bool)
    on[live] = _relative_interior_point(a_eq, b_eq, p.ravel()[live]) > 0.0
    x = np.where(on, 1.0 / p.size, 0.0)

    for _ in range(_IPF_SWEEPS):
        for mapping, tvec in plans:
            cur = np.bincount(mapping, weights=x, minlength=tvec.size)
            factor = np.divide(tvec, cur, out=np.zeros_like(tvec), where=cur > 0.0)
            x *= factor[mapping]
        residual = max(
            float(np.max(np.abs(np.bincount(mapping, weights=x, minlength=tvec.size) - tvec)))
            for mapping, tvec in plans
        )
        if residual < _IPF_TOL:
            return _from_table(dist, every, x.reshape(p.shape))
    raise IterationLimitError(
        f"iterative scaling did not converge in {_IPF_SWEEPS} sweeps", residual
    )


# ---------------------------------------------------------------------------
# dependency-constrained synergy
# ---------------------------------------------------------------------------


def dep_synergy(dist: JointDistribution, target: VariableSet) -> PidResult:
    """Synergy from dependency constraints, for exactly two predictors.

    Compares the true joint information against two reduced models: the
    conditional-independence surrogate q and the maximum-entropy
    distribution r that keeps each predictor-target pair and the
    predictor-predictor marginal.  Both keep every (Y_i, T) marginal of
    p, q exactly and r to the fit's tolerance, so the least
    I(Y_i; T | Y_other) over the two models is min(I_q, I_r) minus
    I(Y_other; T): the atoms are the inclusion-exclusion atoms of the
    union information min(I_q, I_r).  Entries:

    - ``S``: I_p(Y;T) minus min(I_q(Y;T), I_r(Y;T))
    - ``U1``/``U2``: min(I_q, I_r) minus I(Y_other;T)
    - ``I_q``/``I_r``: the two reduced joint informations
    """
    src, i1, i2, whole = _two_predictor_informations(dist, target, "dependency synergy")
    y1, y2 = src
    t = target.indices
    q = build_q(dist, target, CiPartition((VariableSet.of(y1), VariableSet.of(y2)), (0, 1)))
    r = maxent_ipf(dist, [VariableSet((y1,) + t), VariableSet((y2,) + t), VariableSet((y1, y2))])

    # q and r are over the variables of dist, in dist order, so dist's
    # indices address them directly
    i_q = _mi_lenient(q, src, t)
    i_r = _mi_lenient(r, src, t)
    least = min(i_q, i_r)
    atoms = _iep_atoms(i1, i2, whole, i1 + i2 - least)
    return PidResult({
        # the atom S equals this, but summing the atoms can round it an ulp away
        "S": _clamp_nonneg(whole - least, "synergy"),
        "U1": _clamp_nonneg(atoms["U1"], "unique information"),
        "U2": _clamp_nonneg(atoms["U2"], "unique information"),
        "I_q": i_q,
        "I_r": i_r,
    })


# ---------------------------------------------------------------------------
# inclusion-exclusion decomposition
# ---------------------------------------------------------------------------


def iep_bivariate_from_redundancy(
    dist: JointDistribution, target: VariableSet, redundancy: float
) -> PidResult:
    """Bivariate atoms implied by a redundancy value via inclusion-exclusion.

    U_i = I(Y_i;T) - R and S = I(Y;T) - R - U1 - U2.  The atoms sum to
    I(Y;T) by construction; no positivity is imposed, so S can be
    negative when the supplied redundancy exceeds what the interaction
    supports.
    """
    _, i1, i2, whole = _two_predictor_informations(
        dist, target, "inclusion-exclusion decomposition"
    )
    r = float(redundancy)
    if not math.isfinite(r):
        raise ArgumentError(f"redundancy must be finite, got {redundancy!r}")
    return PidResult({**_iep_atoms(i1, i2, whole, r), "I_total": whole})
