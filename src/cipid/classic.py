"""Baseline synergy and redundancy measures.

This module collects the comparison measures: whole-minus-sum synergy,
the specific-information redundancy with its lattice decomposition, the
misinformation-style synergy built from a conditional-independence
surrogate, an iterative-scaling maximum-entropy projector and the
dependency-constraint synergy built on it, plus the inclusion-exclusion
decomposition driven by an externally supplied redundancy value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ci import PidResult, build_q
from .distribution import (
    JointDistribution,
    VariableSet,
    _check_target,
    _cell_map,
    _check_vars,
    _clamp_nonneg,
    _from_table,
    _marginal_pmf,
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
from .simplex import solve_lp
from .sources import CiPartition, SourceCollection


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
    if len(source) == 0:
        raise ArgumentError("source must be non-empty")
    _check_vars(dist, source, "source")
    if not source.isdisjoint(target):
        raise ArgumentError("source and target variables overlap")

    tval = tuple(t) if isinstance(t, (tuple, list)) else (t,)
    if len(tval) != len(target):
        raise ArgumentError(f"target state {t!r} has wrong arity for {len(target)} variables")

    p_t = _marginal_pmf(dist, target.indices)
    if tval not in p_t:
        raise ArgumentError(f"target state {t!r} has zero probability")
    pt = p_t[tval]

    p_a = _marginal_pmf(dist, source.indices)
    joint = _marginal_pmf(dist, source.indices + target.indices)
    ns = len(source)
    total = 0.0
    for key, p in joint.items():
        if key[ns:] != tval:
            continue
        aval = key[:ns]
        p_a_given_t = p / pt
        p_t_given_a = p / p_a[aval]
        total += p_a_given_t * (math.log2(p_t_given_a) - math.log2(pt))
    return total


def imin_redundancy(
    dist: JointDistribution, target: VariableSet, collection: SourceCollection
) -> float:
    """Expected minimum specific information across the sources.

    Always non-negative: specific information equals the divergence
    between the source posterior given t and the source prior, so every
    term inside the minimum is itself non-negative.
    """
    _check_target(dist, target)
    p_t = _marginal_pmf(dist, target.indices)
    total = 0.0
    for tval, pt in p_t.items():
        total += pt * min(
            specific_information(dist, target, s.members, tval) for s in collection
        )
    return total


@dataclass(frozen=True)
class RedundancyLattice:
    """Antichain lattice used for the lattice decomposition.

    ``nodes`` are antichains of non-empty subsets of {1..n}, each node a
    tuple of sorted index tuples, listed bottom-up (every node appears
    after everything below it).  ``down_set(i)`` returns the indices of
    all nodes at or below node ``i``; ``covers(i)`` the immediate
    predecessors.
    """

    n: int
    nodes: tuple[tuple[tuple[int, ...], ...], ...]
    _leq: frozenset[tuple[int, int]]

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self._leq

    def down_set(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(len(self.nodes)) if self.leq(j, i))

    def covers(self, i: int) -> tuple[int, ...]:
        below = [j for j in range(len(self.nodes)) if j != i and self.leq(j, i)]
        out = []
        for j in below:
            if not any(k != j and self.leq(j, k) for k in below):
                out.append(j)
        return tuple(out)

    @property
    def top(self) -> int:
        full = (tuple(range(1, self.n + 1)),)
        return self.nodes.index(full)

    @property
    def bottom(self) -> int:
        singles = tuple((k,) for k in range(1, self.n + 1))
        return self.nodes.index(singles)


def redundancy_lattice(n: int) -> RedundancyLattice:
    """The lattice of source antichains for n predictors (n in {2, 3})."""
    if n not in (2, 3):
        raise UnsupportedError(f"redundancy lattice only built for 2 or 3 predictors, not {n}")

    subsets = []
    for r in range(1, n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), r))

    def is_antichain(col):
        return not any(
            a != b and set(a) <= set(b) for a in col for b in col
        )

    nodes = []
    for r in range(1, len(subsets) + 1):
        for col in itertools.combinations(subsets, r):
            if is_antichain(col):
                nodes.append(tuple(sorted(col, key=lambda s: (len(s), s))))

    def below(alpha, beta):
        return all(any(set(a) <= set(b) for a in alpha) for b in beta)

    # Counts must be taken before sorting: list.sort empties the list
    # while it runs, so a key function touching ``nodes`` would see [].
    depth = {nd: sum(below(m, nd) for m in nodes) for nd in nodes}
    nodes.sort(key=lambda nd: (depth[nd], nd))
    leq = frozenset(
        (i, j) for i in range(len(nodes)) for j in range(len(nodes)) if below(nodes[i], nodes[j])
    )
    return RedundancyLattice(n, tuple(nodes), leq)


def _node_label(node: tuple[tuple[int, ...], ...], names: Sequence[str]) -> str:
    return "".join("{" + ",".join(names[k - 1] for k in sub) + "}" for sub in node)


def wb_pid(dist: JointDistribution, target: VariableSet) -> PidResult:
    """Lattice decomposition of I(Y;T) over source antichains.

    Supports two or three predictor variables.  Atom labels are built
    from variable names, for example ``{Y1}{Y2}`` for the bottom node
    and ``{Y1,Y2}`` for the top.  The atoms are the Moebius inverse of
    the expected-minimum redundancy along the lattice and sum to the
    joint mutual information (checked to 1e-6).
    """
    src = _source_variables(dist, target)
    n = len(src)
    if n not in (2, 3):
        raise UnsupportedError(f"lattice decomposition handles 2 or 3 predictors, not {n}")
    lat = redundancy_lattice(n)
    names = [dist.var_names[v] for v in src]

    p_t = _marginal_pmf(dist, target.indices)
    si: dict[tuple[int, ...], dict[tuple, float]] = {}
    for r in range(1, n + 1):
        for sub in itertools.combinations(range(1, n + 1), r):
            vs = VariableSet(tuple(src[k - 1] for k in sub))
            si[sub] = {
                tval: specific_information(dist, target, vs, tval) for tval in p_t
            }

    imin = []
    for node in lat.nodes:
        imin.append(
            math.fsum(pt * min(si[sub][tval] for sub in node) for tval, pt in p_t.items())
        )

    atoms = [0.0] * len(lat.nodes)
    for i in range(len(lat.nodes)):
        atoms[i] = imin[i] - sum(atoms[j] for j in lat.down_set(i) if j != i)

    total = math.fsum(atoms)
    whole = _mi_lenient(dist, src, target.indices)
    if abs(total - whole) > 1e-6:
        raise ConsistencyError(
            f"lattice atoms sum to {total!r} but the joint information is {whole!r}"
        )
    return PidResult(
        {_node_label(node, names): a for node, a in zip(lat.nodes, atoms)}
    )


def wb_synergy(dist: JointDistribution, target: VariableSet) -> float:
    """The atom at the top lattice node, all predictors pooled as one source."""
    src = _source_variables(dist, target)
    names = [dist.var_names[v] for v in src]
    top = "{" + ",".join(names) + "}"
    return wb_pid(dist, target)[top]


def wb_union_information(dist: JointDistribution, target: VariableSet) -> float:
    """Sum of lattice atoms at nodes whose antichain mentions a lone predictor.

    These are the contributions accessible without pooling, so the
    complement I(Y;T) minus this sum is an alternative synergy reading
    of the same lattice.  For two predictors it coincides with
    I(Y;T) minus the top atom.
    """
    src = _source_variables(dist, target)
    n = len(src)
    lat = redundancy_lattice(n)
    names = [dist.var_names[v] for v in src]
    result = wb_pid(dist, target)
    total = 0.0
    for node in lat.nodes:
        if any(len(sub) == 1 for sub in node):
            total += result[_node_label(node, names)]
    return total


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


def _null_cells(p: np.ndarray, plans: list) -> np.ndarray:
    """Mask of cells that carry no mass in any distribution with the marginals.

    Cells under a zero marginal target are null outright.  A cell can
    also be forced to zero by a combination of constraints even though
    every marginal cell touching it is positive; proportional fitting
    approaches such zeros only at a polynomial rate, so they are found
    exactly here instead, by maximizing the cell's mass over the
    constraint polytope.  Zeroing them does not change the fit: the
    maximum-entropy distribution lives on the maximal feasible support.
    """
    mask = np.zeros(p.size, dtype=bool)
    for mapping, tvec in plans:
        mask |= tvec[mapping] <= 0.0

    candidates = np.flatnonzero(~mask & (p <= 0.0))
    if not candidates.size:
        return mask

    rows = [mapping == np.arange(tvec.size)[:, None] for mapping, tvec in plans]
    a_eq = np.vstack(rows).astype(float)
    b_eq = np.concatenate([tvec for _, tvec in plans])

    for i in candidates:
        c = np.zeros(p.size)
        c[i] = 1.0
        sol = solve_lp(c, a_eq, b_eq, maximize=True)
        if sol.status == "optimal" and sol.objective <= 1e-12:
            mask[i] = True
    return mask


def maxent_ipf(
    dist: JointDistribution,
    preserved_marginals: Sequence[VariableSet],
    max_sweeps: int = 10_000,
    tol: float = 1e-10,
) -> JointDistribution:
    """Maximum-entropy distribution with the given marginals of ``dist``.

    Starts from the uniform distribution on the full product alphabet
    and rescales toward each preserved marginal in the listed order
    until every marginal matches within ``tol`` (checked after each full
    sweep).  The preserved sets must jointly cover all variables.

    Raises :class:`~cipid.errors.IterationLimitError` with the residual
    if ``max_sweeps`` sweeps do not reach tolerance.
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

    p = _table(dist, range(dist.n_vars))
    x = np.full(p.size, 1.0 / p.size)
    plans = [
        (_cell_map(p.shape, vs.indices), _table(dist, vs.indices).ravel())
        for vs in preserved_marginals
    ]
    x[_null_cells(p.ravel(), plans)] = 0.0

    for sweep in range(max_sweeps):
        for mapping, tvec in plans:
            cur = np.bincount(mapping, weights=x, minlength=tvec.size)
            factor = np.divide(tvec, cur, out=np.zeros_like(tvec), where=cur > 0.0)
            x *= factor[mapping]
        residual = max(
            float(np.max(np.abs(np.bincount(mapping, weights=x, minlength=tvec.size) - tvec)))
            for mapping, tvec in plans
        )
        if residual < tol:
            break
    else:
        raise IterationLimitError(
            f"iterative scaling did not converge in {max_sweeps} sweeps", residual
        )

    return _from_table(dist, range(dist.n_vars), x.reshape(p.shape))


# ---------------------------------------------------------------------------
# dependency-constrained synergy
# ---------------------------------------------------------------------------


def dep_synergy(dist: JointDistribution, target: VariableSet) -> PidResult:
    """Synergy from dependency constraints, for exactly two predictors.

    Compares the true joint information against the larger of two
    reduced models: the conditional-independence surrogate q and the
    maximum-entropy distribution r that keeps each predictor-target
    pair and the predictor-predictor marginal.  Entries:

    - ``S``: I_p(Y;T) minus min(I_q(Y;T), I_r(Y;T))
    - ``U1``/``U2``: min over the two models of I(Y_i; T | Y_other)
    - ``I_q``/``I_r``: the two reduced joint informations
    """
    src = _source_variables(dist, target)
    if len(src) != 2:
        raise ArgumentError(
            f"dependency synergy is defined for exactly two predictors, found {len(src)}"
        )
    y1, y2 = src

    part = CiPartition((VariableSet.of(y1), VariableSet.of(y2)), (0, 1))
    q = build_q(dist, target, part)

    r = maxent_ipf(
        dist,
        [
            VariableSet(tuple((y1,) + target.indices)),
            VariableSet(tuple((y2,) + target.indices)),
            VariableSet((y1, y2)),
        ],
    )

    names_src = [dist.var_names[y1], dist.var_names[y2]]
    names_t = [dist.var_names[v] for v in target.indices]

    def joint_info(d):
        a = [d.index_of(nm) for nm in names_src]
        tt = [d.index_of(nm) for nm in names_t]
        return _mi_lenient(d, a, tt)

    def cond_info(d, keep, given):
        a = [d.index_of(keep)]
        g = [d.index_of(given)]
        tt = [d.index_of(nm) for nm in names_t]
        joint_ag = sorted(set(a) | set(g))
        return _mi_lenient(d, joint_ag, tt) - _mi_lenient(d, g, tt)

    i_p = joint_info(dist)
    i_q = joint_info(q)
    i_r = joint_info(r)

    s = _clamp_nonneg(i_p - min(i_q, i_r), "synergy")

    u1 = _clamp_nonneg(
        min(
            cond_info(q, names_src[0], names_src[1]),
            cond_info(r, names_src[0], names_src[1]),
        ),
        "unique information",
    )
    u2 = _clamp_nonneg(
        min(
            cond_info(q, names_src[1], names_src[0]),
            cond_info(r, names_src[1], names_src[0]),
        ),
        "unique information",
    )
    return PidResult({"S": s, "U1": u1, "U2": u2, "I_q": i_q, "I_r": i_r})


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
    src = _source_variables(dist, target)
    if len(src) != 2:
        raise ArgumentError(
            f"inclusion-exclusion decomposition needs exactly two predictors, found {len(src)}"
        )
    r = float(redundancy)
    if not math.isfinite(r):
        raise ArgumentError(f"redundancy must be finite, got {redundancy!r}")
    y1, y2 = src
    i1 = _mi_lenient(dist, [y1], target.indices)
    i2 = _mi_lenient(dist, [y2], target.indices)
    whole = _mi_lenient(dist, src, target.indices)
    u1 = i1 - r
    u2 = i2 - r
    s = whole - r - u1 - u2
    return PidResult({"R": r, "U1": u1, "U2": u2, "S": s, "I_total": whole})
