"""Channel orderings and the optimization-based union and redundancy measures.

Two optimizers live here.  ``degradation_redundancy`` climbs a convex
objective over the polytope of channels that every source channel can
be garbled into, hopping between linear-program vertices along the
gradient, so the reported value is a lower bound on the true supremum
and random restarts guard against poor local vertices.
``vk_union_information`` minimizes joint dependence over couplings with
fixed per-source conditionals; that problem is convex, so projected
gradient descent with an alternating projection onto the constraint set
converges to the global minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distribution import (
    Channel,
    JointDistribution,
    VariableSet,
    _check_target,
    _check_vars,
    _marginal_pmf,
    _mi_lenient,
    _source_variables,
    channel_from,
)
from .errors import ArgumentError, ConsistencyError, SolverError
from .simplex import solve_lp
from .sources import SourceCollection, normalize_sources

_MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class DegradationWitness:
    """A garbling matrix certifying one channel degrades into another.

    ``m_matrix[i, j]`` is the probability the garbling turns output i
    of the better channel into output j of the worse one.  ``residual``
    is the largest absolute difference between the garbled channel and
    the target channel.
    """

    m_matrix: np.ndarray
    residual: float

    def __post_init__(self):
        m = np.array(self.m_matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "m_matrix", m)


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of an optimization-defined measure.

    ``value`` is in bits.  ``argument`` is the optimizing object (a
    channel for the redundancy search, a joint distribution for the
    union minimization).  ``certificate`` is the analytic bound the
    value was checked against: an upper bound for maximizations, a
    lower bound for minimizations.  ``converged`` reports whether the
    solver stopped by its own criterion rather than an iteration cap.
    """

    value: float
    argument: object
    restarts_used: int
    certificate: float
    converged: bool

    def __post_init__(self):
        if self.converged and not math.isfinite(self.value):
            raise ConsistencyError(f"converged solve reported value {self.value!r}")


def _check_compatible(k: Channel, kp: Channel) -> None:
    if k.input_states != kp.input_states:
        raise ArgumentError(
            "channels must share the same input states; "
            f"got {k.input_states} and {kp.input_states}"
        )
    diff = float(np.max(np.abs(k.input_marginal - kp.input_marginal)))
    if diff > _MARGINAL_TOL:
        raise ArgumentError(f"input marginals differ by {diff:.3e}, beyond 1e-9")


def degradation_leq(
    k: Channel, kp: Channel, tol: float = 1e-8
) -> tuple[bool, DegradationWitness | None]:
    """Test whether ``k`` is a garbled version of ``kp``.

    Feasibility of k = kp @ M over row-stochastic M, decided by linear
    programming.  Returns the truth value and, when true, a witness
    with the garbling matrix and its residual.
    """
    _check_compatible(k, kp)
    nt = len(k.input_states)
    ny = len(k.output_alphabet)
    nyp = len(kp.output_alphabet)
    nv = nyp * ny

    rows = []
    rhs = []
    for t in range(nt):
        for y in range(ny):
            row = np.zeros(nv)
            row[y::ny] = kp.matrix[t]
            rows.append(row)
            rhs.append(k.matrix[t, y])
    for yp in range(nyp):
        row = np.zeros(nv)
        row[yp * ny : (yp + 1) * ny] = 1.0
        rows.append(row)
        rhs.append(1.0)

    sol = solve_lp(np.zeros(nv), np.array(rows), np.array(rhs))
    if sol.status != "optimal":
        return False, None
    m = sol.x.reshape(nyp, ny)
    residual = float(np.max(np.abs(kp.matrix @ m - k.matrix)))
    if residual > tol:
        return False, None
    return True, DegradationWitness(m, residual)


def _mi_tw(w: np.ndarray, k: np.ndarray) -> float:
    out = w @ k
    total = 0.0
    for t in range(k.shape[0]):
        for q in range(k.shape[1]):
            if k[t, q] > 0.0 and out[q] > 0.0:
                total += w[t] * k[t, q] * math.log2(k[t, q] / out[q])
    return max(total, 0.0)


def degradation_redundancy(
    dist: JointDistribution,
    target: VariableSet,
    collection: SourceCollection,
    restarts: int = 64,
    seed: int = 0,
    max_iters: int = 200,
) -> OptimizationReport:
    """Largest dependence on the target shared below every source channel.

    Maximizes I(Q;T) over channels Q that each source channel degrades
    into.  The feasible set is a polytope and the objective is convex,
    so every climb moves between vertices: linearize at the current
    point, solve for the best vertex, jump if it improves.  Starts once
    from the uniform channel and ``restarts`` more times from random
    vertices, keeping the best value (first found wins ties).  The
    output alphabet of Q has one letter per target state.

    The reported value is a lower bound on the supremum; the report's
    certificate is the upper bound min over sources of I(Y_i;T).
    """
    _check_target(dist, target)
    if restarts < 0:
        raise ArgumentError("restarts must be non-negative")

    channels = [channel_from(dist, target, s.members) for s in collection]
    w = channels[0].input_marginal
    nt = len(channels[0].input_states)
    n_out = nt
    mats = [ch.matrix for ch in channels]
    widths = [m.shape[1] for m in mats]
    offsets = np.concatenate([[0], np.cumsum([c * n_out for c in widths])])
    nv = int(offsets[-1])

    rows = []
    rhs = []
    for i in range(1, len(mats)):
        for t in range(nt):
            for q in range(n_out):
                row = np.zeros(nv)
                row[int(offsets[0]) + q : int(offsets[1]) : n_out] = mats[0][t]
                row[int(offsets[i]) + q : int(offsets[i + 1]) : n_out] -= mats[i][t]
                rows.append(row)
                rhs.append(0.0)
    for i, width in enumerate(widths):
        for r in range(width):
            row = np.zeros(nv)
            start = int(offsets[i]) + r * n_out
            row[start : start + n_out] = 1.0
            rows.append(row)
            rhs.append(1.0)
    a_eq = np.array(rows)
    b_eq = np.array(rhs)

    def kq_of(x: np.ndarray) -> np.ndarray:
        m1 = x[int(offsets[0]) : int(offsets[1])].reshape(widths[0], n_out)
        return mats[0] @ m1

    def objective(x: np.ndarray) -> float:
        return _mi_tw(w, kq_of(x))

    def linearized(x: np.ndarray) -> np.ndarray:
        kq = kq_of(x)
        out = w @ kq
        g = np.zeros((nt, n_out))
        for t in range(nt):
            for q in range(n_out):
                if kq[t, q] > 1e-15 and out[q] > 1e-15:
                    g[t, q] = w[t] * math.log2(kq[t, q] / out[q])
        c = np.zeros(nv)
        for r in range(widths[0]):
            for q in range(n_out):
                c[int(offsets[0]) + r * n_out + q] = float(mats[0][:, r] @ g[:, q])
        return c

    def vertex_toward(c: np.ndarray) -> np.ndarray:
        sol = solve_lp(c, a_eq, b_eq, maximize=True)
        if sol.status != "optimal":
            raise SolverError(f"vertex search came back {sol.status}")
        return sol.x

    rng = np.random.default_rng(seed)
    starts = [np.tile(np.full(n_out, 1.0 / n_out), sum(widths))]
    for _ in range(restarts):
        starts.append(vertex_toward(rng.standard_normal(nv)))

    best_val = -1.0
    best_x = None
    best_converged = False
    for x in starts:
        converged = False
        for _ in range(max_iters):
            s = vertex_toward(linearized(x))
            if objective(s) > objective(x) + 1e-12:
                x = s
            else:
                converged = True
                break
        val = objective(x)
        if val > best_val:
            best_val, best_x, best_converged = val, x, converged

    kq = np.clip(kq_of(best_x), 0.0, None)
    kq /= kq.sum(axis=1, keepdims=True)
    argument = Channel(
        channels[0].input_states, w, tuple(range(n_out)), kq
    )
    certificate = min(ch.mutual_information() for ch in channels)
    return OptimizationReport(
        value=best_val,
        argument=argument,
        restarts_used=restarts + 1,
        certificate=certificate,
        converged=best_converged,
    )


# ---------------------------------------------------------------------------
# union information by minimization over couplings
# ---------------------------------------------------------------------------


def vk_union_information(
    dist: JointDistribution,
    target: VariableSet,
    collection: SourceCollection,
    tol: float = 1e-9,
    max_iters: int = 5000,
) -> OptimizationReport:
    """Least joint dependence consistent with every source-target channel.

    Minimizes I(A;T) over conditionals p*(a|t) on the pooled source
    alphabet whose per-source marginals match the true conditionals
    p(a_i|t) for every target state.  The problem is convex; projected
    gradient descent is run from the true conditional and from the
    conditional-independence product, with the projection onto the
    constraint set computed by alternating between the affine part and
    the non-negativity part.  Callers should pass a collection that is
    already normalized; redundant sources only slow the solve down.

    The report's certificate is the lower bound max over sources of
    I(A_i;T); its argument is the optimizing joint distribution over
    the pooled sources and the target.
    """
    _check_target(dist, target)
    for s in collection:
        _check_vars(dist, s.members, "source")
        if not s.members.isdisjoint(target):
            raise ArgumentError("sources must not contain target variables here")

    t_idx = target.indices
    pooled = collection.union().indices
    p_t = _marginal_pmf(dist, t_idx)
    tvals = sorted(p_t)
    avals = list(itertools.product(*(dist.alphabets[v] for v in pooled)))
    nt, na = len(tvals), len(avals)
    w = np.array([p_t[tv] for tv in tvals])

    # one constraint row per source value; right-hand sides vary with t
    rows = []
    rhs = [[] for _ in range(nt)]
    for src in collection:
        s_idx = src.members.indices
        s_pos = [pooled.index(v) for v in s_idx]
        joint = _marginal_pmf(dist, s_idx + t_idx)
        ns = len(s_idx)
        svals = sorted({tuple(av[j] for j in s_pos) for av in avals})
        cond = {}
        for key, p in joint.items():
            cond[(key[ns:], key[:ns])] = cond.get((key[ns:], key[:ns]), 0.0) + p
        for sv in svals:
            rows.append([1.0 if tuple(av[j] for j in s_pos) == sv else 0.0 for av in avals])
            for ti, tv in enumerate(tvals):
                rhs[ti].append(cond.get((tv, sv), 0.0) / p_t[tv])
    a_mat = np.array(rows)
    b_mat = np.array(rhs)
    a_pinv = np.linalg.pinv(a_mat)

    def proj_affine(x: np.ndarray) -> np.ndarray:
        return x - (a_mat @ x.T - b_mat.T).T @ a_pinv.T

    def project(x0: np.ndarray, iters: int = 20000) -> np.ndarray:
        x = x0.copy()
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        for _ in range(iters):
            y = proj_affine(x + p)
            p = x + p - y
            x_new = np.maximum(y + q, 0.0)
            q = y + q - x_new
            if float(np.max(np.abs(x_new - x))) < 1e-14:
                return x_new
            x = x_new
        if float(np.max(np.abs(a_mat @ x.T - b_mat.T))) > 1e-8:
            raise SolverError("projection onto the coupling constraints did not converge")
        return x

    eps = 1e-18

    def f(x: np.ndarray) -> float:
        xb = w @ x
        z = x * np.log2(np.maximum(x, eps) / np.maximum(xb, eps)[None, :])
        z[x <= 0.0] = 0.0
        return float(w @ z.sum(axis=1))

    def grad(x: np.ndarray) -> np.ndarray:
        xb = w @ x
        return w[:, None] * np.log2(np.maximum(x, eps) / np.maximum(xb, eps)[None, :])

    # start 1: the true conditional p(a|t)
    joint_at = _marginal_pmf(dist, tuple(pooled) + t_idx)
    npool = len(pooled)
    aval_pos = {av: i for i, av in enumerate(avals)}
    tval_pos = {tv: i for i, tv in enumerate(tvals)}
    x_true = np.zeros((nt, na))
    for key, p in joint_at.items():
        x_true[tval_pos[key[npool:]], aval_pos[key[:npool]]] += p / p_t[key[npool:]]

    # start 2: product of per-source conditionals, renormalized
    x_prod = np.ones((nt, na))
    for src in collection:
        s_idx = src.members.indices
        s_pos = [pooled.index(v) for v in s_idx]
        joint = _marginal_pmf(dist, s_idx + t_idx)
        ns = len(s_idx)
        cond: dict[tuple, float] = {}
        for key, p in joint.items():
            cond[(key[ns:], key[:ns])] = cond.get((key[ns:], key[:ns]), 0.0) + p / p_t[key[ns:]]
        for ti, tv in enumerate(tvals):
            for ai, av in enumerate(avals):
                x_prod[ti, ai] *= cond.get((tv, tuple(av[j] for j in s_pos)), 0.0)
    x_prod /= np.maximum(x_prod.sum(axis=1, keepdims=True), eps)

    best_f = math.inf
    best_x = None
    any_converged = False
    for x0 in (x_true, x_prod):
        x = project(x0)
        fx = f(x)
        eta = 0.5
        converged = False
        for _ in range(max_iters):
            g = grad(x)
            improved = False
            rel = math.inf
            while eta > 1e-13:
                xn = project(x - eta * g)
                fn = f(xn)
                if fn < fx - 1e-13:
                    rel = (fx - fn) / max(abs(fx), 1e-12)
                    x, fx = xn, fn
                    improved = True
                    eta = min(eta * 2.0, 4.0)
                    break
                eta *= 0.5
            if not improved:
                converged = True
                break
            if rel < tol:
                converged = True
                break
        if fx < best_f:
            best_f, best_x = fx, x
        any_converged = any_converged or converged

    residual = float(np.max(np.abs(a_mat @ best_x.T - b_mat.T)))
    if residual > 1e-7:
        raise SolverError(
            f"optimizer left the constraint set (residual {residual:.3e})"
        )

    vars_out = sorted(set(pooled) | set(t_idx))
    pos = {v: k for k, v in enumerate(vars_out)}
    mass = float(w @ best_x.sum(axis=1))
    pmf: dict[tuple, float] = {}
    for ti, tv in enumerate(tvals):
        for ai, av in enumerate(avals):
            p = w[ti] * best_x[ti, ai] / mass
            if p <= 0.0:
                continue
            outcome = [None] * len(vars_out)
            for v, sym in zip(t_idx, tv):
                outcome[pos[v]] = sym
            for v, sym in zip(pooled, av):
                outcome[pos[v]] = sym
            key = tuple(outcome)
            pmf[key] = pmf.get(key, 0.0) + p
    argument = JointDistribution(
        tuple(dist.var_names[v] for v in vars_out),
        pmf,
        alphabets=tuple(dist.alphabets[v] for v in vars_out),
    )

    certificate = max(
        _mi_lenient(dist, s.members.indices, t_idx) for s in collection
    )
    return OptimizationReport(
        value=best_f,
        argument=argument,
        restarts_used=2,
        certificate=certificate,
        converged=any_converged,
    )


def s_d(
    dist: JointDistribution,
    target: VariableSet,
    collection: SourceCollection | None = None,
) -> float:
    """Synergy as joint information minus the minimized union information.

    With ``collection`` omitted, every non-target variable becomes a
    singleton source.  The collection is normalized before the solve.
    Values in a small negative rounding band are clamped to zero;
    solver failures propagate.
    """
    src = _source_variables(dist, target)
    if collection is None:
        collection = SourceCollection.singletons(src)
    norm = normalize_sources(dist, collection)
    i_total = _mi_lenient(dist, src, target.indices)
    report = vk_union_information(dist, target, norm)
    s = i_total - report.value
    if s < 0.0:
        if s < -1e-9:
            raise ConsistencyError(f"synergy came out {s}, beyond -1e-9")
        return 0.0
    return s
