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

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (
    Channel,
    JointDistribution,
    VariableSet,
    _cell_map,
    _channel_information,
    _check_target,
    _check_vars,
    _clamp_nonneg,
    _dense_shape,
    _from_table,
    _mi_lenient,
    _source_variables,
    _table,
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
        return _channel_information(w, kq_of(x))

    def linearized(x: np.ndarray) -> np.ndarray:
        kq = kq_of(x)
        out = w @ kq
        ok = (kq > 1e-15) & (out > 1e-15)
        g = w[:, None] * np.log2(np.where(ok, kq, 1.0) / np.where(ok, out, 1.0))
        c = np.zeros(nv)
        c[int(offsets[0]) : int(offsets[1])] = (mats[0].T @ g).ravel()
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
    p_t = _table(dist, t_idx).ravel()
    live = p_t > 0.0
    w = p_t[live]
    eps = 1e-18

    def given_t(idx: tuple[int, ...]) -> np.ndarray:
        """p(idx | t), one row per target state of positive mass."""
        return _table(dist, t_idx + idx).reshape(p_t.size, -1)[live] / w[:, None]

    # start 1 is the true conditional p(a|t), start 2 the renormalized
    # product of the per-source conditionals; each source value gives one
    # constraint row, whose right-hand side varies with t
    x_true = given_t(pooled)
    shape = _dense_shape(dist, pooled)
    x_prod = np.ones_like(x_true)
    rows, rhs = [], []
    for src in collection:
        value = _cell_map(shape, [pooled.index(v) for v in src.members.indices])
        cond = given_t(src.members.indices)
        rows.append(value == np.arange(cond.shape[1])[:, None])
        rhs.append(cond)
        x_prod *= cond[:, value]
    x_prod /= np.maximum(x_prod.sum(axis=1, keepdims=True), eps)
    a_mat = np.vstack(rows).astype(float)
    b_mat = np.hstack(rhs)
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

    def f(x: np.ndarray) -> float:
        xb = w @ x
        z = x * np.log2(np.maximum(x, eps) / np.maximum(xb, eps)[None, :])
        z[x <= 0.0] = 0.0
        return float(w @ z.sum(axis=1))

    def grad(x: np.ndarray) -> np.ndarray:
        xb = w @ x
        return w[:, None] * np.log2(np.maximum(x, eps) / np.maximum(xb, eps)[None, :])

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

    joint = np.zeros((p_t.size, best_x.shape[1]))
    joint[live] = w[:, None] * best_x / float(w @ best_x.sum(axis=1))
    joint = joint.reshape(_dense_shape(dist, t_idx) + shape)
    argument = _from_table(
        dist, sorted(t_idx + pooled), joint.transpose(np.argsort(t_idx + pooled))
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
    return _clamp_nonneg(i_total - report.value, "synergy")
