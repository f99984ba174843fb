"""Channel orderings and the optimization-based union and redundancy measures.

Two optimizers live here, and each reports a bracket [lower, upper] that
holds the true optimum.  ``degradation_redundancy`` climbs a convex
objective over the polytope of channels that every source channel can
be garbled into, hopping between linear-program vertices along the
gradient; its value is reached by a garbling, so it is the lower end,
and min over sources of I(Y_i;T) is the upper end.
``vk_union_information`` minimizes joint dependence over couplings with
fixed per-source conditionals, a convex problem; its value is reached by
a coupling, so it is the upper end, and the value minus its Frank-Wolfe
gap is the lower end.
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
from .simplex import _Polytope, _relative_interior_point, solve_lp
from .sources import SourceCollection, normalize_sources

_MARGINAL_TOL = 1e-9
_GARBLING_TOL = 1e-8
_CLIMB_STEPS = 200
_GAP_TOL = 1e-9
_NEWTON_STEPS = 5000


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
    """Outcome of an optimization-defined measure, with its bracket.

    ``value`` is in bits.  ``argument`` is the optimizing object (a
    channel for the redundancy search, a joint distribution for the
    union minimization).  ``converged`` reports whether the solver
    stopped by its own criterion rather than an iteration cap.  The true
    optimum lies in [``lower``, ``upper``], and ``value`` is one of the
    two ends.  For the redundancy search ``lower`` is the value and
    ``upper`` is min over sources of I(Y_i;T).  For the union
    minimization ``upper`` is the value and ``lower`` is the value minus
    its Frank-Wolfe gap, proven only up to the simplex's absolute
    reduced-cost tolerance of 1e-10 per certificate LP, not up to
    rounding; there ``converged`` means the gap is within 1e-9.
    """

    value: float
    argument: object
    converged: bool
    lower: float
    upper: float

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


def degradation_leq(k: Channel, kp: Channel) -> tuple[bool, DegradationWitness | None]:
    """Test whether ``k`` is a garbled version of ``kp``.

    Feasibility of k = kp @ M over row-stochastic M, decided by linear
    programming.  Returns the truth value and, when true, a witness
    with the garbling matrix and its residual, which is at most 1e-8.
    """
    _check_compatible(k, kp)
    ny = len(k.output_alphabet)
    nyp = len(kp.output_alphabet)
    # unknowns M[yp, y] in row-major order: K = K'M, then unit row sums of M
    a_eq = np.vstack([np.kron(kp.matrix, np.eye(ny)), np.kron(np.eye(nyp), np.ones((1, ny)))])
    b_eq = np.concatenate([k.matrix.ravel(), np.ones(nyp)])
    sol = solve_lp(np.zeros(nyp * ny), a_eq, b_eq)
    if sol.status != "optimal":
        return False, None
    m = sol.x.reshape(nyp, ny)
    residual = float(np.max(np.abs(kp.matrix @ m - k.matrix)))
    if residual > _GARBLING_TOL:
        return False, None
    return True, DegradationWitness(m, residual)


def degradation_redundancy(
    dist: JointDistribution,
    target: VariableSet,
    collection: SourceCollection,
    restarts: int = 64,
    seed: int = 0,
) -> OptimizationReport:
    """Largest dependence on the target shared below every source channel.

    Maximizes I(Q;T) over channels Q that each source channel degrades
    into.  The feasible set is a polytope and the objective is convex,
    so every climb moves between vertices: linearize at the current
    point, solve for the best vertex, jump if it improves.  Starts once
    from the uniform channel and ``restarts`` more times from random
    vertices, keeping the best value (first found wins ties).  Each
    climb takes at most 200 steps; the report is converged when the best
    climb stopped before that.  The restart vertices come from one
    stacked solve of ``restarts`` random objectives, drawn as one array.
    The climbs then move in lockstep: each round solves the step LPs of
    the live climbs' new vertices as one stacked solve.  Climbs meet at
    the same vertices, so each distinct vertex has its step LP solved,
    and its value computed, once per call.  The
    output alphabet of Q has one letter per target state, which can miss
    the supremum even for a lone source: with mass 1/3 at (T, Y1, Y2) =
    (0, 0, 0), (1, 1, 1) and 1/6 at (0, 2, 2), (1, 2, 2), {Y1} gives
    0.4591 < I(Y1;T) = 0.6667, which three letters reach.

    The report's bracket is [value, min over sources of I(Y_i;T)].
    """
    _check_target(dist, target)
    if restarts < 0:
        raise ArgumentError("restarts must be non-negative")
    if seed < 0:
        raise ArgumentError(f"seed must be non-negative, got {seed}")

    channels = [channel_from(dist, target, s.members) for s in collection]
    w = channels[0].input_marginal
    nt = len(channels[0].input_states)
    n_out = nt
    mats = [ch.matrix for ch in channels]
    widths = [m.shape[1] for m in mats]
    offsets = np.cumsum([0] + [c * n_out for c in widths]).tolist()
    nv = offsets[-1]

    # unknowns M_i[y, q] block by block; K_0 M_0 = K_i M_i, then unit row sums
    eye = np.eye(n_out)
    coupling = np.zeros((len(mats) - 1, nt * n_out, nv))
    for i, block in enumerate(coupling, start=1):
        block[:, : offsets[1]] = np.kron(mats[0], eye)
        block[:, offsets[i] : offsets[i + 1]] -= np.kron(mats[i], eye)
    a_eq = np.vstack([coupling.reshape(-1, nv), np.kron(np.eye(sum(widths)), np.ones((1, n_out)))])
    b_eq = np.concatenate([np.zeros(len(a_eq) - sum(widths)), np.ones(sum(widths))])
    polytope = _Polytope(a_eq, b_eq)

    def kq_of(x: np.ndarray) -> np.ndarray:
        m1 = x[offsets[0] : offsets[1]].reshape(widths[0], n_out)
        return mats[0] @ m1

    def objective(x: np.ndarray) -> float:
        return _channel_information(w, kq_of(x))

    def linearized(x: np.ndarray) -> np.ndarray:
        kq = kq_of(x)
        out = w @ kq
        ok = (kq > 1e-15) & (out > 1e-15)
        g = w[:, None] * np.log2(np.where(ok, kq, 1.0) / np.where(ok, out, 1.0))
        c = np.zeros(nv)
        c[offsets[0] : offsets[1]] = (mats[0].T @ g).ravel()
        return c

    def vertex(sol) -> np.ndarray:
        if sol.status != "optimal":
            raise SolverError(f"vertex search came back {sol.status}")
        return sol.x

    # one (restarts, nv) draw is the same stream as `restarts` draws of nv
    rng = np.random.default_rng(seed)
    xs = [np.tile(np.full(n_out, 1.0 / n_out), sum(widths))]
    xs += map(vertex, polytope.solve(rng.standard_normal((restarts, nv)), maximize=True))

    # the climb step and the value are functions of x alone, and climbs
    # meet at the same vertices: the climbs move in lockstep, each round
    # solving the steps of its new vertices as one stack, and each
    # distinct vertex has its step solved, and its value computed, once
    steps: dict[bytes, np.ndarray] = {}
    values: dict[bytes, float] = {}

    def value(x: np.ndarray) -> float:
        key = x.tobytes()
        if key not in values:
            values[key] = objective(x)
        return values[key]

    vals = [value(x) for x in xs]
    live = list(range(len(xs)))
    for _ in range(_CLIMB_STEPS):
        new: dict[bytes, np.ndarray] = {}
        for i in live:
            key = xs[i].tobytes()
            if key not in steps:
                new.setdefault(key, xs[i])
        if new:
            objs = np.array([linearized(x) for x in new.values()])
            steps.update(zip(new, map(vertex, polytope.solve(objs, maximize=True))))
        moving = []
        for i in live:
            s = steps[xs[i].tobytes()]
            s_val = value(s)
            if s_val > vals[i] + 1e-12:
                xs[i], vals[i] = s, s_val
                moving.append(i)
        live = moving
        if not live:
            break

    best = max(range(len(xs)), key=vals.__getitem__)
    best_val = vals[best]

    kq = np.clip(kq_of(xs[best]), 0.0, None)
    kq /= kq.sum(axis=1, keepdims=True)
    argument = Channel(
        channels[0].input_states, w, tuple(range(n_out)), kq
    )
    return OptimizationReport(
        value=best_val,
        argument=argument,
        converged=best not in live,
        lower=best_val,
        upper=min(ch.mutual_information() for ch in channels),
    )


# ---------------------------------------------------------------------------
# union information by minimization over couplings
# ---------------------------------------------------------------------------


def _barrier_newton(
    w: np.ndarray,
    a_mat: np.ndarray,
    support: np.ndarray,
    x0: np.ndarray,
    gap0: float,
    fw_gap,
) -> tuple[np.ndarray, float]:
    """Minimize I(A;T) over the couplings by a log-barrier Newton method.

    Damped Newton minimizes tau*f - sum log x over the cells of
    ``support``, from the feasible ``x0``; tau starts at m/gap0 and grows
    twentyfold until m/tau < 1e-9, where m is the number of support cells
    (Boyd & Vandenberghe, section 11.3), and at most twice more while the
    Frank-Wolfe gap is above 1e-9.  Each step moves row t by
    N_t dz_t, with N_t a basis of the null space of ``a_mat`` on the
    support of row t, so every iterate keeps the constraints up to
    rounding.  The basis is taken as diag(x_t) times an orthonormal null
    basis of ``a_mat`` diag(x_t), which makes the barrier part of the
    reduced Hessian the identity: the Newton system stays well scaled as
    cells approach zero.  It takes at most 5000 Newton steps.  Returns
    the couplings and their Frank-Wolfe gap.
    """
    t_of, cell_of = np.nonzero(support)
    m = t_of.size
    edges = np.concatenate([[0], np.cumsum(support.sum(axis=1))])
    ranks = [np.linalg.matrix_rank(a_mat[:, row]) for row in support]
    dim = m - sum(ranks)
    # mix maps support cells to the column masses r_a = sum_t w_t x_ta
    used, col = np.unique(cell_of, return_inverse=True)
    wk = w[t_of]
    mix = np.zeros((used.size, m))
    mix[col, np.arange(m)] = wk
    ln2 = math.log(2.0)

    def phi(x: np.ndarray, tau: float) -> float:
        return tau * float(wk @ (x * np.log2(x / (mix @ x)[col]))) - float(np.log(x).sum())

    x = x0[support]
    out = np.zeros(support.shape)
    tau = m / gap0
    steps = 0
    while steps < _NEWTON_STEPS and dim:
        last = math.inf
        for _ in range(_NEWTON_STEPS - steps):
            basis = np.zeros((m, dim))
            c0 = 0
            for t, row in enumerate(support):
                lo, hi = edges[t], edges[t + 1]
                k = hi - lo - ranks[t]
                if k:
                    vt = np.linalg.svd(a_mat[:, row] * x[lo:hi])[2]
                    basis[lo:hi, c0 : c0 + k] = vt[ranks[t] :].T
                    c0 += k
            r = mix @ x
            c = tau / ln2
            mixed = (mix * x) @ basis
            grad = basis.T @ (tau * wk * x * np.log2(x / r[col]) - 1.0)
            hess = basis.T @ ((c * wk * x + 1.0)[:, None] * basis) - c * mixed.T @ (mixed / r[:, None])
            dv = -np.linalg.solve(hess, grad)
            lam2 = -float(grad @ dv)
            # centred, or at the rounding floor: the decrement stopped
            # falling quadratically
            if not lam2 > 1e-10 or (lam2 < 1e-6 and lam2 > last / 4.0):
                break
            last = lam2
            du = basis @ dv
            shrink = du < 0.0
            alpha = min(1.0, 0.99 / float(np.max(-du[shrink]))) if shrink.any() else 1.0
            if lam2 > 0.1:
                # far from the centre: backtrack until phi falls enough
                here = phi(x, tau)
                while alpha > 1e-12 and phi(x * (1.0 + alpha * du), tau) > here - 0.25 * alpha * lam2:
                    alpha *= 0.5
            x = x * (1.0 + alpha * du)
            steps += 1
        if m / tau < _GAP_TOL:
            out[support] = x
            gap = fw_gap(out)
            if gap <= _GAP_TOL or m / tau < _GAP_TOL / 400.0:
                return out, gap
        tau *= 20.0
    out[support] = x
    return out, fw_gap(out)


def vk_union_information(
    dist: JointDistribution,
    target: VariableSet,
    collection: SourceCollection,
) -> OptimizationReport:
    """Least joint dependence consistent with every source-target channel.

    Minimizes I(A;T) over conditionals p*(a|t) on the pooled source
    alphabet whose per-source marginals match the true conditionals
    p(a_i|t) for every target state: the Griffith-Koch union program,
    for two sources the BROJA program.  The problem is convex.  It
    returns at once from the true conditional or from the start point
    when their Frank-Wolfe gap is within 1e-9; otherwise a log-barrier
    Newton method runs from the start point, in the null space of the
    constraints, for at most 5000 Newton steps.  The start is
    the product of the per-source conditionals for disjoint sources, and
    for overlapping ones the point that
    :func:`~cipid.simplex._relative_interior_point` finds from the true
    conditional of each target state.  Callers should pass a collection
    that is already normalized; redundant sources only slow the solve down.

    The gap is <grad f(x), x> - min over couplings s of <grad f(x), s>,
    one linear program per target state; by convexity the minimum is at
    least the value minus the gap.  The report's bracket is
    [value - gap, value], and ``converged`` means the gap is within
    1e-9.  Its argument is the optimizing joint distribution over the
    pooled sources and the target.
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

    # x_true is the true conditional p(a|t), x_prod the renormalized
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

    # a relative-interior start, whose positive cells are the maximal
    # support of the couplings: the product is one for disjoint sources
    if sum(len(s.members) for s in collection) == len(pooled):
        x0 = x_prod
    else:
        x0 = np.array([_relative_interior_point(a_mat, b, x) for b, x in zip(b_mat, x_true)])
    support = x0 > 0.0
    # the couplings of each target state, prepared once for every gap
    polytopes = [_Polytope(a_mat[:, cells], b) for cells, b in zip(support, b_mat)]

    def fw_gap(x: np.ndarray) -> float:
        """Frank-Wolfe gap f(x) - min over couplings s of <grad f(x), s>.

        f(x) is I(A;T) of the couplings ``x``, their channel information
        under the target weights ``w``.  f is convex, so the gap bounds
        f(x) minus the minimum.  A cell that is zero in every row gets the
        subgradient 0; a zero cell of the support under a positive column
        mass has slope -inf, so the gap is infinite there.
        """
        r = w @ x
        on = x > 0.0
        if np.any(support & ~on & (r > 0.0)[None, :]):
            return math.inf
        g = w[:, None] * np.log2(np.where(on, x, 1.0) / np.where(on, r, 1.0))
        low = 0.0
        for t, polytope in enumerate(polytopes):
            sol = polytope.solve(g[t, support[t]])
            if sol.status != "optimal":
                raise SolverError(f"certificate LP came back {sol.status}")
            low += sol.objective
        # the simplex stops at reduced costs of -1e-10, and rounding can put
        # its optimum a hair above f(x); a gap is never negative
        return max(_channel_information(w, x) - low, 0.0)

    best_x, gap = x0, fw_gap(x0)
    if gap > _GAP_TOL:
        gap_true = fw_gap(x_true)
        if gap_true <= _GAP_TOL:
            best_x, gap = x_true, gap_true
        else:
            best_x, gap = _barrier_newton(w, a_mat, support, x0, gap, fw_gap)

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

    value = _channel_information(w, best_x)
    return OptimizationReport(
        value=value,
        argument=argument,
        converged=gap <= _GAP_TOL,
        lower=value - gap,
        upper=value,
    )


def _union_report(
    dist: JointDistribution, target: VariableSet, collection: SourceCollection
) -> OptimizationReport:
    """The union minimization of the normalized collection."""
    return vk_union_information(dist, target, normalize_sources(dist, collection))


def _converged_value(report: OptimizationReport, what: str) -> float:
    """``report.value``; SolverError naming its bracket unless the solve converged."""
    if not report.converged:
        raise SolverError(
            f"{what} stopped unconverged at its iteration cap: the optimum lies in "
            f"[{report.lower:.6f}, {report.upper:.6f}] bits, gap {report.upper - report.lower:.3e}"
        )
    return report.value


def s_d(
    dist: JointDistribution,
    target: VariableSet,
    collection: SourceCollection | None = None,
) -> float:
    """Synergy as joint information minus the minimized union information.

    With ``collection`` omitted, every non-target variable becomes a
    singleton source.  The collection is normalized before the solve.
    Values in a small negative rounding band are clamped to zero;
    solver failures propagate, and an unconverged minimization raises
    :class:`~cipid.errors.SolverError` naming its bracket.
    """
    src = _source_variables(dist, target)
    if collection is None:
        collection = SourceCollection.singletons(src)
    i_total = _mi_lenient(dist, src, target.indices)
    union = _converged_value(_union_report(dist, target, collection), "union minimization")
    return _clamp_nonneg(i_total - union, "synergy")
