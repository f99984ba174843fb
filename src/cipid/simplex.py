"""Dense two-phase simplex solver for equality-form linear programs.

Solves min (or max) of c.x subject to A x = b and x >= 0.  Bland's rule
is used for both the entering and the leaving choice, which rules out
cycling on the degenerate programs that show up in channel-ordering
feasibility tests.  The tableau is a dense numpy array.  Sizes range
from a few rows for a garbling test to 272 x 256 for ``i_cap_d``.  The
constraint matrices of those programs are mostly zeros, so a pivot
updates only the rows with a nonzero entry in the pivot column; the
other rows would be left unchanged by the update anyway.  A pivot
entry must exceed ``_PIVOT_TOL`` (1e-7): at 1e-9, phase 1 took entries
of rounding noise, 1e-9 to 1e-8, as pivots and drove basic values far
below 0.  The ratio test counts a basic value that drifted below 0 as
0.  An optimum whose basic values drifted below ``-_FEAS_TOL``, or that
misses ``a_eq x = b_eq`` by more than ``_FEAS_TOL``, raises
``SolverError`` instead of being clamped or returned.

Phase 1 depends on the constraints alone, so it runs once per
polytope: ``_Polytope`` does phase 1 and drops the dependent rows, and
its ``solve`` runs phase 2.  ``degradation_redundancy`` solves all of
its LPs on one polytope, in one stacked call for the restarts and one
per climb round: 69 LPs in 2 calls on AND, 139 in 3 on RDNUNQXOR.  Its
phase 2 keeps 106 of 272 rows on RDNUNQXOR, 12 of 15 on BOOM and 6 of 8
on AND.  ``solve_lp`` prepares a polytope for a single objective.

``solve`` takes one objective or a (k, n) stack of them, cuts the stack
into slices of ``_STACK`` and picks the runner by each slice's length.
A slice of ``_MIN_STACK`` (4) or more runs phase 2 for every objective
in lockstep: each Bland step is one array expression over the tableaux
still running.  A shorter slice, a single objective or the tail of a
65-objective stack included, runs one objective at a time on the
scalar runner, with the leaving-row rule as a loop.  The
runners share the cost-row build, and their leaving-row rules pick the
same row, so a stacked solve equals k single solves bit for bit.  At
these tableau sizes a pivot costs numpy call overhead rather than
arithmetic, so each runner wins on its own shape.  On one
``lp_polytope`` round (2-core Xeon, Python 3.11, numpy 2.4), its 1,875
to 1,887 stacked LPs, the restarts and climb steps of ``i_cap_d``, took
0.10-0.19 s in their 41 stacked calls and 0.20-0.39 s one at a time.
Its 25 to 34 single LPs took 6-8 ms on the scalar runner and 15-19 ms
as stacks of one.  On the stacks of 2 to 4 of ``lp_polytope`` seed 1,
rounds 0-2 (best of 7), stacks of 2 took 2.9 ms stacked against 1.7 ms
one at a time, stacks of 3 4.6 against 3.7 ms, and stacks of 4 3.8
against 4.1 ms.

``_relative_interior_point`` finds the maximal support of a polytope in
a few LPs, for the maximum-entropy fit and the coupling start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, SolverError

_PIVOT_TOL = 1e-7
_COST_TOL = 1e-10
_FEAS_TOL = 1e-8
_MAX_PIVOTS = 50_000
_NO_ROW = np.iinfo(np.intp).max  # above every basic variable
_STACK = 16  # objectives per lockstep slice; larger stacks raise peak memory
_MIN_STACK = 4  # fewer objectives run one at a time, which is faster


@dataclass(frozen=True)
class LpSolution:
    """Outcome of one solve.

    ``status`` is ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
    ``x`` and ``objective`` are populated only for optimal solves.
    """

    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    pivot_row = tab[row] / tab[row, col]
    rows = tab[:, col].nonzero()[0]
    tab[rows] -= tab[rows, col, None] * pivot_row
    tab[row] = pivot_row
    basis[row] = col


def _leaving_row(rhs: np.ndarray, col: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Bland's leaving choice for a stack of tableaux, or -1 where no row qualifies.

    Along the last axis, over the rows whose entering-column entry passes
    ``_PIVOT_TOL``, take the least ratio of max(rhs, 0) to that entry;
    among the rows within 1e-12 of it, pick the one with the lowest basic
    variable.  A basic value that drifted below 0 counts as 0, so it
    cannot win at a negative ratio and send the entering variable
    negative.  ``_leaving_row_of`` is the same rule for one tableau.
    """
    if not col.shape[-1]:
        return np.full(col.shape[:-1], -1)
    ok = col > _PIVOT_TOL
    ratio = np.divide(np.maximum(rhs, 0.0), col, out=np.full(col.shape, np.inf), where=ok)
    best = ratio.min(axis=-1)
    leave = np.where(ratio <= best[..., None] + 1e-12, basis, _NO_ROW).argmin(axis=-1)
    return np.where(best < np.inf, leave, -1)


def _leaving_row_of(rhs: np.ndarray, col: np.ndarray, basis: list[int]) -> int:
    """``_leaving_row`` for one tableau, as a loop over the eligible rows.

    On one tableau of a few dozen rows the loop takes about a third of
    the time of the array form, whose cost is numpy call overhead.  Both
    compare the same IEEE ratios, so they pick the same row.
    """
    rows = (col > _PIVOT_TOL).nonzero()[0].tolist()
    if not rows:
        return -1
    rhs, col = rhs.tolist(), col.tolist()
    ratios = [max(rhs[i], 0.0) / col[i] for i in rows]
    cut = min(ratios) + 1e-12
    return min((basis[i], i) for i, ratio in zip(rows, ratios) if ratio <= cut)[1]


def _run_simplex(tab: np.ndarray, basis: list[int]) -> str:
    """Pivot to optimality by Bland's rule; the last row and column hold costs and rhs."""
    costs = tab[-1, :-1]
    if not costs.size:
        return "optimal"  # no column can enter
    for _ in range(_MAX_PIVOTS):
        improving = costs < -_COST_TOL
        enter = int(improving.argmax())
        if not improving[enter]:
            return "optimal"
        leave = _leaving_row_of(tab[:-1, -1], tab[:-1, enter], basis)
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, leave, enter)
    raise SolverError("simplex exceeded its pivot budget")


def _run_stacked(tabs: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_run_simplex`` on a (k, rows, columns) stack of tableaux in lockstep.

    Each step is one array expression over the tableaux still running,
    with the same per-entry arithmetic as ``_pivot``, so every tableau
    ends as it would alone.  A tableau leaves the stack once it is
    optimal or unbounded.  Returns, per tableau, whether it is optimal,
    and its final rhs column and basis.
    """
    k = len(tabs)
    if tabs.shape[2] == 1:
        return np.ones(k, dtype=bool), tabs[:, :-1, -1], basis  # no column can enter
    optimal = np.zeros(k, dtype=bool)
    rhs_out = np.zeros((k, basis.shape[1]))
    basis_out = basis.copy()
    live = np.arange(k)
    for _ in range(_MAX_PIVOTS):
        at = np.arange(live.size)
        improving = tabs[:, -1, :-1] < -_COST_TOL
        enter = improving.argmax(axis=1)
        done = ~improving[at, enter]
        leave = _leaving_row(tabs[:, :-1, -1], tabs[at, :-1, enter], basis)
        stop = done | (leave < 0)
        if stop.any():
            optimal[live[done]] = True
            rhs_out[live[done]] = tabs[done, :-1, -1]
            basis_out[live[done]] = basis[done]
            go = ~stop
            if not go.any():
                return optimal, rhs_out, basis_out
            tabs, basis, live = tabs[go], basis[go], live[go]
            enter, leave, at = enter[go], leave[go], at[: live.size]

        factor = tabs[at, :, enter][:, :, None]
        pivot_rows = tabs[at, leave] / tabs[at, leave, enter][:, None]
        np.subtract(tabs, factor * pivot_rows[:, None, :], out=tabs, where=factor != 0.0)
        tabs[at, leave] = pivot_rows
        basis[at, leave] = enter
    raise SolverError("simplex exceeded its pivot budget")


def _phase2_costs(obj: np.ndarray, tab: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The (k, columns) phase-2 cost rows of a (k, n) stack of objectives.

    Each row is [obj, 0] minus obj[basis[r]] times tableau row r, for r
    in row order.
    """
    k, n = obj.shape
    terms = np.empty((len(basis) + 1, k, n + 1))
    terms[0, :, :n] = obj
    terms[0, :, n] = 0.0
    np.multiply(obj[:, basis].T[:, :, None], tab[:, None, :], out=terms[1:])
    return np.subtract.reduce(terms, axis=0)


class _Polytope:
    """The polytope {x >= 0 : a_eq x = b_eq} after phase 1.

    Construction runs phase 1 and drives the artificials out, dropping
    each row with no usable pivot as redundant, and keeps the phase-2
    tableau and basis.  :meth:`solve` copies them and runs phase 2 for
    one objective.  The phase-2 start does not depend on the objective,
    so each solve equals a fresh two-phase solve bit for bit.  Raises
    :class:`~cipid.errors.ArgumentError` on a non-finite coefficient or
    mismatched shapes.
    """

    __slots__ = ("n", "feasible", "_a", "_b", "_tab", "_basis")

    def __init__(self, a_eq, b_eq):
        a = np.asarray(a_eq, dtype=float)
        b = np.asarray(b_eq, dtype=float).ravel()
        if not np.isfinite(np.concatenate((a.ravel(), b))).all():
            raise ArgumentError("linear program coefficients must be finite")
        if a.ndim != 2:
            raise ArgumentError(f"constraint matrix shape {a.shape} is not two-dimensional")
        if b.shape[0] != a.shape[0]:
            raise ArgumentError("constraint right-hand side length mismatch")
        m, n = a.shape
        self.n = n
        self.feasible = True

        flip = np.where(b < 0.0, -1.0, 1.0)
        a = a * flip[:, None]
        b = b * flip
        self._a, self._b = a, b  # the constraints, for the residual of each optimum

        # phase 1: artificial basis, minimize the artificial mass
        tab = np.zeros((m + 1, n + m + 1))
        tab[:m, :n] = a
        tab[:m, n : n + m] = np.eye(m)
        tab[:m, -1] = b
        tab[-1, :n] = -a.sum(axis=0)
        tab[-1, -1] = -b.sum()
        basis = list(range(n, n + m))

        status = _run_simplex(tab, basis)
        if status != "optimal" or -tab[-1, -1] > _FEAS_TOL:
            self.feasible = False
            return

        # drive any artificial still in the basis out, or drop its row
        keep = []
        for r in range(m):
            if basis[r] >= n:
                usable = np.abs(tab[r, :n]) > _PIVOT_TOL
                piv = int(usable.argmax())
                if not usable[piv]:
                    continue  # a row with no usable pivot is redundant
                _pivot(tab, basis, r, piv)
            keep.append(r)

        # the phase-2 rows: kept rows on the original columns and the rhs
        self._tab = np.concatenate((tab[keep, :n], tab[keep, -1:]), axis=1)
        self._tab.setflags(write=False)
        self._basis = np.array([basis[r] for r in keep], dtype=np.intp)
        self._basis.setflags(write=False)

    def solve(self, c, maximize: bool = False) -> LpSolution | list[LpSolution]:
        """Minimize (or maximize) c.x over the polytope by phase 2 alone.

        ``c`` is one objective of length n, or a (k, n) stack of them,
        which gives a list of k solutions.  The stack runs in slices of
        ``_STACK`` objectives.  A slice of ``_MIN_STACK`` or more runs in
        lockstep; a shorter one, the trailing slice of a longer stack
        included, runs one objective at a time on the scalar runner.
        Either way each solution equals the solve of its objective alone
        bit for bit.  The reported objective is always in the caller's
        sense.  Raises
        :class:`~cipid.errors.ArgumentError` on a non-finite or
        wrong-length ``c``, and :class:`~cipid.errors.SolverError` when
        an optimum has a basic value below ``-_FEAS_TOL``.
        """
        c = np.asarray(c, dtype=float)
        if c.ndim not in (1, 2):
            raise ArgumentError(f"objective shape {c.shape} is neither one objective nor a stack")
        if not np.isfinite(c).all():
            raise ArgumentError("linear program coefficients must be finite")
        n = self.n
        if c.shape[-1] != n:
            raise ArgumentError(f"objective length {c.shape[-1]} does not match {n} variables")
        sense = -1.0 if maximize else 1.0
        obj = np.atleast_2d(sense * c)

        sols = []
        for part in (obj[lo : lo + _STACK] for lo in range(0, len(obj), _STACK)):
            if not self.feasible:
                sols += [LpSolution("infeasible", None, None)] * len(part)
            elif len(part) < _MIN_STACK:
                for one in part[:, None]:
                    tab = np.vstack((self._tab, _phase2_costs(one, self._tab, self._basis)))
                    basis = self._basis.tolist()
                    optimal = _run_simplex(tab, basis) == "optimal"
                    sols += self._solutions(sense, one, [optimal], tab[None, :-1, -1], [basis])
            else:
                tabs = np.concatenate((
                    np.broadcast_to(self._tab, (len(part), *self._tab.shape)),
                    _phase2_costs(part, self._tab, self._basis)[:, None, :],
                ), axis=1)
                sols += self._solutions(sense, part, *_run_stacked(
                    tabs, np.tile(self._basis, (len(part), 1))))
        return sols if c.ndim == 2 else sols[0]

    def _solutions(self, sense, obj, optimal, rhs, basis) -> list[LpSolution]:
        """The solutions read off a stack of finished phase 2 runs, in the caller's sense.

        Raises :class:`~cipid.errors.SolverError` when an optimum has a
        basic value below ``-_FEAS_TOL``, or misses ``a_eq x = b_eq`` by
        more than ``_FEAS_TOL`` in the largest entry: one product with
        the constraints for the whole stack.
        """
        x = np.zeros((len(obj), self.n))
        x[np.arange(len(obj))[:, None], basis] = rhs
        drift = rhs.min(axis=1, initial=0.0)
        x[x < 0.0] = 0.0  # drift within the feasibility tolerance
        residual = np.abs(x @ self._a.T - self._b).max(axis=1, initial=0.0)
        sols = []
        for i, ok in enumerate(optimal):
            if not ok:
                sols.append(LpSolution("unbounded", None, None))
            elif drift[i] < -_FEAS_TOL:
                raise SolverError(f"simplex ended at a basic value of {drift[i]:.3e}")
            elif residual[i] > _FEAS_TOL:
                raise SolverError(f"simplex optimum misses its constraints by {residual[i]:.3e}")
            else:
                sols.append(LpSolution("optimal", x[i], sense * float(obj[i] @ x[i])))
        return sols


def solve_lp(
    c,
    a_eq,
    b_eq,
    maximize: bool = False,
) -> LpSolution:
    """Solve an equality-form linear program with non-negative variables.

    Parameters
    ----------
    c:
        Objective coefficients, length n.
    a_eq, b_eq:
        Equality constraints ``a_eq @ x == b_eq``; ``a_eq`` is m x n.
    maximize:
        Flip the objective sense.  The reported objective is always in
        the caller's sense.

    Raises :class:`~cipid.errors.ArgumentError` on mismatched shapes or
    a non-finite coefficient.
    """
    c = np.asarray(c, dtype=float).ravel()
    a = np.asarray(a_eq, dtype=float)
    if a.size == 0:
        a = a.reshape(0, c.shape[0])
    return _Polytope(a, b_eq).solve(c, maximize)


def _relative_interior_point(a_eq, b_eq, x) -> np.ndarray:
    """A point of {y >= 0 : a_eq y = b_eq} positive on the polytope's maximal support.

    ``x`` is a point of the polytope.  Each round maximizes the summed
    mass of the coordinates not yet seen positive (in ``x``, or above
    1e-12 in an earlier round), and the search stops when none comes out
    above 1e-12: a few LPs instead of one per coordinate.  Returns the
    mean of ``x`` and the round solutions, with zeros on the coordinates
    never seen positive, so it is positive exactly on the seen ones.
    """
    x = np.asarray(x, dtype=float)
    points = [x]
    seen = x > 0.0
    polytope = None if seen.all() else _Polytope(a_eq, b_eq)
    while not seen.all():
        sol = polytope.solve(~seen, maximize=True)
        if sol.status != "optimal":
            break
        new = ~seen & (sol.x > 1e-12)
        if not new.any():
            break
        points.append(sol.x)
        seen |= new
    point = np.mean(points, axis=0)
    point[~seen] = 0.0
    return point
