"""Dense two-phase simplex solver for equality-form linear programs.

Solves min (or max) of c.x subject to A x = b and x >= 0.  Bland's rule
is used for both the entering and the leaving choice, which rules out
cycling on the degenerate programs that show up in channel-ordering
feasibility tests.  The tableau is a dense numpy array.  Sizes range
from a few rows for a garbling test to 272 x 256 for ``i_cap_d``.  The
constraint matrices of those programs are mostly zeros, so a pivot
updates only the rows with a nonzero entry in the pivot column; the
other rows would be left unchanged by the update anyway.

Phase 1 depends on the constraints alone, so it runs once per
polytope: ``_Polytope`` does phase 1 and drops the dependent rows, and
its ``solve`` runs phase 2 for one objective.  ``degradation_redundancy``
solves all of its LPs (69 on AND, 139 on RDNUNQXOR) on one polytope,
whose phase 2 keeps 106 of 272 rows on RDNUNQXOR, 12 of 15 on BOOM and
6 of 8 on AND.  ``solve_lp`` prepares a polytope for a single objective.

``_relative_interior_point`` finds the maximal support of a polytope in
a few LPs, for the maximum-entropy fit and the coupling start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, SolverError

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-10
_FEAS_TOL = 1e-8
_MAX_PIVOTS = 50_000


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

        # sequential in row order, so the 1e-12 tie window picks as Bland's rule does
        leave = -1
        best = np.inf
        for i in (tab[:-1, enter] > _PIVOT_TOL).nonzero()[0].tolist():
            ratio = tab[i, -1] / tab[i, enter]
            if ratio < best - 1e-12 or (
                abs(ratio - best) <= 1e-12
                and (leave < 0 or basis[i] < basis[leave])
            ):
                best = ratio
                leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, leave, enter)
    raise SolverError("simplex exceeded its pivot budget")


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

    __slots__ = ("n", "feasible", "_tab", "_basis")

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
        self._basis = [basis[r] for r in keep]

    def solve(self, c, maximize: bool = False) -> LpSolution:
        """Minimize (or maximize) c.x over the polytope by phase 2 alone.

        The reported objective is always in the caller's sense.  Raises
        :class:`~cipid.errors.ArgumentError` on a non-finite or
        wrong-length ``c``.
        """
        c = np.asarray(c, dtype=float).ravel()
        if not np.isfinite(c).all():
            raise ArgumentError("linear program coefficients must be finite")
        n = self.n
        if c.shape[0] != n:
            raise ArgumentError(f"objective length {c.shape[0]} does not match {n} variables")
        if not self.feasible:
            return LpSolution("infeasible", None, None)
        sense = -1.0 if maximize else 1.0
        obj = sense * c

        cost = np.zeros(n + 1)
        cost[:n] = obj
        for row, col in zip(self._tab, self._basis):
            cost -= obj[col] * row
        tab = np.vstack((self._tab, cost))
        basis = list(self._basis)

        status = _run_simplex(tab, basis)
        if status != "optimal":
            return LpSolution("unbounded", None, None)

        x = np.zeros(n)
        x[basis] = tab[:-1, -1]
        x[x < 0.0] = 0.0
        value = float(obj @ x)
        return LpSolution("optimal", x, sense * value)


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
