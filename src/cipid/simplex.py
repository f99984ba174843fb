"""Dense two-phase simplex solver for equality-form linear programs.

Solves min (or max) of c.x subject to A x = b and x >= 0.  Bland's rule
is used for both the entering and the leaving choice, which rules out
cycling on the degenerate programs that show up in channel-ordering
feasibility tests.  The tableau is a dense numpy array.  Sizes range
from a few rows for a garbling test to 272 x 256 for ``i_cap_d``.  The
constraint matrices of those programs are mostly zeros, so a pivot
updates only the rows with a nonzero entry in the pivot column; the
other rows would be left unchanged by the update anyway.

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
    b = np.asarray(b_eq, dtype=float).ravel()
    if not np.isfinite(np.concatenate((c, a.ravel(), b))).all():
        raise ArgumentError("linear program coefficients must be finite")
    n = c.shape[0]
    if a.size == 0:
        a = a.reshape(0, n)
    if a.ndim != 2 or a.shape[1] != n:
        raise ArgumentError(f"constraint matrix shape {a.shape} does not match {n} variables")
    if b.shape[0] != a.shape[0]:
        raise ArgumentError("constraint right-hand side length mismatch")
    m = a.shape[0]

    sense = -1.0 if maximize else 1.0
    obj = sense * c

    if m == 0:
        x = np.zeros(n)
        return LpSolution("optimal", x, 0.0)

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
        return LpSolution("infeasible", None, None)

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

    # phase 2 on the kept rows and the original columns
    tab = tab[keep + [m]]
    tab = np.concatenate((tab[:, :n], tab[:, -1:]), axis=1)
    basis = [basis[r] for r in keep]
    m = len(keep)
    cost = np.zeros(n + 1)
    cost[:n] = obj
    for r in range(m):
        cost -= obj[basis[r]] * tab[r]
    tab[-1] = cost

    status = _run_simplex(tab, basis)
    if status != "optimal":
        return LpSolution("unbounded", None, None)

    x = np.zeros(n)
    x[basis] = tab[:m, -1]
    x[x < 0.0] = 0.0
    value = float(obj @ x)
    return LpSolution("optimal", x, sense * value)


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
    while not seen.all():
        sol = solve_lp(~seen, a_eq, b_eq, maximize=True)
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
