"""Equality-form LP solver checks, including a brute-force cross-check."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cipid import ArgumentError, SolverError, simplex, solve_lp
from cipid.simplex import (
    _MIN_STACK,
    _STACK,
    LpSolution,
    _Polytope,
    _leaving_row,
    _leaving_row_of,
    _run_simplex,
)


def brute_force_min(c, a_eq, b_eq):
    """Enumerate basic feasible solutions; the optimum sits at one of them."""
    m, n = a_eq.shape
    best = None
    for cols in itertools.combinations(range(n), min(m, n)):
        sub = a_eq[:, cols]
        try:
            x_b = np.linalg.lstsq(sub, b_eq, rcond=None)[0]
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(sub @ x_b - b_eq)) > 1e-9:
            continue
        if np.min(x_b) < -1e-9:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.clip(x_b, 0.0, None)
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


def test_simple_minimum():
    sol = solve_lp(
        np.array([1.0, 2.0]),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_maximize_flag():
    sol = solve_lp(
        np.array([1.0, 2.0]),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
        maximize=True,
    )
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_detected():
    sol = solve_lp(
        np.array([1.0]),
        np.array([[1.0], [1.0]]),
        np.array([1.0, 2.0]),
    )
    assert sol.status == "infeasible"


def test_unbounded_detected():
    # x2 pinned, x1 free to grow
    sol = solve_lp(
        np.array([1.0, 0.0]),
        np.array([[0.0, 1.0]]),
        np.array([1.0]),
        maximize=True,
    )
    assert sol.status == "unbounded"


def test_negative_rhs_handled():
    sol = solve_lp(
        np.array([1.0, 1.0]),
        np.array([[-1.0, -1.0]]),
        np.array([-2.0]),
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_redundant_rows_survive():
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0, 0.5])
    sol = solve_lp(np.array([2.0, 1.0, 1.0]), a, b)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.5, abs=1e-9)


def test_no_constraints_returns_zero_vector():
    sol = solve_lp(np.array([1.0, 1.0]), np.zeros((0, 2)), np.zeros(0))
    assert sol.status == "optimal"
    assert np.allclose(sol.x, 0.0)


def test_degenerate_vertices_do_not_cycle():
    """A classic degenerate instance that trips naive pivot rules."""
    a = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
    sol = solve_lp(c, a, b)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_transportation_cell_maximum():
    """Max mass one cell can carry between fixed row and column sums."""
    # variables x00 x01 x10 x11; rows sums (0.6, 0.4), col sums (0.3, 0.7)
    a = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.6, 0.4, 0.3])
    c = np.array([1.0, 0.0, 0.0, 0.0])
    sol = solve_lp(c, a, b, maximize=True)
    assert sol.objective == pytest.approx(0.3, abs=1e-9)


def _random_bounded_instance(rng):
    """Random feasible LP; a total-mass row keeps the polytope bounded."""
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m + 1, 7))
    x_feas = rng.uniform(0.1, 1.0, size=n)
    a = np.vstack([np.ones(n), rng.normal(size=(m, n))])
    b = a @ x_feas
    c = rng.normal(size=n)
    return c, a, b


def test_solution_is_nonnegative_and_feasible():
    rng = np.random.default_rng(3)
    for _ in range(30):
        c, a, b = _random_bounded_instance(rng)
        sol = solve_lp(c, a, b)
        assert sol.status == "optimal"
        assert np.min(sol.x) >= -1e-12
        assert np.max(np.abs(a @ sol.x - b)) < 1e-7


def test_against_brute_force():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        c, a, b = _random_bounded_instance(rng)
        want = brute_force_min(c, a, b)
        if want is None:
            continue
        sol = solve_lp(c, a, b)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(want, abs=1e-7)
        checked += 1
    assert checked >= 30


def test_shape_validation():
    with pytest.raises(ArgumentError):
        solve_lp(np.array([1.0]), np.array([[1.0, 2.0]]), np.array([1.0]))
    with pytest.raises(ArgumentError):
        solve_lp(np.array([1.0, 2.0]), np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("c, a_eq, b_eq", [
    ([np.nan, 1.0], [[1.0, 1.0]], [1.0]),
    ([1.0, 1.0], [[np.inf, 1.0]], [1.0]),
    ([1.0, 1.0], [[1.0, 1.0]], [np.nan]),
])
def test_non_finite_input_rejected(c, a_eq, b_eq):
    with pytest.raises(ArgumentError):
        solve_lp(np.array(c), np.array(a_eq), np.array(b_eq))


def _random_feasible_lp(rng, degenerate):
    """Up to 30 x 90, feasible at x0 and bounded by a total-mass row.

    A degenerate instance has a sparse x0 and small integer
    coefficients, so its vertices can carry basic variables at zero and
    its ratio tests can tie.
    """
    m = int(rng.integers(2, 31))
    n = int(rng.integers(m + 1, 3 * m + 1))
    x0 = rng.uniform(0.0, 1.0, size=n)
    if degenerate:
        x0[rng.random(n) < 0.8] = 0.0
        x0[rng.integers(n)] = 1.0
        rest = rng.integers(-2, 3, size=(m - 1, n)).astype(float)
    else:
        rest = rng.normal(size=(m - 1, n))
    a = np.vstack([np.ones(n), rest])
    return rng.normal(size=n), a, a @ x0


@pytest.mark.parametrize("seed", range(24))
def test_random_programs_match_highs(seed):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    c, a, b = _random_feasible_lp(rng, degenerate=seed % 2 == 1)
    sol = solve_lp(c, a, b)
    want = optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0.0, None), method="highs")
    assert sol.status == "optimal" and want.status == 0
    assert np.min(sol.x) >= 0.0
    assert np.max(np.abs(a @ sol.x - b)) <= 1e-8
    assert sol.objective == pytest.approx(want.fun, abs=1e-7)


@pytest.mark.parametrize("seed", range(24))
def test_prepared_polytope_solves_in_any_order(seed):
    """Three objectives on one polytope, in two orders, against HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    c, a, b = _random_feasible_lp(rng, degenerate=seed % 2 == 1)
    costs = [c, rng.normal(size=c.size), rng.normal(size=c.size)]
    polytope = _Polytope(a, b)
    forward = [polytope.solve(cost) for cost in costs]
    backward = [polytope.solve(cost) for cost in reversed(costs)][::-1]
    for cost, one, other in zip(costs, forward, backward):
        assert np.array_equal(one.x, other.x) and one.objective == other.objective
        fresh = solve_lp(cost, a, b)
        assert np.array_equal(one.x, fresh.x) and one.objective == fresh.objective
        want = optimize.linprog(cost, A_eq=a, b_eq=b, bounds=(0.0, None), method="highs")
        assert one.status == "optimal" and want.status == 0
        assert np.max(np.abs(a @ one.x - b)) <= 1e-8
        assert one.objective == pytest.approx(want.fun, abs=1e-7)


def test_empty_polytope_is_infeasible_for_every_objective():
    polytope = _Polytope(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    for c, maximize in (([1.0], False), ([-1.0], False), ([1.0], True), ([0.0], True)):
        sol = polytope.solve(np.array(c), maximize=maximize)
        assert sol.status == "infeasible" and sol.x is None and sol.objective is None


def test_polytope_without_rows_gives_zeros():
    """Over x >= 0 alone, x = 0 minimizes a non-negative cost; any other objective is unbounded."""
    polytope = _Polytope(np.zeros((0, 3)), np.zeros(0))
    for c in ([1.0, 2.0, 3.0], [0.0, 0.0, 1.0]):
        sol = polytope.solve(np.array(c))
        assert sol.status == "optimal" and sol.objective == 0.0
        assert np.array_equal(sol.x, np.zeros(3))
    for c, maximize in (([1.0, 2.0, 3.0], True), ([-1.0, 0.0, 1.0], True), ([-1.0, 0.0, 1.0], False)):
        sol = polytope.solve(np.array(c), maximize=maximize)
        assert sol.status == "unbounded" and sol.x is None and sol.objective is None
    stacked = polytope.solve(np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]]))
    assert [sol.status for sol in stacked] == ["optimal", "unbounded"]
    assert solve_lp([-1.0], np.zeros((0, 1)), []).status == "unbounded"
    assert solve_lp([1.0], np.zeros((0, 1)), [], maximize=True).status == "unbounded"


def test_polytope_checks_the_objective_at_solve():
    polytope = _Polytope(np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ArgumentError):
        polytope.solve(np.array([np.nan, 1.0]))
    with pytest.raises(ArgumentError):
        polytope.solve(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ArgumentError):
        _Polytope(np.array([[1.0, np.inf]]), np.array([1.0]))
    assert polytope.solve(np.array([2.0, 1.0])).objective == pytest.approx(1.0, abs=1e-12)


def test_drifted_basic_value_does_not_win_the_ratio_test():
    """Row 0's basic value drifted to -1e-10, a ratio of -1e-7 against its
    1e-3 entry.  Counted as 0, it ties row 1, whose basic variable is
    lower, so x0 enters at 0 rather than at -1e-7."""
    tab = np.array([
        [1e-3, 0.0, 1.0, -1e-10],
        [1.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ])
    basis = [2, 1]
    assert _leaving_row_of(tab[:-1, -1], tab[:-1, 0], basis) == 1
    assert _leaving_row(tab[:-1, -1], tab[:-1, 0], np.array(basis)) == 1
    assert _run_simplex(tab, basis) == "optimal"
    assert basis == [2, 0]
    assert tab[:-1, -1].min() == -1e-10


_RHS = st.sampled_from([-1e-10, 0.0, 0.5, 0.5 + 4e-13, 0.5 + 2e-12, 1.0])
_COL = st.sampled_from([-1.0, 0.0, 5e-10, 1e-3, 0.5, 1.0, 2.0])


@given(st.lists(st.tuples(_RHS, _COL), max_size=8), st.randoms())
@settings(max_examples=300, deadline=None)
def test_both_forms_of_the_leaving_rule_agree(rows, random):
    """Near-ties, drifted values and rows that cannot pivot, row by row."""
    rhs = np.array([r for r, _ in rows])
    col = np.array([c for _, c in rows])
    basis = random.sample(range(20), len(rows))
    one = _leaving_row_of(rhs, col, basis)
    assert _leaving_row(rhs, col, np.array(basis, dtype=np.intp)) == one
    stacked = _leaving_row(np.stack([rhs, rhs]), np.stack([col, col]),
                           np.array([basis, basis], dtype=np.intp).reshape(2, -1))
    assert stacked.tolist() == [one, one]


def test_drift_within_the_feasibility_tolerance_is_clamped():
    # phase 1 leaves x0 basic at -1e-9, inside the 1e-8 tolerance
    polytope = _Polytope(np.array([[1.0, 1.0]]), np.array([-1e-9]))
    for sol in [polytope.solve([1.0, 1.0]), *polytope.solve(np.ones((_MIN_STACK, 2)))]:
        assert sol.status == "optimal" and np.array_equal(sol.x, np.zeros(2))


def test_drift_beyond_the_feasibility_tolerance_raises():
    # phase 1 accepts 5e-9 of artificial mass, then pivots x0 in at -5e-7
    polytope = _Polytope(np.array([[0.01, 0.01]]), np.array([-5e-9]))
    for c in ([1.0, 1.0], np.ones((_MIN_STACK, 2))):
        with pytest.raises(SolverError, match="-5.000e-07"):
            polytope.solve(c)


def _shifted_polytope(shift):
    """x0 + x1 = 1 with its stored phase-2 rhs moved by ``shift``, as drift
    in phase 1 would move it: x0 = 1 + shift is still a basic value >= 0."""
    polytope = _Polytope(np.array([[1.0, 1.0]]), np.array([1.0]))
    tab = polytope._tab.copy()
    tab[0, -1] += shift
    polytope._tab = tab
    return polytope


def test_optimum_that_misses_its_constraints_raises():
    polytope = _shifted_polytope(0.5)
    for c in ([1.0, 2.0], np.array([[1.0, 2.0], [1.0, 3.0]] * _MIN_STACK)):
        with pytest.raises(SolverError, match="misses its constraints by 5.000e-01"):
            polytope.solve(c)


def test_residual_within_the_feasibility_tolerance_is_accepted():
    polytope = _shifted_polytope(5e-9)
    stack = np.array([[1.0, 2.0], [1.0, 3.0]] * _MIN_STACK)
    for sol in [polytope.solve([1.0, 2.0]), *polytope.solve(stack)]:
        assert sol.status == "optimal"
        assert sol.x.tolist() == [1.0 + 5e-9, 0.0]


def test_runner_is_chosen_by_stack_length(monkeypatch):
    """Fewer than ``_MIN_STACK`` objectives run one at a time on the scalar runner."""
    stacked, run_stacked = [], simplex._run_stacked

    def counted(tabs, basis):
        stacked.append(len(tabs))
        return run_stacked(tabs, basis)

    monkeypatch.setattr(simplex, "_run_stacked", counted)
    polytope = _Polytope(np.array([[1.0, 1.0]]), np.array([1.0]))
    for k in range(1, _MIN_STACK + 1):
        assert len(polytope.solve(np.ones((k, 2)))) == k
    assert stacked == [_MIN_STACK]


def test_a_short_trailing_slice_runs_on_the_scalar_runner(monkeypatch):
    """17 objectives run as a lockstep slice of 16 and one scalar solve,
    each equal bit for bit to its solve alone."""
    rng = np.random.default_rng(3)
    a, b = _stack_polytope(rng, bounded=True, infeasible=False)
    polytope = _Polytope(a, b)
    c = rng.normal(size=(_STACK + 1, a.shape[1]))
    alone = [polytope.solve(row, maximize=True) for row in c]
    runs, run_stacked, run_simplex = [], simplex._run_stacked, simplex._run_simplex

    def stacked_runner(tabs, basis):
        runs.append(("stacked", len(tabs)))
        return run_stacked(tabs, basis)

    def scalar_runner(tab, basis):
        runs.append(("scalar", 1))
        return run_simplex(tab, basis)

    monkeypatch.setattr(simplex, "_run_stacked", stacked_runner)
    monkeypatch.setattr(simplex, "_run_simplex", scalar_runner)
    stacked = polytope.solve(c, maximize=True)
    assert runs == [("stacked", _STACK), ("scalar", 1)]
    for many, one in zip(stacked, alone, strict=True):
        assert many.status == one.status == "optimal"
        assert many.objective == one.objective
        assert np.array_equal(many.x, one.x)


def _stack_polytope(rng, bounded, infeasible):
    """Up to 8 x 9 with small integer coefficients, a sparse feasible point,
    repeated rows and zero right-hand sides, so vertices are degenerate."""
    n = int(rng.integers(1, 10))
    x0 = np.where(rng.random(n) < 0.5, 0.0, rng.integers(1, 4, size=n).astype(float))
    a = rng.integers(-2, 3, size=(int(rng.integers(0, 4)), n)).astype(float)
    if a.size:
        a = np.vstack([a, a[rng.integers(len(a), size=2)]])
    a = np.vstack([a, (x0 == 0.0) * rng.integers(0, 2, size=n)])
    b = a @ x0
    if bounded:
        a, b = np.vstack([a, np.ones(n)]), np.append(b, x0.sum())
    if infeasible:
        a, b = np.vstack([a, np.ones(n)]), np.append(b, -1.0)
    return a, b


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 3 * _STACK),
    bounded=st.booleans(),
    infeasible=st.booleans(),
    maximize=st.booleans(),
)
@example(seed=0, k=2 * _STACK + 5, bounded=False, infeasible=False, maximize=True)
@settings(max_examples=150, deadline=None)
def test_stacked_solve_equals_single_solves(seed, k, bounded, infeasible, maximize):
    rng = np.random.default_rng(seed)
    a, b = _stack_polytope(rng, bounded, infeasible)
    polytope = _Polytope(a, b)
    c = np.where(rng.random((k, a.shape[1])) < 0.5, rng.normal(size=(k, a.shape[1])),
                 rng.integers(-2, 3, size=(k, a.shape[1])))
    stacked = polytope.solve(c, maximize=maximize)
    assert len(stacked) == k
    for row, many in zip(c, stacked):
        one = polytope.solve(row, maximize=maximize)
        assert many.status == one.status
        assert many.objective == one.objective
        assert (many.x is None and one.x is None) or np.array_equal(many.x, one.x)


def test_stack_of_every_status():
    """Infeasible, unbounded and optimal objectives across slice boundaries."""
    assert _Polytope(np.array([[1.0], [1.0]]), np.array([1.0, 2.0])).solve(
        np.ones((_STACK + 1, 1))) == [LpSolution("infeasible", None, None)] * (_STACK + 1)
    polytope = _Polytope(np.array([[0.0, 1.0]]), np.array([1.0]))
    sols = polytope.solve(np.array([[1.0, 0.0], [-1.0, 0.0]] * _STACK))
    assert [s.status for s in sols] == ["optimal", "unbounded"] * _STACK
    assert all(np.array_equal(s.x, [0.0, 1.0]) for s in sols[::2])
    assert polytope.solve(np.zeros((0, 2))) == []
    for sol in _Polytope(np.zeros((0, 0)), np.zeros(0)).solve(np.zeros((3, 0))):
        assert sol.status == "optimal" and sol.x.size == 0 and sol.objective == 0.0
    with pytest.raises(ArgumentError):
        polytope.solve(np.ones((2, 3)))
    with pytest.raises(ArgumentError):
        polytope.solve(np.ones((1, 1, 2)))


def test_solution_container():
    sol = LpSolution("optimal", np.array([1.0]), 2.5)
    assert sol.status == "optimal"
    assert sol.objective == 2.5
