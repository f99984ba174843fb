import numpy as np
import pytest

from cipid import VariableSet, canonical
from cipid.axioms import run_axiom_suite
from cipid.simplex import _Polytope
from cipid.channels import degradation_redundancy
from cipid.sources import SourceCollection


@pytest.fixture(scope="session")
def axiom_reports():
    """Full randomized property run, shared by every test that needs it."""
    return run_axiom_suite(trials=200, seed=0)


@pytest.fixture
def lp_counts(monkeypatch):
    """Counts of polytopes prepared (phase 1) and objectives solved (phase 2).

    A stack of k objectives counts as k solves.  ``sizes`` holds the
    number of objectives of each ``solve`` call, in call order.
    """
    counts = {"prepared": [], "solved": 0, "sizes": []}
    prepare, solve = _Polytope.__init__, _Polytope.solve

    def counted_prepare(self, a_eq, b_eq):
        counts["prepared"].append((a_eq, b_eq, self))
        prepare(self, a_eq, b_eq)

    def counted_solve(self, c, *args, **kwargs):
        counts["sizes"].append(len(c) if np.ndim(c) == 2 else 1)
        counts["solved"] += counts["sizes"][-1]
        return solve(self, c, *args, **kwargs)

    monkeypatch.setattr(_Polytope, "__init__", counted_prepare)
    monkeypatch.setattr(_Polytope, "solve", counted_solve)
    return counts


@pytest.fixture(scope="session")
def boom_redundancy():
    dist = canonical("BOOM")
    target = VariableSet.of(dist.index_of("T"))
    coll = SourceCollection.of(
        (dist.index_of("Y1"),), (dist.index_of("Y2"),)
    )
    return degradation_redundancy(dist, target, coll, seed=0)


# (T, Y1, Y2, Y3) with sources {Y1,Y2},{Y1,Y3},{Y2,Y3}: an IPF fit of the
# (T, source) marginals stalls at a residual of 2e-6 here, and one cell
# has weight 2e-7
TRIANGLE_ROWS = """\
T Y1 Y2 Y3 p
0 0 1 0 1640522/10000000
0 0 2 0 238379/10000000
1 0 0 1 27045/10000000
1 0 1 0 2747784/10000000
1 0 2 1 291007/10000000
1 1 1 1 2/10000000
1 1 2 0 958038/10000000
1 1 2 1 266624/10000000
1 2 0 0 2820779/10000000
1 2 0 1 1009820/10000000
"""


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.dist"
    path.write_text(TRIANGLE_ROWS)
    return path
