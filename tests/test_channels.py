"""Degradation order, degradation redundancy, and coupling minimization."""

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cipid import (
    ArgumentError,
    Channel,
    JointDistribution,
    SolverError,
    VariableSet,
    canonical,
    channel_from,
    degradation_leq,
    degradation_redundancy,
    load_distribution,
    marginalize,
    maxent_ipf,
    mutual_information,
    s_d,
    vk_union_information,
)
from cipid import channels
from cipid.axioms import run_axiom_suite
from cipid.corpus import CORPUS
from cipid.distribution import _source_variables, _table
from cipid.sources import SourceCollection, normalize_sources


def target_of(dist):
    return VariableSet.of(dist.index_of("T"))


def pair_collection(dist):
    return SourceCollection.of(
        (dist.index_of("Y1"),), (dist.index_of("Y2"),)
    )


def bsc(flip, w=(0.5, 0.5)):
    m = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    return Channel((0, 1), w, (0, 1), m)


class TestDegradationOrder:
    def test_reflexive(self):
        k = bsc(0.1)
        ok, witness = degradation_leq(k, k)
        assert ok
        assert np.allclose(witness.m_matrix @ np.ones(2), 1.0)

    def test_noisier_bsc_is_below(self):
        ok, witness = degradation_leq(bsc(0.2), bsc(0.1))
        assert ok
        assert np.allclose(bsc(0.1).matrix @ witness.m_matrix, bsc(0.2).matrix, atol=1e-7)

    def test_cleaner_bsc_is_not_below(self):
        ok, witness = degradation_leq(bsc(0.1), bsc(0.2))
        assert not ok
        assert witness is None

    def test_random_garbles_are_below(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            nt = int(rng.integers(2, 4))
            ny = int(rng.integers(2, 4))
            w = rng.dirichlet(np.ones(nt))
            k1 = Channel(
                tuple(range(nt)), w, tuple(range(ny)),
                rng.dirichlet(np.ones(ny), size=nt),
            )
            m = rng.dirichlet(np.ones(3), size=ny)
            k2 = Channel(
                tuple(range(nt)), w, (0, 1, 2), k1.matrix @ m
            )
            ok, witness = degradation_leq(k2, k1)
            assert ok
            assert np.allclose(k1.matrix @ witness.m_matrix, k2.matrix, atol=1e-7)

    def test_requires_matching_inputs(self):
        k = bsc(0.1)
        other = Channel((0, 1), (0.4, 0.6), (0, 1), k.matrix)
        with pytest.raises(ArgumentError):
            degradation_leq(k, other)
        three = Channel((0, 1, 2), (0.3, 0.3, 0.4), (0, 1),
                        np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
        with pytest.raises(ArgumentError):
            degradation_leq(k, three)

    @pytest.mark.xfail(strict=True, raises=SolverError, reason=(
        "the garbling LP's optimum misses K = K'M by 1.212e-08, "
        "above _FEAS_TOL, so the residual check raises instead of giving a verdict"))
    def test_axiom_suite_garblings_get_a_verdict(self):
        """Seed 178's degradation_data_processing check compares channels
        that are garblings by construction; K' is nearly singular."""
        reports = run_axiom_suite(trials=20, seed=178)
        assert {r.name: r.violations for r in reports}["degradation_data_processing"] == 0


class TestDegradationRedundancy:
    def test_boom_value(self, boom_redundancy):
        assert boom_redundancy.value == pytest.approx(0.322, abs=2e-2)
        assert boom_redundancy.converged

    def test_boom_report_shape(self, boom_redundancy):
        q = boom_redundancy.argument
        assert isinstance(q, Channel)
        assert len(q.input_states) == 3
        assert q.matrix.shape == (3, 3)
        assert np.allclose(q.matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_value_never_exceeds_certificate(self, boom_redundancy):
        assert boom_redundancy.value <= boom_redundancy.upper + 1e-9

    def test_argument_achieves_value(self, boom_redundancy):
        assert boom_redundancy.argument.mutual_information() == pytest.approx(
            boom_redundancy.value, abs=1e-9
        )

    def test_argument_is_below_both_sources(self, boom_redundancy):
        d = canonical("BOOM")
        t = target_of(d)
        for name in ("Y1", "Y2"):
            k = channel_from(d, t, d.varset(name))
            ok, _ = degradation_leq(boom_redundancy.argument, k)
            assert ok, name

    def test_copy_has_no_common_garble_information(self):
        d = canonical("COPY")
        rep = degradation_redundancy(d, target_of(d), pair_collection(d), seed=0)
        assert rep.value == pytest.approx(0.0, abs=1e-6)

    def test_third_source_couples_to_the_first(self):
        """Y3 duplicates Y2 on ANDDUPLICATE, so adding it leaves the value."""
        d = canonical("ANDDUPLICATE")
        y1, y2, y3 = (d.index_of(n) for n in ("Y1", "Y2", "Y3"))
        two = degradation_redundancy(d, target_of(d), SourceCollection.of((y1,), (y2,)))
        three = degradation_redundancy(
            d, target_of(d), SourceCollection.of((y1,), (y2,), (y3,))
        )
        assert two.value == pytest.approx(0.31127812445913283, abs=1e-9)
        assert three.value == pytest.approx(two.value, abs=1e-9)
        assert three.value <= three.upper + 1e-9

    def test_negative_seed_rejected(self):
        d = canonical("AND")
        with pytest.raises(ArgumentError, match="seed must be non-negative, got -1"):
            degradation_redundancy(d, target_of(d), pair_collection(d), seed=-1)

    def test_deterministic_seed(self):
        d = canonical("BOOM")
        a = degradation_redundancy(d, target_of(d), pair_collection(d), seed=3)
        b = degradation_redundancy(d, target_of(d), pair_collection(d), seed=3)
        assert a.value == b.value
        assert np.array_equal(a.argument.matrix, b.argument.matrix)

    def test_target_enrichment_kills_and_redundancy(self):
        d = canonical("TARGET_MONO_AND")
        coll = pair_collection(d)
        narrow = degradation_redundancy(d, VariableSet.of(d.index_of("T")), coll, seed=0)
        wide = degradation_redundancy(
            d, VariableSet.of(d.index_of("T"), d.index_of("Z")), coll, seed=0
        )
        assert narrow.value == pytest.approx(0.311, abs=2e-2)
        assert wide.value == pytest.approx(0.0, abs=2e-2)

    @pytest.mark.parametrize("name, lps, value", [
        ("AND", 69, "0x1.3ebfb1520c7c6p-2"),
        ("BOOM", 88, "0x1.493da4a621201p-2"),
    ])
    def test_each_climb_step_is_solved_once(self, lp_counts, name, lps, value):
        """65 start LPs, then one LP per distinct climb vertex (129 and 137
        re-solving), all on one polytope whose phase 1 runs once."""
        d = canonical(name)
        rep = degradation_redundancy(d, target_of(d), pair_collection(d))
        assert len(lp_counts["prepared"]) == 1
        assert lp_counts["solved"] == lps
        assert rep.value.hex() == value

    @pytest.mark.parametrize("name, sizes", [
        ("AND", [64, 5]), ("BOOM", [64, 24]), ("RDNUNQXOR", [64, 65, 10]),
    ])
    def test_climbs_move_in_lockstep(self, lp_counts, name, sizes):
        """After the restart stack, each climb round solves the steps of
        its new vertices in one call; a round whose vertices all have
        their step solved makes no call."""
        d = canonical(name)
        degradation_redundancy(d, target_of(d), pair_collection(d))
        assert lp_counts["sizes"] == sizes

    def test_each_vertex_is_valued_once(self, monkeypatch):
        """AND's 65 starts meet at 5 distinct vertices, whose steps lead
        back among them: 5 values, where one per start and per step LP
        would be 70."""
        calls = []
        value = channels._channel_information

        def counted(w, m):
            calls.append(m)
            return value(w, m)

        monkeypatch.setattr(channels, "_channel_information", counted)
        d = canonical("AND")
        rep = degradation_redundancy(d, target_of(d), pair_collection(d))
        assert len(calls) == 5 < 65 + (69 - 64)
        assert rep.value.hex() == "0x1.3ebfb1520c7c6p-2"

    def test_phase_one_skips_pivots_of_rounding_noise(self):
        """Phase 1 meets a 2.06e-9 entry in a row whose basic value drifted
        to -3.7e-10; taken as a pivot, it sends a variable to -0.18 and
        i_cap_d raises.  Y2 is a garbling of Y1 here, so the redundancy is
        I(Y2;T), reached by a channel below both sources."""
        d = JointDistribution(["T", "Y1", "Y2"], {
            (0, 0, 0): 0.0213384902223011, (0, 0, 1): 0.0008175295850676347,
            (0, 1, 0): 3.8606018674631283e-07, (0, 2, 0): 0.2241318036765417,
            (0, 2, 1): 0.15767891070704065, (1, 0, 1): 0.5037572626837685,
            (1, 1, 0): 0.09013229220365604, (2, 1, 0): 0.0021433248614376958,
        })
        t = target_of(d)
        rep = degradation_redundancy(d, t, pair_collection(d))
        assert rep.converged
        assert rep.value == pytest.approx(mutual_information(d, d.varset("Y2"), t), abs=1e-9)
        for name in ("Y1", "Y2"):
            below, witness = degradation_leq(rep.argument, channel_from(d, t, d.varset(name)))
            assert below and witness.residual <= 1e-9

    @pytest.mark.xfail(strict=True, raises=SolverError, reason=(
        "phase 1 ends optimal with 9.56e-8 of artificial mass, above _FEAS_TOL, "
        "so the garbling polytope is declared empty"))
    def test_phase_one_finds_the_constant_channel(self):
        """Draw 1576 of axioms.random_distribution(default_rng(2024)), with
        masses down to 1.9e-12.  The constant channel lies below every
        source, so the garbling polytope is never empty."""
        d = JointDistribution(["T", "Y1", "Y2"], {
            (0, 0, 2): 1.857774810655079e-12, (0, 1, 0): 0.03663481743994662,
            (0, 1, 1): 0.2508726796056993, (1, 0, 0): 0.0008914199486069064,
            (1, 0, 1): 0.10833437266717451, (1, 0, 2): 0.3595079364879809,
            (1, 1, 0): 2.7919741383524404e-05, (1, 1, 1): 0.03786409782568618,
            (1, 1, 2): 0.1290517648678252, (2, 0, 2): 4.194890070693462e-08,
            (2, 1, 2): 0.07681494946493836,
        })
        t = target_of(d)
        rep = degradation_redundancy(d, t, pair_collection(d))
        assert rep.converged
        for name in ("Y1", "Y2"):
            below, witness = degradation_leq(rep.argument, channel_from(d, t, d.varset(name)))
            assert below and witness.residual <= 1e-9

    @pytest.mark.parametrize("name, rows, rank", [
        ("RDNUNQXOR", 272, 106), ("BOOM", 15, 12), ("AND", 8, 6),
    ])
    def test_phase_two_carries_the_rank(self, lp_counts, name, rows, rank):
        """The dependent rows of the garbling polytope are dropped once, in phase 1."""
        d = canonical(name)
        degradation_redundancy(d, target_of(d), pair_collection(d), restarts=0)
        [(a_eq, _, polytope)] = lp_counts["prepared"]
        assert a_eq.shape[0] == rows
        assert np.linalg.matrix_rank(a_eq) == rank
        assert polytope._tab.shape[0] == len(polytope._basis) == rank

    def test_ordered_sources_read_off_the_weaker_one(self):
        """When one channel is a garbling of the other, the redundancy is
        the garbled channel's full information.

        Output alphabets are kept no larger than the target alphabet so
        that the optimum is attainable with the solver's output size.
        """
        rng = np.random.default_rng(0)
        for trial in range(12):
            nt = int(rng.integers(2, 5))
            ny1 = int(rng.integers(2, 5))
            ny2 = int(rng.integers(2, nt + 1))
            w = rng.dirichlet(np.ones(nt) * 2.0)
            k1 = rng.dirichlet(np.ones(ny1), size=nt)
            m = rng.dirichlet(np.ones(ny2), size=ny1)
            k2 = k1 @ m

            pmf = {}
            for t in range(nt):
                for a in range(ny1):
                    for b in range(ny2):
                        p = w[t] * k1[t, a] * k2[t, b]
                        if p > 0.0:
                            pmf[(str(t), str(a), str(b))] = p
            d = JointDistribution(("T", "Y1", "Y2"), pmf)
            rep = degradation_redundancy(
                d, target_of(d), pair_collection(d), seed=trial
            )
            want = mutual_information(
                d, VariableSet.of(d.index_of("Y2")), target_of(d)
            )
            assert rep.value == pytest.approx(want, abs=2e-3), trial


class TestCouplingMinimization:
    def test_and_reaches_its_lower_bound(self):
        d = canonical("AND")
        coll = normalize_sources(d, pair_collection(d))
        rep = vk_union_information(d, target_of(d), coll)
        assert rep.value == pytest.approx(0.311278, abs=1e-4)
        # the analytic lower bound max_i I(Y_i;T), which AND reaches
        want = max(mutual_information(d, d.varset(name), target_of(d)) for name in ("Y1", "Y2"))
        assert rep.lower - 1e-12 <= want <= rep.upper + 1e-12
        assert rep.value == pytest.approx(want, abs=1e-4)
        assert rep.converged

    def test_xor_couples_to_independence(self):
        d = canonical("XOR")
        coll = normalize_sources(d, pair_collection(d))
        rep = vk_union_information(d, target_of(d), coll)
        assert rep.value == pytest.approx(0.0, abs=1e-6)

    def test_argument_keeps_source_conditionals(self):
        d = canonical("AND")
        t = target_of(d)
        coll = normalize_sources(d, pair_collection(d))
        rep = vk_union_information(d, t, coll)
        q = rep.argument
        assert set(q.var_names) == {"T", "Y1", "Y2"}
        for name in ("Y1", "Y2"):
            a = marginalize(d, d.varset(name, "T")).pmf
            b = marginalize(q, q.varset(name, "T")).pmf
            for key in set(a) | set(b):
                assert a.get(key, 0.0) == pytest.approx(b.get(key, 0.0), abs=1e-6)

    def test_argument_information_matches_value(self):
        d = canonical("RDNXOR")
        t = target_of(d)
        coll = normalize_sources(d, pair_collection(d))
        rep = vk_union_information(d, t, coll)
        q = rep.argument
        src = VariableSet.of(q.index_of("Y1"), q.index_of("Y2"))
        got = mutual_information(q, src, VariableSet.of(q.index_of("T")))
        assert got == pytest.approx(rep.value, abs=1e-6)
        # both sources carry the full bit, so the coupling cannot go lower
        assert rep.value == pytest.approx(mutual_information(d, d.varset("Y1"), t), abs=1e-6)

    def test_projection_fault_input_is_solved(self):
        """A 3x2x2 input on which the old projected descent left the constraint set."""
        d = projection_fault_pmf()
        rep = vk_union_information(d, VariableSet.of(0), SourceCollection.of((1,), (2,)))
        assert rep.value == pytest.approx(0.239257465, abs=1e-8)
        assert rep.converged

    def test_value_does_not_depend_on_alphabet_order(self):
        shape = (3, 2, 3, 3)
        p = np.random.default_rng(3).dirichlet(np.full(54, 0.4))
        p[p < 0.02] = 0.0
        p = (p / p.sum()).reshape(shape)
        pmf = {c: float(p[c]) for c in itertools.product(*map(range, shape)) if p[c] > 0.0}
        coll = SourceCollection.of((1,), (2,), (3,))
        values = []
        for order in (list, lambda a: list(reversed(a))):
            d = JointDistribution(("T", "Y1", "Y2", "Y3"), pmf,
                                  alphabets=tuple(tuple(order(range(n))) for n in shape))
            values.append(vk_union_information(d, VariableSet.of(0), coll).value)
        assert values[0] == pytest.approx(values[1], abs=1e-9)

    @pytest.mark.parametrize("seed, want", [
        (1, 0.4742992046654301),
        (2, 0.7094589126737934),
        (3, 0.5978369807900815),
        (4, 1.0919045439300454),
        (5, 0.608018230998434),
        (6, 0.6601940012246584),
        (7, 0.661046623250333),
    ])
    def test_overlapping_sources_pinned(self, seed, want):
        """Sources {Y1,Y2} and {Y2,Y3} share Y2, so the solve starts from LP rounds."""
        shape = (3, 2, 3, 2)
        p = np.random.default_rng(seed).dirichlet(np.full(36, 0.4))
        p[p < 0.01] = 0.0
        p = (p / p.sum()).reshape(shape)
        pmf = {c: float(p[c]) for c in itertools.product(*map(range, shape)) if p[c] > 0.0}
        d = JointDistribution(("T", "Y1", "Y2", "Y3"), pmf,
                              alphabets=tuple(tuple(range(n)) for n in shape))
        rep = vk_union_information(d, VariableSet.of(0), SourceCollection.of((1, 2), (2, 3)))
        assert rep.converged
        assert rep.value == pytest.approx(want, abs=1e-9)

    def test_triangle_sources_where_an_ipf_start_stalled(self, triangle_file):
        d = load_distribution(triangle_file)
        rep = vk_union_information(d, d.varset("T"), SourceCollection.of((1, 2), (1, 3), (2, 3)))
        assert rep.converged
        assert rep.value == pytest.approx(0.2785755533, abs=1e-9)

    def test_sparse_triangle_collections_converge(self):
        """Sparse Dirichlet(0.3) pmfs under {Y1,Y2},{Y1,Y3},{Y2,Y3}, whose supports overlap."""
        rng = np.random.default_rng(7)
        coll = SourceCollection.of((1, 2), (1, 3), (2, 3))
        for draw in range(100):
            shape = tuple(int(k) for k in rng.integers(2, 4, size=4))
            p = rng.dirichlet(np.full(math.prod(shape), 0.3))
            p[rng.random(p.size) >= 0.5] = 0.0
            cells = itertools.product(*map(range, shape))
            d = JointDistribution(("T", "Y1", "Y2", "Y3"),
                                  {c: float(v) for c, v in zip(cells, p / p.sum()) if v > 0.0})
            rep = vk_union_information(d, VariableSet.of(0), coll)
            assert rep.converged, draw

    def test_boom_reaches_one_bit(self):
        d = canonical("BOOM")
        rep = vk_union_information(d, target_of(d), normalize_sources(d, pair_collection(d)))
        assert rep.value == pytest.approx(1.0, abs=1e-9)
        assert rep.lower <= 1.0 <= rep.value

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_every_corpus_solve_is_certified(self, name):
        rs = (0.0, 0.25, 0.5, 29 / 32, 31 / 32) if CORPUS[name].parametric else (None,)
        for r in rs:
            d = canonical(name, r)
            t = d.varset(*CORPUS[name].default_target.split(","))
            coll = normalize_sources(d, SourceCollection.singletons(_source_variables(d, t)))
            rep = vk_union_information(d, t, coll)
            assert rep.converged, (name, r)
            assert 0.0 <= rep.value - rep.lower <= 1e-9, (name, r)

    def test_sources_overlapping_target_rejected(self):
        d = canonical("AND")
        with pytest.raises(ArgumentError):
            vk_union_information(
                d, target_of(d), SourceCollection.of((d.index_of("T"),))
            )


def test_optimizer_entry_points_take_no_solver_settings():
    """Tolerances and step budgets are module constants, not parameters."""
    want = {
        degradation_leq: ["k", "kp"],
        degradation_redundancy: ["dist", "target", "collection", "restarts", "seed"],
        vk_union_information: ["dist", "target", "collection"],
        maxent_ipf: ["dist", "preserved_marginals"],
    }
    for fn, names in want.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


# float.hex of i_cap_d's upper end, min over singleton sources of
# I(Y_i;T), on every corpus entry with two or three predictors, as
# computed when the report called it its certificate
I_CAP_D_UPPER = {
    ('XOR', None): '0x0.0p+0',
    ('AND', None): '0x1.3ebfb1520c7c6p-2',
    ('COPY', None): '0x1.0000000000000p+0',
    ('TWEAKED_COPY', None): '0x1.d62adf1ea257ap-1',
    ('BOOM', None): '0x1.5555555555554p-1',
    ('ADAPTED_REDUCED_OR', 0.25): '0x1.3ebfb1520c7c6p-2',
    ('ADAPTED_REDUCED_OR', 0.5): '0x1.3ebfb1520c7c6p-2',
    ('TARGET_MONO_AND', None): '0x1.3ebfb1520c7c6p-2',
    ('TARGET_MONO_CI', None): '0x1.64935e63dd343p-2',
    ('COPY_XOR_TARGETS', None): '0x1.0000000000000p+0',
    ('ADAPTED_XOR', 0.25): '0x1.fcf3def4bd45ep-4',
    ('ADAPTED_XOR', 0.5): '0x1.8fba684fe7644p-5',
    ('ADAPTED_XOR_V2', 0.25): '0x1.42c7cf387991ep-5',
    ('ADAPTED_XOR_V2', 0.5): '0x1.d72744c29522cp-7',
    ('RDNXOR', None): '0x1.0000000000000p+0',
    ('RDNUNQXOR', None): '0x1.0000000000000p+1',
    ('XORDUPLICATE', None): '0x0.0p+0',
    ('ANDDUPLICATE', None): '0x1.3ebfb1520c7c6p-2',
    ('XORLOSES', None): '0x0.0p+0',
    ('XORMULTICOAL', None): '0x0.0p+0',
}


@pytest.mark.parametrize("name, r", list(I_CAP_D_UPPER))
def test_reports_bracket_their_value(name, r):
    """i_cap_d with singleton sources, and i_cup_vk with singleton sources
    and, on three predictors, {Y1,Y2},{Y2,Y3}: each value lies in its
    report's [lower, upper], at the lower end for i_cap_d and at the
    upper end for i_cup_vk."""
    d = canonical(name, r)
    t = d.varset(*CORPUS[name].default_target.split(","))
    src = _source_variables(d, t)
    single = SourceCollection.singletons(src)
    redundancy = degradation_redundancy(d, t, single)
    assert redundancy.lower == redundancy.value
    assert redundancy.upper.hex() == I_CAP_D_UPPER[name, r]
    colls = [single]
    if len(src) == 3:
        colls.append(SourceCollection.of(src[:2], src[1:]))
    reports = [redundancy]
    for coll in colls:
        union = vk_union_information(d, t, normalize_sources(d, coll))
        assert union.upper == union.value
        reports.append(union)
    for rep in reports:
        assert rep.lower - 1e-9 <= rep.value <= rep.upper + 1e-9


def projection_fault_pmf():
    counts = [59, 142, 90, 33, 189, 2, 1, 196, 223, 1, 63, 1]
    cells = itertools.product(range(3), range(2), range(2))
    return JointDistribution(("T", "Y1", "Y2"), {c: n / 1000 for c, n in zip(cells, counts)})


@st.composite
def coupling_cases(draw):
    """A pmf over T and 2-3 predictors, zero cells allowed, and a source collection."""
    arities = [draw(st.integers(2, 3)) for _ in range(draw(st.integers(3, 4)))]
    cells = list(itertools.product(*map(range, arities)))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(cells), max_size=len(cells))
                   .filter(lambda w: sum(w) > 0))
    names = ("T",) + tuple(f"Y{i}" for i in range(1, len(arities)))
    d = JointDistribution(names, {c: k / sum(weights) for c, k in zip(cells, weights) if k},
                          alphabets=tuple(tuple(range(n)) for n in arities))
    if len(arities) == 4 and draw(st.booleans()):
        return d, SourceCollection.of((1, 2), (2, 3))
    return d, SourceCollection.singletons(range(1, len(arities)))


@given(coupling_cases())
@settings(max_examples=40, deadline=None)
def test_coupling_certificate(case):
    d, coll = case
    t = VariableSet.of(0)
    coll = normalize_sources(d, coll)
    rep = vk_union_information(d, t, coll)
    assert rep.lower <= rep.value
    if rep.converged:
        assert rep.value - rep.lower <= 1e-8
    total = mutual_information(d, VariableSet(tuple(range(1, d.n_vars))), t)
    analytic = max(mutual_information(d, s.members, t) for s in coll)
    assert analytic - 1e-9 <= rep.value == rep.upper <= total + 1e-9
    # the argument keeps every per-source conditional p(a_i|t)
    q = rep.argument
    p_t = _table(d, (0,))
    for s in coll:
        idx = (0,) + s.members.indices
        want = _table(d, idx)
        got = _table(q, [q.index_of(d.var_names[i]) for i in idx])
        live = p_t > 0.0
        assert np.max(np.abs(got - want)[live] / p_t[live].reshape((-1,) + (1,) * len(s.members))) <= 1e-9


class TestSd:
    def test_table_column(self):
        expected = {
            "XOR": 1.0, "AND": 0.5, "COPY": 0.0, "RDNXOR": 1.0,
            "RDNUNQXOR": 1.0, "XORDUPLICATE": 1.0, "ANDDUPLICATE": 0.5,
            "XORLOSES": 0.0, "XORMULTICOAL": 1.0,
        }
        for name, want in expected.items():
            d = canonical(name)
            assert s_d(d, target_of(d)) == pytest.approx(want, abs=2e-2), name

    def test_unconverged_minimization_is_an_error(self, monkeypatch):
        monkeypatch.setattr(channels, "_barrier_newton", lambda w, a, s, x0, *rest: (x0, 1.0))
        d = canonical("AND")
        assert not vk_union_information(d, target_of(d), pair_collection(d)).converged
        with pytest.raises(SolverError, match="gap 1.000e"):
            s_d(d, target_of(d))

    def test_duplicate_sources_make_no_difference(self):
        d = canonical("AND")
        t = target_of(d)
        plain = s_d(d, t, pair_collection(d))
        doubled = s_d(
            d, t, SourceCollection.of(
                (d.index_of("Y1"),), (d.index_of("Y2"),), (d.index_of("Y1"),)
            )
        )
        assert plain == pytest.approx(doubled, abs=1e-6)
