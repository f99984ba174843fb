"""Baseline measures: whole-minus-sum, lattice, surrogate penalty, IPF."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cipid import (
    ArgumentError,
    IterationLimitError,
    JointDistribution,
    UnsupportedError,
    VariableSet,
    canonical,
    delta_i_synergy,
    dep_synergy,
    iep_bivariate_from_redundancy,
    imin_redundancy,
    marginalize,
    maxent_ipf,
    mutual_information,
    redundancy_lattice,
    specific_information,
    wb_pid,
    wb_synergy,
    wb_union_information,
    wms_synergy,
)
from cipid import axioms, classic, simplex, solve_lp
from cipid.ci import build_q, ci_synergy
from cipid.distribution import _cell_map, _marginal_sums, _mi_lenient
from cipid.sources import CiPartition, SourceCollection

TABLE_CASES = (
    "XOR", "AND", "COPY", "RDNXOR", "RDNUNQXOR",
    "XORDUPLICATE", "ANDDUPLICATE", "XORLOSES", "XORMULTICOAL",
)


def target_of(dist):
    return VariableSet.of(dist.index_of("T"))


def test_wms_column():
    expected = {
        "XOR": 1.0, "AND": 0.188722, "COPY": 0.0, "RDNXOR": 0.0,
        "RDNUNQXOR": 0.0, "XORDUPLICATE": 1.0, "ANDDUPLICATE": -0.122556,
        "XORLOSES": 0.0, "XORMULTICOAL": 1.0,
    }
    for name, want in expected.items():
        d = canonical(name)
        assert wms_synergy(d, target_of(d)) == pytest.approx(want, abs=5e-4), name


def test_delta_i_column():
    expected = {
        "XOR": 1.0, "AND": 0.103759, "COPY": 0.0, "RDNXOR": 1.0,
        "RDNUNQXOR": 1.0, "XORDUPLICATE": 1.0, "ANDDUPLICATE": 0.038001,
        "XORLOSES": 0.0, "XORMULTICOAL": 1.0,
    }
    for name, want in expected.items():
        d = canonical(name)
        assert delta_i_synergy(d, target_of(d)) == pytest.approx(want, abs=5e-4), name


class TestSpecificInformation:
    def test_never_negative(self):
        for name in TABLE_CASES:
            d = canonical(name)
            t = target_of(d)
            p_t = marginalize(d, t).pmf
            for v in range(d.n_vars):
                if v in t:
                    continue
                for tval in p_t:
                    assert specific_information(d, t, VariableSet.of(v), tval) >= 0.0

    def test_weighted_sum_recovers_information(self):
        d = canonical("AND")
        t = target_of(d)
        y = VariableSet.of(d.index_of("Y1"))
        p_t = marginalize(d, t).pmf
        total = sum(p * specific_information(d, t, y, tv) for tv, p in p_t.items())
        assert total == pytest.approx(mutual_information(d, y, t), abs=1e-12)


class TestIminRedundancy:
    def test_and_value(self):
        d = canonical("AND")
        coll = SourceCollection.singletons([1, 2])
        assert imin_redundancy(d, target_of(d), coll) == pytest.approx(0.311278, abs=5e-4)

    def test_copy_sees_full_bit(self):
        d = canonical("COPY")
        coll = SourceCollection.singletons([d.index_of("Y1"), d.index_of("Y2")])
        assert imin_redundancy(d, target_of(d), coll) == pytest.approx(1.0, abs=1e-9)

    def test_single_source_is_mutual_information(self):
        d = canonical("BOOM")
        t = target_of(d)
        y = d.index_of("Y2")
        got = imin_redundancy(d, t, SourceCollection.of((y,)))
        assert got == pytest.approx(
            mutual_information(d, VariableSet.of(y), t), abs=1e-12
        )

    def test_source_overlapping_the_target_is_rejected(self):
        d = canonical("AND")
        with pytest.raises(ArgumentError, match="overlap"):
            imin_redundancy(d, target_of(d), SourceCollection.of((1,), (d.index_of("T"),)))


class TestLattice:
    def test_two_predictor_shape(self):
        lat = redundancy_lattice(2)
        assert len(lat.nodes) == 4
        assert lat.nodes[0] == ((1,), (2,))
        assert lat.nodes[lat.top] == ((1, 2),)
        assert lat.nodes[lat.bottom] == ((1,), (2,))

    def test_three_predictor_shape(self):
        lat = redundancy_lattice(3)
        assert len(lat.nodes) == 18
        assert lat.nodes[lat.top] == ((1, 2, 3),)

    def test_order_respects_listing(self):
        """Every node comes after all nodes strictly below it."""
        for n in (2, 3):
            lat = redundancy_lattice(n)
            for i in range(len(lat.nodes)):
                for j in lat.down_set(i):
                    assert j <= i

    def test_below_for_two(self):
        """{1}{2} lies below every node, {1,2} above every node, and {1}
        and {2} are incomparable."""
        lat = redundancy_lattice(2)
        assert lat.nodes == (((1,), (2,)), ((1,),), ((2,),), ((1, 2),))
        assert lat.below.tolist() == [
            [True, True, True, True],
            [False, True, False, True],
            [False, False, True, True],
            [False, False, False, True],
        ]

    def test_built_once_and_read_only(self):
        for n in (2, 3):
            lat = redundancy_lattice(n)
            assert redundancy_lattice(n) is lat
            assert not lat.below.flags.writeable

    @pytest.mark.parametrize("n", (2, 3))
    @given(st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18))
    @settings(max_examples=100, deadline=None)
    def test_mobius_inverts_down_set_sums(self, n, values):
        lat = redundancy_lattice(n)
        values = values[: len(lat.nodes)]
        atoms = lat.mobius(values)
        for i, v in enumerate(values):
            assert math.fsum(atoms[j] for j in lat.down_set(i)) == pytest.approx(v, abs=1e-12)

    def test_unsupported_size(self):
        with pytest.raises(UnsupportedError):
            redundancy_lattice(4)


class TestWbPid:
    def test_one_walk_per_source(self, monkeypatch):
        """Three predictors: the target marginal, then two marginals per source."""
        walks = []
        monkeypatch.setattr(
            classic, "_marginal_sums", lambda d, idx: walks.append(idx) or _marginal_sums(d, idx)
        )
        wb_pid(canonical("XORDUPLICATE"), target_of(canonical("XORDUPLICATE")))
        assert len(walks) == 1 + 2 * 7

    def test_copy_atoms(self):
        d = canonical("COPY")
        atoms = wb_pid(d, target_of(d))
        assert atoms["{Y1}{Y2}"] == pytest.approx(1.0, abs=1e-9)
        assert atoms["{Y1}"] == pytest.approx(0.0, abs=1e-9)
        assert atoms["{Y2}"] == pytest.approx(0.0, abs=1e-9)
        assert atoms["{Y1,Y2}"] == pytest.approx(1.0, abs=1e-9)

    def test_atoms_sum_to_information(self):
        for name in TABLE_CASES:
            d = canonical(name)
            t = target_of(d)
            atoms = wb_pid(d, t)
            src = [i for i in range(d.n_vars) if i not in t]
            assert math.fsum(atoms[k] for k in atoms) == pytest.approx(
                _mi_lenient(d, src, t.indices), abs=1e-6
            ), name

    def test_top_atom_column(self):
        expected = {
            "XOR": 1.0, "AND": 0.5, "COPY": 1.0, "RDNXOR": 1.0,
            "RDNUNQXOR": 2.0, "XORDUPLICATE": 0.0, "ANDDUPLICATE": 0.0,
            "XORLOSES": 0.0, "XORMULTICOAL": 0.0,
        }
        for name, want in expected.items():
            d = canonical(name)
            assert wb_synergy(d, target_of(d)) == pytest.approx(want, abs=5e-4), name

    def test_top_atom_rounding_is_clamped(self):
        """Draw 811 of axioms.random_distribution(default_rng(5)), whose
        top atom came out -1.1e-16."""
        d = JointDistribution(("T", "Y1", "Y2"), {
            (0, 0, 0): 0.1640874982365702, (0, 1, 1): 0.43275041731840264,
            (1, 0, 0): 0.24001211642934253, (1, 2, 0): 0.0844620926279495,
            (1, 2, 1): 0.0786878753877352,
        })
        assert wb_synergy(d, target_of(d)) == 0.0

    def test_union_complement_column(self):
        """I(Y;T) minus the non-pooled atoms, the other synergy reading."""
        expected = {
            "XOR": 1.0, "AND": 0.5, "COPY": 1.0, "RDNXOR": 1.0,
            "RDNUNQXOR": 2.0, "XORDUPLICATE": 1.0, "ANDDUPLICATE": 0.5,
            "XORLOSES": 0.0, "XORMULTICOAL": 1.0,
        }
        for name, want in expected.items():
            d = canonical(name)
            t = target_of(d)
            src = [i for i in range(d.n_vars) if i not in t]
            i_total = _mi_lenient(d, src, t.indices)
            got = i_total - wb_union_information(d, t)
            assert got == pytest.approx(want, abs=5e-4), name

    def test_readings_coincide_for_two_predictors(self):
        for name in ("XOR", "AND", "COPY", "RDNXOR", "RDNUNQXOR"):
            d = canonical(name)
            t = target_of(d)
            src = [i for i in range(d.n_vars) if i not in t]
            i_total = _mi_lenient(d, src, t.indices)
            assert wb_synergy(d, t) == pytest.approx(
                i_total - wb_union_information(d, t), abs=1e-9
            )


class TestMaxentIpf:
    def test_full_joint_is_identity(self):
        d = canonical("BOOM")
        r = maxent_ipf(d, [VariableSet.of(*range(d.n_vars))])
        assert r == d

    def test_singleton_marginals_give_product(self):
        d = canonical("AND")
        r = maxent_ipf(d, [VariableSet.of(i) for i in range(3)])
        for cell, p in r.pmf.items():
            want = 1.0
            for i, sym in enumerate(cell):
                want *= marginalize(d, VariableSet.of(i)).prob((sym,))
            assert p == pytest.approx(want, abs=1e-9)

    def test_pairwise_triangle_on_and(self):
        """All pairwise marginals of AND force the fit back onto AND itself."""
        d = canonical("AND")
        sets = [d.varset("T", "Y1"), d.varset("T", "Y2"), d.varset("Y1", "Y2")]
        r = maxent_ipf(d, sets)
        assert set(r.pmf) == set(d.pmf)
        for vs in sets:
            a = marginalize(d, vs).pmf
            b = marginalize(r, vs).pmf
            worst = max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))
            assert worst <= 1e-8

    def test_perturbations_do_not_raise_entropy(self):
        """The fit is a local entropy maximum among marginal-preserving moves."""
        rng = np.random.default_rng(7)
        d = canonical("RDNXOR")
        sets = [d.varset("T", "Y1"), d.varset("T", "Y2")]
        r = maxent_ipf(d, sets)
        cells = sorted(r.pmf)
        base = np.array([r.pmf[c] for c in cells])
        h_base = -np.sum(base[base > 0] * np.log2(base[base > 0]))

        rows = []
        for vs in sets:
            groups = {}
            for i, c in enumerate(cells):
                groups.setdefault(tuple(c[j] for j in vs.indices), []).append(i)
            for idxs in groups.values():
                row = np.zeros(len(cells))
                row[idxs] = 1.0
                rows.append(row)
        a = np.array(rows)
        # random directions in the null space keep every preserved marginal
        _, s, vt = np.linalg.svd(a)
        null = vt[np.sum(s > 1e-12):]
        assert null.shape[0] > 0
        for _ in range(100):
            z = null.T @ rng.normal(size=null.shape[0])
            step = 1e-4 / max(np.max(np.abs(z)), 1e-12)
            q = base + step * z
            if np.min(q) < 0:
                continue
            qq = q[q > 0]
            h = -np.sum(qq * np.log2(qq))
            assert h <= h_base + 1e-12

    def test_marginals_must_cover(self):
        d = canonical("AND")
        with pytest.raises(ArgumentError):
            maxent_ipf(d, [d.varset("T", "Y1")])

    def test_null_cells_match_the_per_cell_search_in_fewer_lps(self, lp_counts):
        # cells 4, 7, 9 and 11 are forced to zero by the pairwise marginals,
        # although every marginal cell touching them is positive; 6 is not
        support = [[[1, 1, 1], [1, 0, 1], [0, 0, 1]], [[0, 1, 0], [1, 1, 1], [1, 1, 1]]]
        w = np.array(support, dtype=float).ravel() * np.arange(1, 19)
        p = w / w.sum()
        shape = (2, 3, 3)
        plans = [
            (_cell_map(shape, axes), p.reshape(shape).sum(axis=other).ravel())
            for axes, other in (((0, 1), 2), ((0, 2), 1), ((1, 2), 0))
        ]
        a_eq = np.vstack([m == np.arange(t.size)[:, None] for m, t in plans]).astype(float)
        b_eq = np.concatenate([t for _, t in plans])
        per_cell = [
            solve_lp(np.eye(18)[i], a_eq, b_eq, maximize=True).objective <= 1e-12
            for i in range(18)
        ]
        lp_counts["prepared"].clear()
        lp_counts["solved"] = 0
        point = simplex._relative_interior_point(a_eq, b_eq, p)
        mask = point <= 0.0
        assert np.flatnonzero(mask).tolist() == [4, 7, 9, 11]
        assert mask.tolist() == per_cell
        assert len(lp_counts["prepared"]) == 1
        assert lp_counts["solved"] == 2
        assert np.max(np.abs(a_eq @ point - b_eq)) <= 1e-12


class TestDepSynergy:
    def test_matches_ci_on_simple_cases(self):
        for name in ("XOR", "AND", "COPY", "RDNXOR"):
            d = canonical(name)
            t = target_of(d)
            res = dep_synergy(d, t)
            assert res["S"] == pytest.approx(ci_synergy(d, t), abs=1e-3), name

    def test_and_entries(self):
        d = canonical("AND")
        res = dep_synergy(d, target_of(d))
        assert res["I_q"] == pytest.approx(0.540852, abs=5e-4)
        assert res["I_r"] == pytest.approx(0.811278, abs=5e-4)
        assert res["U1"] == pytest.approx(0.229574, abs=5e-4)
        assert res["U2"] == pytest.approx(0.229574, abs=5e-4)

    def test_needs_two_predictors(self):
        d = canonical("XORLOSES")
        with pytest.raises(ArgumentError):
            dep_synergy(d, target_of(d))

    def test_matches_the_conditional_information_definition(self):
        """U_i is the least I(Y_i;T|Y_other) over q and r, each computed on its model.

        Every two-predictor draw among the first 80 is checked, zero cells
        and unconverged fits included.
        """
        rng = np.random.default_rng(1)
        t = VariableSet.of(0)
        checked = failed = 0
        for _ in range(80):
            d = axioms.random_distribution(rng)
            if d.n_vars != 3:
                continue
            q = build_q(d, t, CiPartition((VariableSet.of(1), VariableSet.of(2)), (0, 1)))
            try:
                r = maxent_ipf(d, [VariableSet.of(0, 1), VariableSet.of(0, 2), VariableSet.of(1, 2)])
            except IterationLimitError:
                with pytest.raises(IterationLimitError):
                    dep_synergy(d, t)
                failed += 1
                continue

            def cond(y, other):
                return min(
                    _mi_lenient(m, sorted((y, other)), (0,)) - _mi_lenient(m, [other], (0,))
                    for m in (q, r)
                )

            i_q, i_r = _mi_lenient(q, [1, 2], (0,)), _mi_lenient(r, [1, 2], (0,))
            res = dep_synergy(d, t)
            assert (res["I_q"], res["I_r"]) == (i_q, i_r)
            assert res["S"] == max(_mi_lenient(d, [1, 2], (0,)) - min(i_q, i_r), 0.0)
            assert res["U1"] == pytest.approx(max(cond(1, 2), 0.0), abs=1e-9)
            assert res["U2"] == pytest.approx(max(cond(2, 1), 0.0), abs=1e-9)
            checked += 1
        assert checked >= 30 and failed >= 1


class TestIepBookkeeping:
    def test_tweaked_copy_with_zero_redundancy(self):
        d = canonical("TWEAKED_COPY")
        res = iep_bivariate_from_redundancy(d, target_of(d), 0.0)
        assert res["U1"] == pytest.approx(0.918296, abs=1e-4)
        assert res["U2"] == pytest.approx(0.918296, abs=1e-4)
        assert res["S"] == pytest.approx(-0.251629, abs=1e-4)

    def test_atoms_always_rebalance(self):
        d = canonical("AND")
        t = target_of(d)
        for r in (0.0, 0.1, 0.25):
            res = iep_bivariate_from_redundancy(d, t, r)
            total = res["R"] + res["U1"] + res["U2"] + res["S"]
            assert total == pytest.approx(res["I_total"], abs=1e-9)

    def test_rejects_non_finite_redundancy(self):
        d = canonical("AND")
        with pytest.raises(ArgumentError):
            iep_bivariate_from_redundancy(d, target_of(d), float("nan"))
