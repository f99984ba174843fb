"""Release gate: the eight numbered acceptance criteria.

One test per criterion. Each prints a line per checked cell and a
verdict line, then fails if any cell missed its stated tolerance.

Three lattice synergy cells in criterion 1 and most of criterion 5
disagree with the bundled reference values. Those cells are kept at
their stated tolerances and left red on purpose; the computed numbers
are internally consistent (see the per-cell output) and the gap is
documented rather than papered over.
"""

import itertools
import math
import time

import numpy as np

from cipid import (
    Channel,
    JointDistribution,
    SourceCollection,
    VariableSet,
    build_q,
    canonical,
    channel_from,
    ci_synergy,
    ci_union_information,
    corpus_names,
    degradation_leq,
    degradation_redundancy,
    delta_i_synergy,
    dep_synergy,
    enumerate_ci_partitions,
    iep_bivariate_from_redundancy,
    mutual_information,
    s_d,
    wb_synergy,
    wb_union_information,
    wms_synergy,
)
from cipid.corpus import CORPUS

CLOSED = 5e-3
OPT = 2e-2


class Cells:
    """Tally of per-cell checks for one criterion."""

    def __init__(self, criterion: int):
        self.criterion = criterion
        self.failed: list[str] = []
        print(f"\ncriterion {criterion}:")

    def check(self, label: str, got: float, want: float, tol: float) -> None:
        ok = abs(got - want) <= tol
        print(
            f"  {label:<52} computed {got: 10.6f}  expected {want: 10.6f}"
            f"  tol {tol:g}  {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            self.failed.append(label)

    def expect(self, label: str, condition: bool) -> None:
        print(f"  {label:<52} {'ok' if condition else 'FAIL'}")
        if not condition:
            self.failed.append(label)

    def verdict(self) -> None:
        if self.failed:
            print(f"criterion {self.criterion}: FAIL ({len(self.failed)} cells)")
        else:
            print(f"criterion {self.criterion}: PASS")
        assert not self.failed, (
            f"criterion {self.criterion} missed {len(self.failed)} cells: "
            + ", ".join(self.failed)
        )


def target_of(d: JointDistribution, name: str = "T") -> VariableSet:
    return VariableSet.of(d.index_of(name))


def sources_named(d: JointDistribution, names) -> SourceCollection:
    return SourceCollection.singletons(tuple(d.index_of(n) for n in names))


def rest_sources(d: JointDistribution, target: VariableSet) -> SourceCollection:
    return SourceCollection.singletons(
        tuple(i for i in range(d.n_vars) if i not in target)
    )


def pooled_members(coll: SourceCollection) -> VariableSet:
    members = coll.sources[0].members
    for s in coll.sources[1:]:
        members = members.union(s.members)
    return members


def best_surrogate_information(d, target, coll) -> float:
    """Largest I_q(Y;T) over the conditional-independence surrogates."""
    pooled = pooled_members(coll)
    return max(
        mutual_information(build_q(d, target, part), pooled, target)
        for part in enumerate_ci_partitions(coll)
    )


def degradation_atoms(d, target, seed=0):
    coll = rest_sources(d, target)
    red = degradation_redundancy(d, target, coll, seed=seed).value
    return iep_bivariate_from_redundancy(d, target, red)


# ---------------------------------------------------------------------------
# criterion 1: the nine-case synergy table
# ---------------------------------------------------------------------------

# case, lattice top atom, whole-minus-sum, correlational importance,
# minimized-union synergy, conditional-independence synergy
REFERENCE_TABLE = [
    ("XOR", 1.0, 1.0, 1.0, 1.0, 1.0),
    ("AND", 0.5, 0.189, 0.104, 0.5, 0.270),
    ("COPY", 1.0, 0.0, 0.0, 0.0, 0.0),
    ("RDNXOR", 1.0, 0.0, 1.0, 1.0, 1.0),
    ("RDNUNQXOR", 2.0, 0.0, 1.0, 1.0, 1.0),
    ("XORDUPLICATE", 1.0, 1.0, 1.0, 1.0, 1.0),
    ("ANDDUPLICATE", 0.5, -0.123, 0.038, 0.5, 0.270),
    ("XORLOSES", 0.0, 0.0, 0.0, 0.0, 0.0),
    ("XORMULTICOAL", 1.0, 1.0, 1.0, 1.0, 1.0),
]


def test_criterion_1_reference_table():
    cells = Cells(1)
    for name, swb, swms, sdi, ssd, sci in REFERENCE_TABLE:
        d = canonical(name)
        t = target_of(d)
        cells.check(f"{name} s_wms", wms_synergy(d, t), swms, CLOSED)
        cells.check(f"{name} delta_i", delta_i_synergy(d, t), sdi, CLOSED)
        cells.check(f"{name} s_ci", ci_synergy(d, t, rest_sources(d, t)), sci, CLOSED)
        cells.check(f"{name} s_wb", wb_synergy(d, t), swb, CLOSED)
        start = time.perf_counter()
        cells.check(f"{name} s_d", s_d(d, t), ssd, OPT)
        elapsed = time.perf_counter() - start
        if name == "RDNUNQXOR":
            cells.expect(
                f"RDNUNQXOR s_d finished in {elapsed:.2f}s (budget 300s)",
                elapsed < 300.0,
            )
    cells.verdict()


# ---------------------------------------------------------------------------
# criterion 2: duplicate predictors and source normalization
# ---------------------------------------------------------------------------


def test_criterion_2_duplicate_sources():
    cells = Cells(2)

    d = canonical("AND")
    t = target_of(d)
    pair = sources_named(d, ("Y1", "Y2"))
    cells.check(
        "AND best surrogate information",
        best_surrogate_information(d, t, pair),
        0.5409,
        5e-4,
    )

    dd = canonical("ANDDUPLICATE")
    td = target_of(dd)
    trio = sources_named(dd, ("Y1", "Y2", "Y3"))
    pair_d = sources_named(dd, ("Y1", "Y2"))
    cells.check(
        "ANDDUPLICATE surrogate with duplicate retained",
        best_surrogate_information(dd, td, trio),
        0.6810,
        5e-4,
    )
    cells.check(
        "ANDDUPLICATE union info, trio vs pair",
        ci_union_information(dd, td, trio),
        ci_union_information(dd, td, pair_d),
        1e-12,
    )
    cells.verdict()


# ---------------------------------------------------------------------------
# criterion 3: worked decompositions
# ---------------------------------------------------------------------------


def t_equals_y1() -> JointDistribution:
    rows = (("0", "0", "0"), ("0", "0", "1"), ("1", "1", "0"), ("1", "1", "1"))
    return JointDistribution(("T", "Y1", "Y2"), {r: 0.25 for r in rows})


BOOM_REFERENCE_CHANNEL = [
    [0.0, 1.0, 0.0],
    [0.0, 0.75, 0.25],
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
]


def test_criterion_3_worked_decompositions(boom_redundancy):
    cells = Cells(3)

    atoms = degradation_atoms(t_equals_y1(), VariableSet.of(0))
    for key, want in (("R", 0.0), ("U1", 1.0), ("U2", 0.0), ("S", 0.0)):
        cells.check(f"T=Y1 atom {key}", atoms[key], want, 1e-6)

    d = canonical("COPY")
    atoms = degradation_atoms(d, target_of(d))
    for key, want in (("R", 0.0), ("U1", 1.0), ("U2", 1.0), ("S", 0.0)):
        cells.check(f"COPY atom {key}", atoms[key], want, OPT)

    cells.check("BOOM shared-channel information", boom_redundancy.value, 0.322, OPT)
    boom = canonical("BOOM")
    tb = target_of(boom)
    k1 = channel_from(boom, tb, VariableSet.of(boom.index_of("Y1")))
    k2 = channel_from(boom, tb, VariableSet.of(boom.index_of("Y2")))
    kq = Channel(k1.input_states, k1.input_marginal, (0, 1, 2), BOOM_REFERENCE_CHANNEL)
    cells.expect(
        "BOOM reference channel degrades below both sources",
        degradation_leq(kq, k1)[0] and degradation_leq(kq, k2)[0],
    )
    cells.check(
        "BOOM reference channel information", kq.mutual_information(), 0.322, 1e-3
    )

    d = canonical("TWEAKED_COPY")
    atoms = degradation_atoms(d, target_of(d))
    cells.check("TWEAKED_COPY atom U1", atoms["U1"], 0.918, 1e-2)
    cells.check("TWEAKED_COPY atom U2", atoms["U2"], 0.918, 1e-2)
    cells.check("TWEAKED_COPY atom S", atoms["S"], -0.251, 1e-2)
    cells.verdict()


# ---------------------------------------------------------------------------
# criterion 4: target monotonicity counterexamples
# ---------------------------------------------------------------------------


def test_criterion_4_target_counterexamples():
    cells = Cells(4)

    d = canonical("TARGET_MONO_CI")
    coll = sources_named(d, ("Y1", "Y2"))
    narrow = ci_union_information(d, target_of(d), coll)
    wide = ci_union_information(
        d, VariableSet.of(d.index_of("T"), d.index_of("Z")), coll
    )
    cells.check("TARGET_MONO_CI union info toward T", narrow, 0.91, CLOSED)
    cells.check("TARGET_MONO_CI union info toward (T,Z)", wide, 0.90, CLOSED)
    cells.expect("TARGET_MONO_CI larger target strictly loses", narrow > wide)

    d = canonical("TARGET_MONO_AND")
    coll = sources_named(d, ("Y1", "Y2"))
    narrow = degradation_redundancy(d, target_of(d), coll, seed=0).value
    wide = degradation_redundancy(
        d, VariableSet.of(d.index_of("T"), d.index_of("Z")), coll, seed=0
    ).value
    cells.check("TARGET_MONO_AND shared info toward T", narrow, 0.311, OPT)
    cells.check("TARGET_MONO_AND shared info toward (T,Z)", wide, 0.0, OPT)

    d = canonical("COPY_XOR_TARGETS")
    coll = sources_named(d, ("Y1", "Y2"))
    cells.check(
        "COPY_XOR_TARGETS synergy toward T1",
        ci_synergy(d, VariableSet.of(d.index_of("T1")), coll),
        0.0,
        1e-6,
    )
    cells.check(
        "COPY_XOR_TARGETS synergy toward T2",
        ci_synergy(d, VariableSet.of(d.index_of("T2")), coll),
        1.0,
        1e-6,
    )
    cells.verdict()


# ---------------------------------------------------------------------------
# criterion 5: convexity refutations
# ---------------------------------------------------------------------------


def test_criterion_5_convexity_refutations():
    cells = Cells(5)

    sci = {}
    for r in (0.0, 0.25, 0.5):
        d = canonical("ADAPTED_XOR", r)
        sci[r] = ci_synergy(d, target_of(d), rest_sources(d, target_of(d)))
    avg = 0.5 * (sci[0.0] + sci[0.5])
    cells.check("ADAPTED_XOR s_ci at r=0.25", sci[0.25], 0.552, CLOSED)
    cells.check("ADAPTED_XOR endpoint average", avg, 0.440, CLOSED)
    cells.expect("ADAPTED_XOR midpoint above endpoint average", sci[0.25] > avg)

    sd = {}
    for r in (0.0, 0.25, 0.5):
        d = canonical("ADAPTED_XOR_V2", r)
        sd[r] = s_d(d, target_of(d))
    avg = 0.5 * (sd[0.0] + sd[0.5])
    cells.check("ADAPTED_XOR_V2 s_d at r=0.25", sd[0.25], 0.338, OPT)
    cells.check("ADAPTED_XOR_V2 endpoint average", avg, 0.3095, OPT)
    cells.expect("ADAPTED_XOR_V2 midpoint above endpoint average", sd[0.25] > avg)
    cells.verdict()


def test_criterion_5_alternative_readings():
    """Not part of the gate: the readings that do give criterion 5's values.

    The bundled ADAPTED_XOR midpoint 0.552 is s_ci at r = 0.4, not at
    r = 0.25.  The bundled ADAPTED_XOR_V2 values, 0.338 at r = 0.25 and
    0.3095 for the endpoint average, sit near delta_I rather than s_d.
    The criterion keeps its own expected values and tolerances (README).
    """
    d = canonical("ADAPTED_XOR", 0.4)
    t = target_of(d)
    assert abs(ci_synergy(d, t, rest_sources(d, t)) - 0.552190) <= 5e-7

    delta = {}
    for r in (0.0, 0.25, 0.5):
        d = canonical("ADAPTED_XOR_V2", r)
        delta[r] = delta_i_synergy(d, target_of(d))
    assert abs(delta[0.25] - 0.337166) <= 5e-7
    assert abs(0.5 * (delta[0.0] + delta[0.5]) - 0.305612) <= 5e-7


# ---------------------------------------------------------------------------
# criterion 6: the reduced-OR family
# ---------------------------------------------------------------------------

REDUCED_OR_SURROGATE = {
    ("0", "0", "0"): 0.5,
    ("1", "0", "0"): 0.125,
    ("1", "0", "1"): 0.125,
    ("1", "1", "0"): 0.125,
    ("1", "1", "1"): 0.125,
}


def test_criterion_6_reduced_or_family():
    cells = Cells(6)
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        d = canonical("ADAPTED_REDUCED_OR", r)
        t = target_of(d)
        coll = sources_named(d, ("Y1", "Y2"))
        (part,) = enumerate_ci_partitions(coll)
        q = build_q(d, t, part)
        support = {k: v for k, v in q.pmf.items() if v > 0.0}
        exact = set(support) == set(REDUCED_OR_SURROGATE) and all(
            abs(support[k] - REDUCED_OR_SURROGATE[k]) <= 1e-12
            for k in REDUCED_OR_SURROGATE
        )
        cells.expect(f"surrogate table at r={r:g} matches exactly", exact)

        pooled = pooled_members(coll)
        iq = mutual_information(q, pooled, t)
        cells.check(f"surrogate information at r={r:g}", iq, 0.549, 5e-4)
        if r in (0.75, 1.0):
            ip = mutual_information(d, pooled, t)
            cells.expect(
                f"surrogate beats the joint at r={r:g} ({iq:.4f} > {ip:.4f})", iq > ip
            )
            cells.check(f"s_ci vanishes at r={r:g}", ci_synergy(d, t, coll), 0.0, 1e-9)
    cells.verdict()


# ---------------------------------------------------------------------------
# criterion 7: randomized properties and the synergy chain
# ---------------------------------------------------------------------------


def corpus_cases():
    parametric = {"ADAPTED_XOR", "ADAPTED_XOR_V2", "ADAPTED_REDUCED_OR"}
    for name in corpus_names():
        if name in parametric:
            for r in (0.0, 0.25, 0.5, 0.75, 1.0):
                yield f"{name}(r={r:g})", canonical(name, r), CORPUS[name].default_target
        else:
            yield name, canonical(name), CORPUS[name].default_target


def test_criterion_7_property_suites(axiom_reports):
    cells = Cells(7)
    for rep in axiom_reports:
        cells.expect(
            f"{rep.name}: {rep.violations}/{rep.trials} violations"
            f" (worst {rep.worst:.2e})",
            rep.violations == 0,
        )
    for label, d, target_name in corpus_cases():
        t = target_of(d, target_name)
        rest = VariableSet(tuple(i for i in range(d.n_vars) if i not in t))
        total = mutual_information(d, rest, t)
        wms = wms_synergy(d, t)
        sd = s_d(d, t)
        swb = total - wb_union_information(d, t)
        ok = (
            max(0.0, wms) <= sd + OPT
            and sd <= swb + OPT
            and swb <= total + 1e-7
        )
        cells.expect(
            f"chain on {label}: max(0,{wms:.3f}) <= {sd:.3f} <= {swb:.3f} <= {total:.3f}",
            ok,
        )
    cells.verdict()


# ---------------------------------------------------------------------------
# criterion 8: dependency-constraint synergy coincides
# ---------------------------------------------------------------------------


def random_bivariate(rng) -> JointDistribution:
    arities = [int(rng.integers(2, 4)) for _ in range(3)]
    outcomes = list(
        itertools.product(*[[str(s) for s in range(k)] for k in arities])
    )
    w = rng.dirichlet(np.ones(len(outcomes)))
    if rng.random() < 0.25:
        mask = rng.random(len(w)) < 0.35
        if mask.sum() < len(w) - 2:
            w = np.where(mask, 0.0, w)
            w = w / w.sum()
    alphabets = tuple(tuple(str(s) for s in range(k)) for k in arities)
    pmf = {o: float(p) for o, p in zip(outcomes, w) if p > 0.0}
    return JointDistribution(("T", "Y1", "Y2"), pmf, alphabets=alphabets)


def test_criterion_8_dependency_coincidence():
    cells = Cells(8)
    for name in ("XOR", "AND", "COPY", "RDNXOR"):
        d = canonical(name)
        t = target_of(d)
        gap = abs(dep_synergy(d, t)["S"] - ci_synergy(d, t, rest_sources(d, t)))
        cells.check(f"{name} |s_dep - s_ci|", gap, 0.0, 1e-3)

    rng = np.random.default_rng(0)
    worst_excess = -math.inf
    worst_ir = -math.inf
    for _ in range(100):
        d = random_bivariate(rng)
        t = VariableSet.of(0)
        res = dep_synergy(d, t)
        sci = ci_synergy(d, t, SourceCollection.singletons((1, 2)))
        ip = mutual_information(d, VariableSet((1, 2)), t)
        worst_excess = max(worst_excess, sci - res["S"])
        worst_ir = max(worst_ir, res["I_r"] - ip)
    cells.expect(
        f"100 random joints: s_ci - s_dep <= 1e-7 (worst {worst_excess:.2e})",
        worst_excess <= 1e-7,
    )
    cells.expect(
        f"100 random joints: I_r - I_p <= 1e-7 (worst {worst_ir:.2e})",
        worst_ir <= 1e-7,
    )
    cells.verdict()
