"""Randomized property checks for the union-information measures.

Each property is tested over freshly drawn joint distributions with two
or three predictor variables and alphabet sizes up to three.  The suite
is deterministic for a given seed and reports, per property, how many
trials ran, how many violated the property, and the worst deviation
seen.  These are the exact relations the measures are supposed to
satisfy, so any nonzero violation count is a bug.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import degradation_leq
from .ci import ci_bivariate_decomposition, ci_synergy, ci_union_information
from .distribution import (
    Channel,
    JointDistribution,
    VariableSet,
    _mi_lenient,
    channel_from,
    conditional_mutual_information,
    entropy,
)
from .errors import ArgumentError
from .sources import Source, SourceCollection

_EXACT = 1e-9
_LOOSE = 1e-7


@dataclass
class PropertyReport:
    name: str
    trials: int = 0
    violations: int = 0
    worst: float = 0.0

    def record(self, deviation: float, tol: float) -> None:
        self.trials += 1
        self.worst = max(self.worst, deviation)
        if deviation > tol:
            self.violations += 1


def random_distribution(rng: np.random.Generator) -> JointDistribution:
    """A small random joint distribution with target T and 2 or 3 predictors."""
    n_src = int(rng.integers(2, 4))
    sizes = [int(rng.integers(2, 4)) for _ in range(n_src + 1)]
    outcomes = list(itertools.product(*(tuple(range(k)) for k in sizes)))
    alpha = float(rng.choice([0.3, 1.0, 3.0]))
    probs = rng.dirichlet(np.full(len(outcomes), alpha))
    if rng.random() < 0.4:
        mask = rng.random(len(outcomes)) < 0.5
        if int(mask.sum()) >= 2:
            probs = np.where(mask, probs, 0.0)
            probs = probs / probs.sum()
    pmf = {o: float(p) for o, p in zip(outcomes, probs) if p > 0.0}
    names = ["T"] + [f"Y{i}" for i in range(1, n_src + 1)]
    return JointDistribution(names, pmf)


def _random_collection(rng: np.random.Generator, src: list[int]) -> SourceCollection:
    groups = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, len(src) + 1))
        pick = sorted(int(v) for v in rng.choice(src, size=k, replace=False))
        groups.append(pick)
    return SourceCollection.of(*groups)


def run_axiom_suite(trials: int = 200, seed: int = 0) -> list[PropertyReport]:
    """Run every property ``trials`` times and return the per-property tallies."""
    if trials < 1:
        raise ArgumentError("trials must be at least 1")
    if seed < 0:
        raise ArgumentError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)

    reports = {
        name: PropertyReport(name)
        for name in (
            "union_order_invariance",
            "union_self_information",
            "union_within_bounds",
            "union_monotone_under_new_source",
            "union_duplicate_invariance",
            "union_strong_identity",
            "synergy_single_source_chain",
            "synergy_covered_target_zero",
            "synergy_within_bounds",
            "bivariate_atoms_nonnegative",
            "mi_chain_rule",
            "degradation_data_processing",
        )
    }

    for _ in range(trials):
        dist = random_distribution(rng)
        target = VariableSet.of(0)
        src = [i for i in range(1, dist.n_vars)]
        coll = _random_collection(rng, src)

        # order invariance: permuting the listed sources changes nothing
        base = ci_union_information(dist, target, coll)
        perm = [coll.sources[i] for i in rng.permutation(len(coll.sources))]
        shuffled = ci_union_information(dist, target, SourceCollection(tuple(perm)))
        reports["union_order_invariance"].record(abs(base - shuffled), _EXACT)

        # a lone source yields exactly its mutual information
        y = int(rng.choice(src))
        single = ci_union_information(
            dist, target, SourceCollection.of([y])
        )
        mi_y = _mi_lenient(dist, [y], target.indices)
        reports["union_self_information"].record(abs(single - mi_y), _EXACT)

        # bounds: between the best single source and the pooled information
        pooled = coll.union().indices
        i_p = _mi_lenient(dist, pooled, target.indices)
        best_single = max(
            _mi_lenient(dist, s.members.indices, target.indices) for s in coll
        )
        dev = max(best_single - base, base - i_p, 0.0)
        reports["union_within_bounds"].record(dev, _EXACT)

        # adding a source cannot reduce the union
        extra_k = int(rng.integers(1, len(src) + 1))
        extra = sorted(int(v) for v in rng.choice(src, size=extra_k, replace=False))
        grown = SourceCollection(coll.sources + (Source(VariableSet(tuple(extra))),))
        i_grown = ci_union_information(dist, target, grown)
        reports["union_monotone_under_new_source"].record(max(base - i_grown, 0.0), _LOOSE)

        # adding a subset of a listed source (up to the whole) changes nothing
        host = coll.sources[int(rng.integers(len(coll.sources)))]
        take = int(rng.integers(1, len(host.members) + 1))
        sub = sorted(
            int(v) for v in rng.choice(host.members.indices, size=take, replace=False)
        )
        dup = SourceCollection(coll.sources + (Source(VariableSet(tuple(sub))),))
        i_dup = ci_union_information(dist, target, dup)
        reports["union_duplicate_invariance"].record(abs(base - i_dup), _EXACT)

        # the target, read as a source, carries its full entropy
        ident = ci_union_information(dist, target, SourceCollection.of([0]))
        reports["union_strong_identity"].record(
            abs(ident - entropy(dist, target)), _EXACT
        )

        # a lone source's synergy is what the rest adds on top of it
        s_single = ci_synergy(dist, target, SourceCollection.of([y]))
        rest = [v for v in src if v != y]
        expect = (
            conditional_mutual_information(
                dist, VariableSet(tuple(rest)), target, VariableSet.of(y)
            )
            if rest
            else 0.0
        )
        reports["synergy_single_source_chain"].record(abs(s_single - expect), _EXACT)

        # no synergy about a variable the collection already covers
        full = SourceCollection.singletons(range(dist.n_vars))
        s_own = ci_synergy(dist, VariableSet.of(int(rng.integers(dist.n_vars))), full)
        reports["synergy_covered_target_zero"].record(abs(s_own), _EXACT)

        # synergy sits inside [0, I(Y;T)]
        s = ci_synergy(dist, target, coll)
        i_all = _mi_lenient(dist, src, target.indices)
        reports["synergy_within_bounds"].record(max(-s, s - i_all, 0.0), _EXACT)

        # all four atoms of the two-predictor decomposition are non-negative
        if len(src) == 2:
            atoms = ci_bivariate_decomposition(dist, target)
            worst = max(-min(atoms[k] for k in ("R", "U1", "U2", "S")), 0.0)
            reports["bivariate_atoms_nonnegative"].record(worst, _EXACT)

        # chain rule: I(AB;T) = I(A;T) + I(B;T|A)
        split = int(rng.integers(1, len(src)))
        a_part, b_part = src[:split], src[split:]
        lhs = _mi_lenient(dist, src, target.indices)
        rhs = _mi_lenient(dist, a_part, target.indices) + conditional_mutual_information(
            dist, VariableSet(tuple(b_part)), target, VariableSet(tuple(a_part))
        )
        reports["mi_chain_rule"].record(abs(lhs - rhs), _EXACT)

        # garbling a channel keeps it reachable and loses information
        k1 = channel_from(dist, target, VariableSet.of(src[0]))
        ny = len(k1.output_alphabet)
        m = rng.dirichlet(np.ones(ny), size=ny)
        k2 = Channel(
            k1.input_states,
            k1.input_marginal,
            tuple(range(ny)),
            k1.matrix @ m,
        )
        ok, _w = degradation_leq(k2, k1)
        gap = k2.mutual_information() - k1.mutual_information()
        dev = max(0.0 if ok else 1.0, gap)
        reports["degradation_data_processing"].record(max(dev, 0.0), _LOOSE)

    return list(reports.values())
