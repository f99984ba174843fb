"""Command line front end.

Four subcommands: ``measure`` evaluates named measures on one
distribution, ``reproduce`` recomputes the bundled reference tables and
checks every cell, ``sweep`` writes a CSV over a parameter grid, and
``axioms`` runs the randomized property suite.  Exit codes: 0 on
success, 1 when a reproduce cell or axiom check fails, 2 for bad
arguments or unreadable input, 3 for solver failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from typing import Callable

from . import __version__
from .axioms import run_axiom_suite
from .channels import (
    Channel,
    _converged_value,
    _union_report,
    degradation_leq,
    degradation_redundancy,
    s_d,
)
from .ci import ci_synergy, ci_union_information
from .classic import (
    delta_i_synergy,
    dep_synergy,
    iep_bivariate_from_redundancy,
    imin_redundancy,
    wb_synergy,
    wb_union_information,
    wms_synergy,
)
from .corpus import CORPUS, canonical, load_distribution
from .distribution import JointDistribution, VariableSet, _mi_lenient, _source_variables, channel_from
from .errors import (
    ArgumentError,
    ConsistencyError,
    DomainError,
    ParseError,
    PidError,
    SolverError,
    UnsupportedError,
)
from .sources import SourceCollection

_USAGE_ERRORS = (ArgumentError, ParseError, UnsupportedError, DomainError)
_SOLVER_ERRORS = (SolverError, ConsistencyError)


class _Ctx:
    def __init__(self, dist: JointDistribution, target: VariableSet,
                 collection: SourceCollection, seed: int):
        self.dist = dist
        self.target = target
        self.collection = collection
        self.seed = seed
        self._values: dict[str, object] = {}

    def value(self, name: str) -> object:
        """The named measure or table evaluation, computed once per context.

        A failure is kept too, and raised again on every later read.
        """
        if name not in self._values:
            fn = MEASURES.get(name) or _TABLE_EVALUATIONS[name]
            try:
                self._values[name] = fn(self)
            except PidError as exc:
                self._values[name] = exc
        value = self._values[name]
        if isinstance(value, PidError):
            raise value
        return value


def _m_i_total(c: _Ctx) -> float:
    return _mi_lenient(c.dist, _source_variables(c.dist, c.target), c.target.indices)


MEASURES: dict[str, Callable[[_Ctx], float]] = {
    "i_total": _m_i_total,
    "i_cup_ci": lambda c: ci_union_information(c.dist, c.target, c.collection),
    "s_ci": lambda c: ci_synergy(c.dist, c.target, c.collection),
    "s_wms": lambda c: wms_synergy(c.dist, c.target),
    "delta_i": lambda c: delta_i_synergy(c.dist, c.target),
    "imin": lambda c: imin_redundancy(c.dist, c.target, c.collection),
    "s_wb": lambda c: wb_synergy(c.dist, c.target),
    "i_cup_wb": lambda c: wb_union_information(c.dist, c.target),
    "s_d": lambda c: s_d(c.dist, c.target, c.collection),
    "i_cup_vk": lambda c: _converged_value(
        _union_report(c.dist, c.target, c.collection), "union minimization"
    ),
    "i_cap_d": lambda c: _converged_value(
        degradation_redundancy(c.dist, c.target, c.collection, seed=c.seed), "redundancy climb"
    ),
    "s_dep": lambda c: dep_synergy(c.dist, c.target)["S"],
}


def _resolve_dist(spec: str, r: float | None) -> JointDistribution:
    if spec.startswith("corpus:"):
        return canonical(spec[len("corpus:"):], r)
    if r is not None:
        raise ArgumentError("--r only applies to corpus: families")
    return load_distribution(spec)


def _resolve_target(dist: JointDistribution, spec: str | None, dist_spec: str) -> VariableSet:
    if spec is None:
        if dist_spec.startswith("corpus:"):
            name = dist_spec[len("corpus:"):]
            if name in CORPUS:
                spec = CORPUS[name].default_target
        if spec is None:
            if "T" in dist.var_names:
                spec = "T"
            else:
                raise ArgumentError("no default target; pass --target")
    names = [t.strip() for t in spec.split(",") if t.strip()]
    if not names:
        raise ArgumentError("target specification is empty")
    return dist.varset(*names)


def _resolve_sources(
    dist: JointDistribution, spec: str | None, target: VariableSet
) -> SourceCollection:
    if spec is None:
        return SourceCollection.singletons(_source_variables(dist, target))
    groups = []
    for group in spec.split(";"):
        names = [t.strip() for t in group.split(",") if t.strip()]
        if not names:
            raise ArgumentError(f"empty source group in {spec!r}")
        groups.append(tuple(dist.index_of(n) for n in names))
    return SourceCollection.of(*groups)


def _check_measures(names: list[str]) -> None:
    for name in names:
        if name not in MEASURES:
            raise ArgumentError(
                f"unknown measure {name!r}; available: {', '.join(MEASURES)}"
            )


def _fmt(value) -> str:
    """Six decimals, with a value that rounds to zero printed unsigned; yes/no for a bool."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def cmd_measure(args) -> int:
    _check_measures(args.measure)
    dist = _resolve_dist(args.dist, args.r)
    target = _resolve_target(dist, args.target, args.dist)
    collection = _resolve_sources(dist, args.sources, target)
    ctx = _Ctx(dist, target, collection, args.seed)
    for name in args.measure:
        print(f"{name}\t{_fmt(ctx.value(name))}")
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


# The garbling K(Q|T) that the paper prints for BOOM's redundancy.
_BOOM_PRINTED_GARBLE = [
    [0.0, 1.0, 0.0],
    [0.0, 0.75, 0.25],
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
]


def _printed_channel(c: _Ctx) -> Channel:
    k1 = channel_from(c.dist, c.target, c.dist.varset("Y1"))
    return Channel(k1.input_states, k1.input_marginal, (0, 1, 2), _BOOM_PRINTED_GARBLE)


def _iep_atom(key: str) -> Callable[[_Ctx], float]:
    return lambda c: iep_bivariate_from_redundancy(c.dist, c.target, c.value("i_cap_d"))[key]


# Row evaluations that are not measures: the inclusion-exclusion atoms
# implied by i_cap_d, and checks on BOOM's printed redundancy channel.
_TABLE_EVALUATIONS: dict[str, Callable[[_Ctx], object]] = {
    **{f"atom_{key}": _iep_atom(key) for key in ("R", "U1", "U2", "S")},
    "printed_q_feasible": lambda c: all(
        degradation_leq(_printed_channel(c), channel_from(c.dist, c.target, s.members))[0]
        for s in c.collection
    ),
    "printed_q_information": lambda c: _printed_channel(c).mutual_information(),
}


def enrichment_decreases(whole: float, enriched: float) -> bool:
    return enriched < whole - 1e-9


def midpoint_above_average(midpoint: float, average: float) -> bool:
    return midpoint > average


_T_EQUALS_Y1 = JointDistribution(
    ("T", "Y1", "Y2"), {tuple(row): 0.25 for row in ("000", "001", "110", "111")}
)

_ONCE = (None,)


def _atom_rows(case: str, source, expected: dict[str, float], tol: float) -> list:
    return [(case, f"atom_{k}", (source, _ONCE, "T", None, f"atom_{k}"), v, tol)
            for k, v in expected.items()]


# case, then the bundled s_wb, s_wms, delta_i, s_d, s_sd and s_ci values
_RESULTS_ROWS = [
    ("XOR", 1.0, 1.0, 1.0, 1.0, "1", 1.0),
    ("AND", 0.5, 0.189, 0.104, 0.5, "0.311", 0.270),
    ("COPY", 1.0, 0.0, 0.0, 0.0, "1", 0.0),
    ("RDNXOR", 1.0, 0.0, 1.0, 1.0, "1", 1.0),
    ("RDNUNQXOR", 2.0, 0.0, 1.0, 1.0, "DNF", 1.0),
    ("XORDUPLICATE", 1.0, 1.0, 1.0, 1.0, "1", 1.0),
    ("ANDDUPLICATE", 0.5, -0.123, 0.038, 0.5, "0.311", 0.270),
    ("XORLOSES", 0.0, 0.0, 0.0, 0.0, "0", 0.0),
    ("XORMULTICOAL", 1.0, 1.0, 1.0, 1.0, "DNF", 1.0),
]

_RESULTS_COLUMNS = [
    ("s_wb", 5e-3),
    ("s_wms", 5e-3),
    ("delta_i", 5e-3),
    ("s_d", 2e-2),
    ("s_sd", None),
    ("s_ci", 5e-3),
]

# Each table is a list of (case, label, how, expected, tol) rows.  ``how``
# is None for a cell that is not computed, a tuple (distribution, r values,
# target, sources, evaluation) evaluated as ``cipid measure`` would and
# averaged over the r values, or a function of the values of the case's
# earlier rows, in order.  A distribution is a corpus name or a pmf.
_TABLES = {
    "results-table": [
        (case, measure, None if tol is None else (case, _ONCE, "T", None, measure), expected, tol)
        for case, *values in _RESULTS_ROWS
        for (measure, tol), expected in zip(_RESULTS_COLUMNS, values)
    ],
    "worked-examples": [
        *_atom_rows("T-equals-Y1", _T_EQUALS_Y1, {"R": 0.0, "U1": 1.0, "U2": 0.0, "S": 0.0}, 1e-6),
        *_atom_rows("COPY", "COPY", {"R": 0.0, "U1": 1.0, "U2": 1.0, "S": 0.0}, 1e-6),
        ("BOOM", "i_cap_d", ("BOOM", _ONCE, "T", None, "i_cap_d"), 0.322, 2e-2),
        ("BOOM", "printed_q_feasible", ("BOOM", _ONCE, "T", None, "printed_q_feasible"),
         True, None),
        ("BOOM", "printed_q_information", ("BOOM", _ONCE, "T", None, "printed_q_information"),
         0.322, 1e-3),
        *_atom_rows("TWEAKED_COPY", "TWEAKED_COPY", {"U1": 0.918, "U2": 0.918, "S": -0.251}, 1e-2),
    ],
    "counterexamples": [
        ("TARGET_MONO_CI", "i_cup_ci(T)", ("TARGET_MONO_CI", _ONCE, "T", "Y1;Y2", "i_cup_ci"),
         0.91, 5e-3),
        ("TARGET_MONO_CI", "i_cup_ci(T,Z)", ("TARGET_MONO_CI", _ONCE, "T,Z", "Y1;Y2", "i_cup_ci"),
         0.90, 5e-3),
        ("TARGET_MONO_CI", "enrichment_decreases", enrichment_decreases, True, None),
        ("TARGET_MONO_AND", "i_cap_d(T)", ("TARGET_MONO_AND", _ONCE, "T", "Y1;Y2", "i_cap_d"),
         0.311, 2e-2),
        ("TARGET_MONO_AND", "i_cap_d(T,Z)", ("TARGET_MONO_AND", _ONCE, "T,Z", "Y1;Y2", "i_cap_d"),
         0.0, 2e-2),
        ("COPY_XOR_TARGETS", "s_ci(T1)", ("COPY_XOR_TARGETS", _ONCE, "T1", "Y1;Y2", "s_ci"),
         0.0, 1e-6),
        ("COPY_XOR_TARGETS", "s_ci(T2)", ("COPY_XOR_TARGETS", _ONCE, "T2", "Y1;Y2", "s_ci"),
         1.0, 1e-6),
        ("ADAPTED_XOR", "s_ci(r=0.25)", ("ADAPTED_XOR", (0.25,), "T", None, "s_ci"), 0.552, 5e-3),
        ("ADAPTED_XOR", "s_ci endpoint average", ("ADAPTED_XOR", (0.0, 0.5), "T", None, "s_ci"),
         0.440, 5e-3),
        ("ADAPTED_XOR", "midpoint_above_average", midpoint_above_average, True, None),
        ("ADAPTED_XOR_V2", "s_d(r=0.25)", ("ADAPTED_XOR_V2", (0.25,), "T", None, "s_d"),
         0.338, 2e-2),
        ("ADAPTED_XOR_V2", "s_d endpoint average", ("ADAPTED_XOR_V2", (0.0, 0.5), "T", None, "s_d"),
         0.3095, 2e-2),
        ("ADAPTED_XOR_V2", "midpoint_above_average", midpoint_above_average, True, None),
    ],
}


def _row_value(how, seed: int, earlier: list, contexts: dict):
    """The computed value of one reproduce row; ``earlier`` holds the case's earlier values.

    ``contexts`` keeps one context per (distribution, r, target, sources)
    for the whole table, so rows on the same input share its values.
    """
    if callable(how):
        for value in earlier:
            if isinstance(value, Exception):
                raise value
        return how(*earlier)
    source, rs, target_spec, sources_spec, evaluation = how
    values = []
    for r in rs:
        key = (source, r, target_spec, sources_spec)
        if key not in contexts:
            dist = canonical(source, r) if isinstance(source, str) else source
            target = _resolve_target(dist, target_spec, "")
            contexts[key] = _Ctx(dist, target, _resolve_sources(dist, sources_spec, target), seed)
        values.append(contexts[key].value(evaluation))
    return values[0] if len(values) == 1 else sum(values) / len(values)


def cmd_reproduce(args) -> int:
    any_fail = False
    header = f"{'case':<18} {'measure':<26} {'computed':>12} {'expected':>12}  status"
    print(header)
    print("-" * len(header))
    earlier: dict[str, list] = {}
    contexts: dict[tuple, _Ctx] = {}
    for case, label, how, expected, tol in _TABLES[args.table]:
        if how is None:
            print(f"{case:<18} {label:<26} {'-':>12} {str(expected):>12}  skipped")
            continue
        seen = earlier.setdefault(case, [])
        try:
            value = _row_value(how, args.seed, seen, contexts)
        except _SOLVER_ERRORS as exc:
            value = exc
        seen.append(value)
        if isinstance(value, Exception):
            ok, shown, status = False, "error", f"FAIL ({value})"
        else:
            if isinstance(expected, bool):
                ok, shown = bool(value) is expected, _fmt(bool(value))
            else:
                ok, shown = abs(value - expected) <= tol, _fmt(value)
            status = "ok" if ok else "FAIL"
        any_fail = any_fail or not ok
        print(f"{case:<18} {label:<26} {shown:>12} {_fmt(expected):>12}  {status}")
    return 1 if any_fail else 0


# ---------------------------------------------------------------------------
# sweep and axioms
# ---------------------------------------------------------------------------


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ArgumentError("grid range must look like start:stop:count")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ArgumentError(f"cannot parse grid {spec!r}") from None
        if count < 2:
            raise ArgumentError("grid range needs at least two points")
        # the last point is stop itself, as in numpy.linspace: start + i*step
        # can round past it
        step = (stop - start) / (count - 1)
        values = [start + i * step for i in range(count - 1)] + [stop]
    else:
        try:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError:
            raise ArgumentError(f"cannot parse grid {spec!r}") from None
    if not values:
        raise ArgumentError("grid is empty")
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise ArgumentError(f"grid value {v} outside [0, 1]")
    return values


def cmd_sweep(args) -> int:
    families = [name for name, entry in CORPUS.items() if entry.parametric]
    if args.family not in families:
        raise ArgumentError(f"unknown family {args.family!r}; available: {', '.join(families)}")
    _check_measures(args.measure)
    grid = _parse_grid(args.grid)

    # every row before the file is opened, so a solver error leaves --out as it was
    rows = []
    for r in grid:
        dist = canonical(args.family, r)
        target = _resolve_target(dist, None, f"corpus:{args.family}")
        ctx = _Ctx(dist, target, _resolve_sources(dist, None, target), args.seed)
        rows.append([f"{r:g}"] + [_fmt(ctx.value(m)) for m in args.measure])
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r"] + list(args.measure))
        writer.writerows(rows)
    return 0


def cmd_axioms(args) -> int:
    reports = run_axiom_suite(trials=args.trials, seed=args.seed)
    width = max(len(r.name) for r in reports)
    failed = False
    for r in reports:
        status = "ok" if r.violations == 0 else "VIOLATED"
        print(
            f"{r.name:<{width}}  {r.violations}/{r.trials} violations  "
            f"worst {r.worst:.3e}  {status}"
        )
        failed = failed or r.violations > 0
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cipid",
        description="Partial information decomposition measures over finite discrete distributions.",
    )
    parser.add_argument("--version", action="version", version=f"cipid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate measures on one distribution")
    p.add_argument("--dist", required=True,
                   help="corpus:NAME or a path to a distribution file")
    p.add_argument("--r", type=float, default=None,
                   help="parameter for parametric corpus families")
    p.add_argument("--target", default=None,
                   help="comma-separated target variable names (default: T)")
    p.add_argument("--sources", default=None,
                   help="source groups like 'Y1,Y2;Y3' (default: all singletons)")
    p.add_argument("--measure", action="append", required=True,
                   help=f"one of: {', '.join(MEASURES)} (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("reproduce", help="recompute a bundled reference table")
    p.add_argument("table", choices=sorted(_TABLES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("sweep", help="evaluate measures over a parameter grid")
    p.add_argument("--family", required=True)
    p.add_argument("--grid", required=True,
                   help="comma list like 0,0.25,0.5 or a range start:stop:count")
    p.add_argument("--measure", action="append", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("axioms", help="run the randomized property suite")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_axioms)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
