"""The benchmark's three workloads: inputs, operations and output checks.

A workload builds one round of operations from ``(seed, round)``.  Every
round of a workload has the same operations on freshly drawn inputs of
fixed shape, so each round does the same amount of work and fails the
same operations.  cipid only ever receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as o

import cipid
import cipid.cli

TOL = 1e-9
PRINTED = 1e-6  # the CLI prints six decimals


@dataclass
class Op:
    """One timed call.  ``check`` returns a problem description or None."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # True when the returned value means the operation failed
    failed: Callable[[object], bool] = lambda result: False
    # the one known fault an operation may fail with
    expected_failure: Callable[[object], bool] = lambda result: False


def _rng(seed: int, round_no: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_no, salt])


def _dist(p: np.ndarray, symbol=int) -> cipid.JointDistribution:
    names = ["T"] + [f"Y{i}" for i in range(1, p.ndim)]
    pmf = {tuple(symbol(s) for s in cell): float(p[cell])
           for cell in o.cells(p.shape) if p[cell] > 0.0}
    return cipid.JointDistribution(names, pmf)


def _within(value: float, lo: float, hi: float, tol: float) -> bool:
    return lo - tol <= value <= hi + tol


# ---------------------------------------------------------------------------
# ci_partitions: CI union information and synergy, no linear programs
# ---------------------------------------------------------------------------

# (inputs per round, alphabets [T, Y1..Yn], source groups over 1..n, calls)
# Groups are relabelled per input, so partition counts stay fixed.
_BOTH = ("ci_union_information", "ci_synergy")
CI_SHAPES = [
    (3, [2, 3, 2, 2, 2, 2], [(1, 2), (2, 3, 4), (3, 4)], _BOTH),              # 7 partitions
    (7, [3, 2, 2, 2, 2, 2, 2], [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], _BOTH),  # 11
    (2, [2, 2, 2, 2, 2, 2, 2], [(1, 2, 3, 4), (3, 4, 5, 6)], _BOTH),          # 70
    (3, [2, 2, 2, 2, 2, 2, 2], [(1, 2, 3, 4, 5), (2, 3, 4, 5, 6)], _BOTH),    # 151
    (1, [2] * 10, [(i,) for i in range(1, 10)], _BOTH),                       # 1 of Bell(9)
    (1, [2] * 11, [(i,) for i in range(1, 11)], ("ci_union_information",)),   # 1 of Bell(10)
]


def _ci_check(p, groups, fn):
    def check(value):
        if fn == "ci_union_information":
            want = o.ci_union(p, groups)
            lo = max(o.mutual_information(p, g, [0]) for g in groups)
            hi = o.mutual_information(p, set().union(*groups), [0])
        else:
            want = o.ci_synergy(p, groups)
            whole = o.mutual_information(p, range(1, p.ndim), [0])
            lo, hi = 0.0, whole - max(o.mutual_information(p, g, [0]) for g in groups)
        if abs(value - want) > TOL:
            return f"{fn} = {value!r}, reference {want!r}"
        if not _within(value, lo, hi, TOL):
            return f"{fn} = {value!r} outside [{lo!r}, {hi!r}]"
        return None
    return check


class CiPartitions:
    def make_round(self, seed: int, round_no: int) -> list[Op]:
        ops = []
        target = cipid.VariableSet.of(0)
        for shape_no, (count, alphabets, groups, fns) in enumerate(CI_SHAPES):
            for k in range(count):
                rng = _rng(seed, round_no, 100 * shape_no + k)
                p = rng.dirichlet(np.ones(int(np.prod(alphabets)))).reshape(alphabets)
                n = len(alphabets) - 1
                relabel = 1 + rng.permutation(n)
                mine = [tuple(sorted(int(relabel[v - 1]) for v in g)) for g in groups]
                mine = [mine[i] for i in rng.permutation(len(mine))]
                d = _dist(p)
                coll = cipid.SourceCollection.of(*mine)
                for fn in fns:
                    ops.append(Op(
                        f"{fn}[{shape_no}]",
                        lambda fn=fn, d=d, coll=coll: getattr(cipid, fn)(d, target, coll),
                        _ci_check(p, mine, fn),
                    ))
        return ops

    def warm_up(self) -> None:
        d = _dist(o.XOR)
        t = cipid.VariableSet.of(0)
        coll = cipid.SourceCollection.of((1,), (2,))
        cipid.ci_union_information(d, t, coll)
        cipid.ci_synergy(d, t, coll)


# ---------------------------------------------------------------------------
# lp_polytope: degradation redundancy and dependency synergy
# ---------------------------------------------------------------------------

# (inputs per round, alphabets [T, Y1, Y2], zero cells, measure)
LP_SHAPES = [
    (6, [2, 3, 3], 2, "i_cap_d"),
    (4, [2, 3, 4], 3, "i_cap_d"),
    (5, [3, 3, 4], 4, "i_cap_d"),
    (6, [3, 4, 5], 10, "s_dep"),
    (6, [3, 5, 5], 12, "s_dep"),
]


def _zeroed_pmf(rng, alphabets, zeros: int) -> np.ndarray:
    """Dirichlet pmf with ``zeros`` zero cells and every pairwise marginal positive.

    Positive pairwise marginals keep every symbol in the support and
    make each zero cell a candidate of the null-cell search.
    """
    while True:
        p = rng.dirichlet(np.ones(int(np.prod(alphabets)))).reshape(alphabets)
        flat = p.reshape(-1)
        flat[rng.choice(flat.size, size=zeros, replace=False)] = 0.0
        if all((o.marginal(p, ax) > 0.0).all() for ax in ([0, 1], [0, 2], [1, 2])):
            return p / p.sum()


def _icap_check(p):
    def check(report):
        w = o.marginal(p, [0])
        states = tuple((t,) for t in range(p.shape[0]))
        if tuple(report.argument.input_states) != states:
            return f"channel input states {report.argument.input_states!r}"
        q = np.asarray(report.argument.matrix)
        got = o.channel_information(w, q)
        if abs(got - report.value) > TOL:
            return f"i_cap_d = {report.value!r} but its channel carries {got!r}"
        for i in (1, 2):
            res = o.garbling_residual(o.channel(p, [i]), q)
            if res > 1e-7:
                return f"i_cap_d channel is not below Y{i} (residual {res:.3e})"
        cap = min(o.mutual_information(p, [i], [0]) for i in (1, 2))
        if not _within(report.value, 0.0, cap, TOL):
            return f"i_cap_d = {report.value!r} outside [0, {cap!r}]"
        return None
    return check


def _sdep_check(p, d):
    def check(result):
        whole = o.mutual_information(p, [1, 2], [0])
        if not _within(result["S"], 0.0, whole, TOL):
            return f"s_dep = {result['S']!r} outside [0, {whole!r}]"
        i_q = o.surrogate_information(p, [{1}, {2}])
        if abs(result["I_q"] - i_q) > TOL:
            return f"s_dep I_q = {result['I_q']!r}, reference {i_q!r}"
        fit = cipid.maxent_ipf(d, [cipid.VariableSet((1, 0)), cipid.VariableSet((2, 0)),
                                   cipid.VariableSet((1, 2))])
        r = o.dense(p.shape, fit.pmf)
        for ax in ([0, 1], [0, 2], [1, 2]):
            gap = float(np.max(np.abs(o.marginal(r, ax) - o.marginal(p, ax))))
            if gap > 1e-8:
                return f"max-entropy fit misses marginal {ax} by {gap:.3e}"
        if o.entropy(r) < o.entropy(p) - TOL:
            return "max-entropy fit has less entropy than p"
        i_r = o.mutual_information(r, [1, 2], [0])
        if abs(result["I_r"] - i_r) > TOL:
            return f"s_dep I_r = {result['I_r']!r}, fit carries {i_r!r}"
        return None
    return check


class LpPolytope:
    def make_round(self, seed: int, round_no: int) -> list[Op]:
        ops = []
        target = cipid.VariableSet.of(0)
        pair = cipid.SourceCollection.of((1,), (2,))
        for shape_no, (count, alphabets, zeros, measure) in enumerate(LP_SHAPES):
            for k in range(count):
                p = _zeroed_pmf(_rng(seed, round_no, 100 * shape_no + k), alphabets, zeros)
                d = _dist(p)
                if measure == "i_cap_d":
                    ops.append(Op(
                        f"i_cap_d[{shape_no}]",
                        lambda d=d: cipid.degradation_redundancy(d, target, pair),
                        _icap_check(p),
                    ))
                else:
                    ops.append(Op(
                        f"s_dep[{shape_no}]",
                        lambda d=d: cipid.dep_synergy(d, target),
                        _sdep_check(p, d),
                    ))
        return ops

    def warm_up(self) -> None:
        d = _dist(o.AND)
        t = cipid.VariableSet.of(0)
        cipid.degradation_redundancy(d, t, cipid.SourceCollection.of((1,), (2,)), restarts=2)
        cipid.dep_synergy(d, t)


# ---------------------------------------------------------------------------
# cli_small: many small calls through cipid.cli.main
# ---------------------------------------------------------------------------

MEASURES = ["i_total", "i_cup_ci", "s_ci", "s_wms", "delta_i", "imin", "s_wb",
            "i_cup_wb", "s_d", "i_cup_vk", "i_cap_d", "s_dep"]
FAMILIES = ["ADAPTED_XOR", "ADAPTED_XOR_V2", "ADAPTED_REDUCED_OR"]
# the r-grid of the paper's convexity examples; the cost of s_d and
# i_cup_vk grows steeply as r nears 1, so a drawn grid would make the
# round's work depend on the seed
GRID = "0:0.5:3"
GRID_R = [0.0, 0.25, 0.5]
# alphabets [T, Y1, ...] of the seeded distribution files
FILE_SHAPES = [[2, 2, 2], [3, 2, 2], [2, 3, 3], [3, 3, 2], [2, 3, 2],
               [2, 2, 2, 2], [2, 3, 2, 2], [3, 2, 2, 2]]
# s_d and i_cup_vk fail on some seeded inputs (the projection fault);
# they run on fixed corpus inputs instead, which all complete
VK_CORPUS = {"XOR": o.XOR, "AND": o.AND, "COPY": o.COPY, "BOOM": o.BOOM}
AXIOM_TRIALS = 10
# a fixed 3x2x2 input on which s_d and i_cup_vk fail with
# "optimizer left the constraint set": counts out of 1000, cells in
# (t, y1, y2) order
REPRO_SHAPE = (3, 2, 2)
REPRO_COUNTS = [59, 142, 90, 33, 189, 2, 1, 196, 223, 1, 63, 1]
REPRO_FAULT = "optimizer left the constraint set"


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cipid.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failed(result) -> bool:
    return result[0] != 0


def _write_dist(path: str, p: np.ndarray, weights=None) -> None:
    """Write the text format; ``weights`` gives fraction numerators per cell."""
    names = ["T"] + [f"Y{i}" for i in range(1, p.ndim)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(names) + " p\n")
        for k, cell in enumerate(o.cells(p.shape)):
            value = f"{weights[k]}/{sum(weights)}" if weights else repr(float(p[cell]))
            fh.write(" ".join(str(s) for s in cell) + f" {value}\n")


def _measure_check(p, measure):
    def check(result):
        code, out, err = result
        fields = out.split()
        if len(fields) != 2 or fields[0] != measure:
            return f"measure {measure} printed {out!r}"
        lo, hi = o.measure_bounds(p, measure)
        if not _within(float(fields[1]), lo, hi, PRINTED):
            return f"{measure} = {fields[1]} outside [{lo!r}, {hi!r}]"
        return None
    return check


def _sweep_check(family, measure, grid, path):
    def check(result):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["r", measure] or len(rows) != len(grid) + 1:
            return f"sweep {family} {measure} wrote {rows!r}"
        for (r_text, value), r in zip(rows[1:], grid):
            if abs(float(r_text) - r) > 1e-12:
                return f"sweep {family} row r={r_text}, expected {r}"
            lo, hi = o.measure_bounds(o.family(family, r), measure)
            if not _within(float(value), lo, hi, PRINTED):
                return f"sweep {family} {measure} at r={r}: {value} outside [{lo!r}, {hi!r}]"
        return None
    return check


def _axioms_check(result):
    code, out, err = result
    lines = out.strip().splitlines()
    if not lines or not all(line.split()[1].startswith("0/") for line in lines):
        return f"axioms reported {out!r}"
    return None


def _repro_failure(result) -> bool:
    code, out, err = result
    return code == 3 and REPRO_FAULT in err


class CliSmall:
    def __init__(self, workdir: str):
        self.workdir = workdir

    def make_round(self, seed: int, round_no: int) -> list[Op]:
        os.makedirs(self.workdir, exist_ok=True)
        ops = []
        for family in FAMILIES:
            for measure in MEASURES:
                path = os.path.join(self.workdir, f"sweep-{round_no}-{family}-{measure}.csv")
                argv = ["sweep", "--family", family, "--grid", GRID,
                        "--measure", measure, "--out", path]
                ops.append(Op(f"sweep.{measure}", lambda argv=argv: _cli(argv),
                              _sweep_check(family, measure, GRID_R, path), _cli_failed))

        for k, alphabets in enumerate(FILE_SHAPES):
            frng = _rng(seed, round_no, 1 + k)
            n = int(np.prod(alphabets))
            p = (0.5 * frng.dirichlet(np.ones(n)) + 0.5 / n).reshape(alphabets)
            path = os.path.join(self.workdir, f"input-{k}.dist")
            _write_dist(path, p)
            back = cipid.load_distribution(path)
            if dict(back.pmf) != dict(_dist(p, symbol=str).pmf):
                raise RuntimeError(f"{path} does not read back as written")
            for measure in MEASURES:
                if measure in ("s_d", "i_cup_vk") or (measure == "s_dep" and p.ndim != 3):
                    continue
                argv = ["measure", "--dist", path, "--measure", measure]
                ops.append(Op(f"measure.{measure}", lambda argv=argv: _cli(argv),
                              _measure_check(p, measure), _cli_failed))

        for name, p in VK_CORPUS.items():
            for measure in ("s_d", "i_cup_vk"):
                argv = ["measure", "--dist", f"corpus:{name}", "--measure", measure]
                ops.append(Op(f"measure.{measure}", lambda argv=argv: _cli(argv),
                              _measure_check(p, measure), _cli_failed))

        axiom_seed = int(_rng(seed, round_no, 0).integers(2**31))
        argv = ["axioms", "--trials", str(AXIOM_TRIALS), "--seed", str(axiom_seed)]
        ops.append(Op("axioms", lambda argv=argv: _cli(argv), _axioms_check, _cli_failed))

        repro = o.dense(REPRO_SHAPE, {cell: c / 1000 for cell, c in
                                      zip(o.cells(REPRO_SHAPE), REPRO_COUNTS)})
        path = os.path.join(self.workdir, "projection-fault.dist")
        _write_dist(path, repro, REPRO_COUNTS)
        for measure in ("s_d", "i_cup_vk"):
            argv = ["measure", "--dist", path, "--measure", measure]
            ops.append(Op(f"fault.{measure}", lambda argv=argv: _cli(argv),
                          _measure_check(repro, measure), _cli_failed, _repro_failure))
        return ops

    def warm_up(self) -> None:
        for measure in MEASURES:
            _cli(["measure", "--dist", "corpus:XOR", "--measure", measure])


def make(name: str, workdir: str):
    if name == "ci_partitions":
        return CiPartitions()
    if name == "lp_polytope":
        return LpPolytope()
    if name == "cli_small":
        return CliSmall(workdir)
    raise KeyError(name)
