"""Identity digest: one SHA-256 per measure over a fixed set of inputs.

A change that claims "every output is bit-identical" runs this at the
parent commit and at the change, and compares:

    PYTHONPATH=src python tools/identity.py --save parent.json    # at the parent
    PYTHONPATH=src python tools/identity.py --check parent.json   # at the change

Inputs:

- every corpus entry, the parametric families at r = 0, 0.25, 0.5, 0.75
  and 1;
- draws 0 .. 599 of ``axioms.random_distribution(default_rng(seed))``
  for seeds 2024 and 11.

Per input it records, as ``float.hex`` (an error as its type and
message):

- every ``cli.MEASURES`` key, with the default target and singleton
  sources, as ``cipid measure`` evaluates it;
- ``value``, ``lower``, ``upper`` and ``converged`` of both optimisers'
  reports (``i_cap_d``'s climb at seed 0 and ``i_cup_vk``'s coupling
  minimisation);
- ``i_cup_ci``, ``s_ci`` and the CI partitions (blocks and witnesses)
  for the singleton sources and for one overlapping collection drawn
  from the input's index.

It also records the stdout and exit code of the three ``reproduce``
tables and of ``axioms --trials 200 --seed 0``.  Each measure's hash is
SHA-256 over its records in input order.  ``--check`` prints every hash
and names each measure and each input that differs from the saved file;
it exits 1 on any difference.  The script stays outside the Tier-1 run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys

import numpy as np

from cipid import channels, cli
from cipid.axioms import _random_collection, random_distribution
from cipid.ci import ci_synergy, ci_union_information
from cipid.corpus import CORPUS, canonical
from cipid.distribution import _source_variables
from cipid.errors import PidError
from cipid.sources import enumerate_ci_partitions, normalize_sources

_RS = (0.0, 0.25, 0.5, 0.75, 1.0)
_SEEDS = (2024, 11)
_DRAWS = 600
_COMMANDS = (
    *(["reproduce", table] for table in sorted(cli._TABLES)),
    ["axioms", "--trials", "200", "--seed", "0"],
)


def _token(value) -> str:
    """A float as ``float.hex``, anything else by its ``repr``."""
    if isinstance(value, bool) or not isinstance(value, (float, int, np.floating)):
        return repr(value)
    return float(value).hex()


def _record(fn) -> str:
    try:
        return _token(fn())
    except PidError as exc:
        return f"{type(exc).__name__}: {exc}"


def _report(report: channels.OptimizationReport) -> tuple:
    return tuple(_token(v) for v in (report.value, report.lower, report.upper, report.converged))


def _partitions(collection) -> tuple:
    return tuple(
        (tuple(b.indices for b in p.blocks), p.witness) for p in enumerate_ci_partitions(collection)
    )


def _inputs():
    """(label, distribution) for every corpus entry and random draw, in a fixed order."""
    for name, entry in CORPUS.items():
        for r in _RS if entry.parametric else (None,):
            yield f"corpus:{name}" + ("" if r is None else f"@{r}"), canonical(name, r)
    for seed in _SEEDS:
        rng = np.random.default_rng(seed)
        for k in range(_DRAWS):
            yield f"draw:{seed}:{k}", random_distribution(rng)


def _measure_records(label: str, dist, index: int) -> dict[str, str]:
    """Every record of one input, keyed by measure name."""
    target = cli._resolve_target(dist, None, label.split("@")[0])
    singletons = cli._resolve_sources(dist, None, target)
    ctx = cli._Ctx(dist, target, singletons, 0)
    out = {name: _record(lambda name=name: ctx.value(name)) for name in cli.MEASURES}
    out["i_cap_d.report"] = _record(
        lambda: _report(channels.degradation_redundancy(dist, target, singletons, seed=0)))
    out["i_cup_vk.report"] = _record(
        lambda: _report(channels._union_report(dist, target, singletons)))
    out["partitions"] = _record(lambda: _partitions(normalize_sources(dist, singletons)))
    overlap = _random_collection(np.random.default_rng(index), _source_variables(dist, target))
    out["i_cup_ci.overlap"] = _record(lambda: ci_union_information(dist, target, overlap))
    out["s_ci.overlap"] = _record(lambda: ci_synergy(dist, target, overlap))
    out["partitions.overlap"] = _record(lambda: _partitions(normalize_sources(dist, overlap)))
    return out


def _command_record(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def compute() -> dict[str, dict[str, str]]:
    """records[measure][input label]: the token of that measure on that input."""
    records: dict[str, dict[str, str]] = {}
    for index, (label, dist) in enumerate(_inputs()):
        for name, token in _measure_records(label, dist, index).items():
            records.setdefault(name, {})[label] = token
    records["cli"] = {" ".join(argv): _command_record(argv) for argv in _COMMANDS}
    return records


def digest(records: dict[str, str]) -> str:
    h = hashlib.sha256()
    for label, token in records.items():
        h.update(f"{label}\t{token}\n".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", help="write the records to this JSON file")
    parser.add_argument("--check", help="compare against a JSON file written by --save")
    args = parser.parse_args(argv)

    records = compute()
    for name, per_input in records.items():
        print(f"{digest(per_input)}  {name}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=0, sort_keys=True)
    if not args.check:
        return 0

    with open(args.check, encoding="utf-8") as fh:
        saved = json.load(fh)
    differs = False
    for name in sorted(set(records) | set(saved)):
        mine, theirs = records.get(name, {}), saved.get(name, {})
        changed = [k for k in sorted(set(mine) | set(theirs)) if mine.get(k) != theirs.get(k)]
        if changed:
            differs = True
            print(f"DIFFERS {name}: {len(changed)} inputs, e.g. {', '.join(changed[:10])}")
    print("identical" if not differs else "changed")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
