"""Canonical example distributions and a plain-text file format.

Every distribution used in the test suite and the command line tools is
registered here by name.  Symbols are strings throughout so that a
distribution survives a save/load round trip unchanged.  Three families
take a mixing parameter ``r`` in [0, 1]; the rest are fixed tables.

File format: UTF-8 text, ``#`` starts a comment line, the first
non-comment line names the variables followed by the literal column
header ``p``, and each following line gives one outcome and its
probability as a decimal or a fraction like ``3/8``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .distribution import JointDistribution
from .errors import ArgumentError, ParseError


def _uniform(names: Sequence[str], rows: Sequence[Sequence[object]]) -> JointDistribution:
    p = Fraction(1, len(rows))
    return JointDistribution(
        names, {tuple(str(s) for s in row): float(p) for row in rows}
    )


def _weighted(names: Sequence[str], rows: dict[tuple, float]) -> JointDistribution:
    pmf = {tuple(str(s) for s in key): float(p) for key, p in rows.items() if p > 0}
    return JointDistribution(names, pmf)


def _check_r(r: float) -> float:
    r = float(r)
    if not (0.0 <= r <= 1.0):
        raise ArgumentError(f"parameter r must lie in [0, 1], got {r}")
    return r


def _xor(_):
    return _uniform(("T", "Y1", "Y2"), [(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1)])


def _and(_):
    return _uniform(("T", "Y1", "Y2"), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)])


def _copy(_):
    return _uniform(
        ("T", "Y1", "Y2"), [("00", 0, 0), ("01", 0, 1), ("10", 1, 0), ("11", 1, 1)]
    )


def _tweaked_copy(_):
    return _uniform(("T", "Y1", "Y2"), [("00", 0, 0), ("01", 0, 1), ("10", 1, 0)])


def _boom(_):
    return _uniform(
        ("T", "Y1", "Y2"),
        [(0, 0, 2), (1, 0, 0), (1, 1, 2), (2, 0, 0), (2, 2, 0), (2, 2, 1)],
    )


def _target_mono_and(_):
    return _uniform(
        ("T", "Z", "Y1", "Y2"),
        [(0, "00", 0, 0), (0, "01", 0, 1), (0, "10", 1, 0), (1, "11", 1, 1)],
    )


def _target_mono_ci(_):
    return _weighted(
        ("T", "Z", "Y1", "Y2"),
        {
            (0, 0, 1, 0): 0.419,
            (1, 1, 2, 1): 0.203,
            (2, 1, 3, 0): 0.007,
            (0, 0, 3, 1): 0.346,
            (2, 2, 4, 4): 0.025,
        },
    )


def _copy_xor_targets(_):
    return _uniform(
        ("T2", "T1", "Y1", "Y2"),
        [(0, 0, 0, 0), (1, 1, 0, 1), (1, 2, 1, 0), (0, 3, 1, 1)],
    )


def _adapted_xor(r):
    r = _check_r(r)
    return _weighted(
        ("T", "Y1", "Y2"),
        {
            (0, 0, 0): r / 4,
            (1, 0, 0): (1 - r) / 4,
            (1, 1, 0): 0.25,
            (1, 0, 1): 0.25,
            (0, 1, 1): 0.25,
        },
    )


def _adapted_xor_v2(r):
    r = _check_r(r)
    return _weighted(
        ("T", "Y1", "Y2"),
        {
            (0, 0, 0): r / 10,
            (1, 0, 0): (1 - r) / 10,
            (1, 1, 0): 0.4,
            (1, 0, 1): 0.4,
            (0, 1, 1): 0.1,
        },
    )


def _adapted_reduced_or(r):
    r = _check_r(r)
    return _weighted(
        ("T", "Y1", "Y2"),
        {
            (0, 0, 0): 0.5,
            (1, 0, 0): r / 4,
            (1, 1, 0): (1 - r) / 4,
            (1, 0, 1): (1 - r) / 4,
            (1, 1, 1): r / 4,
        },
    )


def _rdnxor(_):
    return _uniform(
        ("T", "Y1", "Y2"),
        [
            (0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1),
            (2, 2, 2), (3, 2, 3), (3, 3, 2), (2, 3, 3),
        ],
    )


def _rdnunqxor(_):
    rows = [
        (0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1),
        (2, 0, 2), (3, 0, 3), (3, 1, 2), (2, 1, 3),
        (4, 2, 0), (5, 2, 1), (5, 3, 0), (4, 3, 1),
        (6, 2, 2), (7, 2, 3), (7, 3, 2), (6, 3, 3),
        (8, 4, 4), (9, 4, 5), (9, 5, 4), (8, 5, 5),
        (10, 4, 6), (11, 4, 7), (11, 5, 6), (10, 5, 7),
        (12, 6, 4), (13, 6, 5), (13, 7, 4), (12, 7, 5),
        (14, 6, 6), (15, 6, 7), (15, 7, 6), (14, 7, 7),
    ]
    return _uniform(("T", "Y1", "Y2"), rows)


def _xorduplicate(_):
    return _uniform(
        ("T", "Y1", "Y2", "Y3"),
        [(0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 1)],
    )


def _andduplicate(_):
    return _uniform(
        ("T", "Y1", "Y2", "Y3"),
        [(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 0), (1, 1, 1, 1)],
    )


def _xorloses(_):
    return _uniform(
        ("T", "Y1", "Y2", "Y3"),
        [(0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 0)],
    )


def _xormulticoal(_):
    return _uniform(
        ("T", "Y1", "Y2", "Y3"),
        [
            (0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2), (0, 3, 3, 3),
            (1, 2, 1, 0), (1, 3, 0, 1), (1, 0, 3, 2), (1, 1, 2, 3),
        ],
    )


@dataclass(frozen=True)
class CorpusEntry:
    """One named example distribution.

    ``parametric`` entries take the mixing parameter ``r``; the others
    reject it.  ``default_target`` names the variable most analyses
    predict, usually ``T``.
    """

    name: str
    description: str
    default_target: str
    parametric: bool
    builder: Callable[[float | None], JointDistribution]

    def build(self, r: float | None = None) -> JointDistribution:
        if self.parametric:
            if r is None:
                raise ArgumentError(f"{self.name} needs the parameter r")
            return self.builder(r)
        if r is not None:
            raise ArgumentError(f"{self.name} does not take a parameter")
        return self.builder(None)


CORPUS: dict[str, CorpusEntry] = {
    e.name: e
    for e in [
        CorpusEntry("XOR", "parity target of two fair bits", "T", False, _xor),
        CorpusEntry("AND", "conjunction target of two fair bits", "T", False, _and),
        CorpusEntry("COPY", "target is the full pair of inputs", "T", False, _copy),
        CorpusEntry(
            "TWEAKED_COPY",
            "pair-copy target with the both-ones outcome removed",
            "T",
            False,
            _tweaked_copy,
        ),
        CorpusEntry(
            "BOOM",
            "ternary pair whose shared content is invisible to each alone",
            "T",
            False,
            _boom,
        ),
        CorpusEntry(
            "ADAPTED_REDUCED_OR",
            "disjunction-like family mixing which input carries the one",
            "T",
            True,
            _adapted_reduced_or,
        ),
        CorpusEntry(
            "TARGET_MONO_AND",
            "conjunction with an enriched second target coordinate",
            "T",
            False,
            _target_mono_and,
        ),
        CorpusEntry(
            "TARGET_MONO_CI",
            "five-outcome table with an enriched second target coordinate",
            "T",
            False,
            _target_mono_ci,
        ),
        CorpusEntry(
            "COPY_XOR_TARGETS",
            "two targets over one input pair: a parity and a full copy",
            "T1",
            False,
            _copy_xor_targets,
        ),
        CorpusEntry(
            "ADAPTED_XOR",
            "parity family interpolating the zero-input row",
            "T",
            True,
            _adapted_xor,
        ),
        CorpusEntry(
            "ADAPTED_XOR_V2",
            "skewed parity family interpolating the zero-input row",
            "T",
            True,
            _adapted_xor_v2,
        ),
        CorpusEntry(
            "RDNXOR", "parity with a shared two-block label", "T", False, _rdnxor
        ),
        CorpusEntry(
            "RDNUNQXOR",
            "parity carrying redundant, unique and synergistic parts at once",
            "T",
            False,
            _rdnunqxor,
        ),
        CorpusEntry(
            "XORDUPLICATE",
            "parity plus an exact copy of one input",
            "T",
            False,
            _xorduplicate,
        ),
        CorpusEntry(
            "ANDDUPLICATE",
            "conjunction plus an exact copy of one input",
            "T",
            False,
            _andduplicate,
        ),
        CorpusEntry(
            "XORLOSES",
            "parity whose value also appears among the predictors",
            "T",
            False,
            _xorloses,
        ),
        CorpusEntry(
            "XORMULTICOAL",
            "two-bit target recoverable from any pair of three predictors",
            "T",
            False,
            _xormulticoal,
        ),
    ]
}


def corpus_names() -> tuple[str, ...]:
    return tuple(CORPUS)


def canonical(name: str, r: float | None = None) -> JointDistribution:
    """Build a corpus distribution by name.

    Parametric families require ``r`` in [0, 1]; fixed tables reject it.
    Unknown names raise :class:`~cipid.errors.ArgumentError` listing the
    available ones.
    """
    entry = CORPUS.get(name)
    if entry is None:
        raise ArgumentError(
            f"unknown distribution {name!r}; available: {', '.join(corpus_names())}"
        )
    return entry.build(r)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def _parse_probability(token: str, line_no: int) -> float:
    # a ratio is read exactly and rounded once; float() rounds a decimal correctly
    try:
        p = float(Fraction(token)) if "/" in token else float(token)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"cannot read probability {token!r}", line_no) from None
    if not math.isfinite(p):
        raise ParseError(f"probability {token!r} is not finite", line_no)
    return p


def load_distribution(path) -> JointDistribution:
    """Read a distribution from the plain-text table format.

    All symbols are loaded as strings.  Bytes that are not UTF-8,
    malformed rows, negative or duplicated entries, and a total that
    misses one by more than 1e-9 raise :class:`~cipid.errors.ParseError`;
    the byte and row problems carry the offending line number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise ParseError(f"byte {exc.object[exc.start]:#04x} is not UTF-8", line) from None
    # universal newlines, as a text-mode open splits the lines
    lines = io.StringIO(text, newline=None).readlines()

    header: list[str] | None = None
    pmf: dict[tuple, float] = {}
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.split()
        if header is None:
            if len(tokens) < 2 or tokens[-1] != "p":
                raise ParseError(
                    "header must list variable names followed by the column 'p'",
                    line_no,
                )
            names = tokens[:-1]
            if len(set(names)) != len(names):
                raise ParseError("variable names must be distinct", line_no)
            header = names
            continue
        if len(tokens) != len(header) + 1:
            raise ParseError(
                f"expected {len(header)} symbols and a probability, found {len(tokens)} fields",
                line_no,
            )
        outcome = tuple(tokens[:-1])
        p = _parse_probability(tokens[-1], line_no)
        if p < 0.0:
            raise ParseError(f"negative probability {tokens[-1]}", line_no)
        if outcome in pmf:
            raise ParseError(f"duplicate outcome {' '.join(outcome)}", line_no)
        pmf[outcome] = p

    if header is None:
        raise ParseError("no header line found")
    if not pmf:
        raise ParseError("no probability rows found")
    total = math.fsum(pmf.values())
    if not abs(total - 1.0) <= 1e-9:
        raise ParseError(f"probabilities sum to {total!r}, not 1 within 1e-9")
    return JointDistribution(header, pmf)


def save_distribution(dist: JointDistribution, path) -> None:
    """Write a distribution in the plain-text table format.

    Symbols are written with ``str``; they must not contain whitespace,
    and neither a symbol of the first variable nor the first variable
    name may start with ``#``, which would make its line a comment.  Two
    outcomes whose symbols print alike, such as ``(1, 0)`` and
    ``("1", 0)``, would load as one duplicate row, so they raise
    :class:`~cipid.errors.ArgumentError` before the file is opened.
    Probabilities use ``repr``, which round-trips doubles exactly, so
    saving and loading a string-symbol distribution is lossless.
    """
    pmf = dist.pmf
    rows = [(tuple(str(s) for s in outcome), p) for outcome, p in pmf.items()]
    for line in [dist.var_names, *(syms for syms, _ in rows)]:
        for s in line:
            if not s or any(ch.isspace() for ch in s) or line[0].startswith("#"):
                raise ArgumentError(
                    f"{s!r} cannot be written: whitespace splits fields and '#' starts a comment"
                )
    written: dict[tuple[str, ...], tuple] = {}
    for outcome, (syms, _) in zip(pmf, rows):
        if written.setdefault(syms, outcome) != outcome:
            raise ArgumentError(
                f"outcomes {written[syms]!r} and {outcome!r} would both be written as {' '.join(syms)!r}"
            )
    rows.sort(key=lambda r: r[0])

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(dist.var_names) + " p\n")
        for syms, p in rows:
            fh.write(" ".join(syms) + f" {p!r}\n")
