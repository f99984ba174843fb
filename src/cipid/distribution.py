"""Finite discrete joint distributions and Shannon quantities over them.

A :class:`JointDistribution` is an immutable probability mass function
over tuples of symbols, one symbol per named variable.  Outcomes that do
not appear in the pmf have probability exactly zero.  All information
quantities are in bits (base-2 logarithms) and ``0 * log 0`` is treated
as zero.

Numerical policy: probabilities are IEEE doubles, structural checks use
an absolute tolerance of ``1e-9``.  Quantities that are provably
non-negative but come out slightly negative through rounding are clamped
to zero when within that tolerance; a larger violation raises
:class:`~cipid.errors.ConsistencyError` because it means the inputs or
the code are broken, not merely noisy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, ConsistencyError, DomainError, UnsupportedError

TOL = 1e-9

Outcome = tuple
Symbol = Hashable


def _sorted_symbols(values: Iterable[Symbol]) -> tuple[Symbol, ...]:
    """Sort symbols deterministically even when types are mixed."""
    vals = list(values)
    try:
        return tuple(sorted(vals))
    except TypeError:
        return tuple(sorted(vals, key=lambda v: (type(v).__name__, repr(v))))


@dataclass(frozen=True)
class VariableSet:
    """An ordered, duplicate-free set of variable positions.

    Positions index into the ``var_names`` of a distribution.  The
    constructor sorts and deduplicates, so two sets built from the same
    positions in any order compare equal.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        cleaned = tuple(sorted(set(self.indices)))
        for i in cleaned:
            if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                raise ArgumentError(f"variable index must be a non-negative integer, got {i!r}")
        object.__setattr__(self, "indices", cleaned)

    @classmethod
    def of(cls, *indices: int) -> "VariableSet":
        return cls(tuple(indices))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def union(self, other: "VariableSet") -> "VariableSet":
        return VariableSet(self.indices + other.indices)

    def difference(self, other: "VariableSet") -> "VariableSet":
        return VariableSet(tuple(i for i in self.indices if i not in other.indices))

    def intersection(self, other: "VariableSet") -> "VariableSet":
        return VariableSet(tuple(i for i in self.indices if i in other.indices))

    def isdisjoint(self, other: "VariableSet") -> bool:
        return not set(self.indices) & set(other.indices)

    def issubset(self, other: "VariableSet") -> bool:
        return set(self.indices) <= set(other.indices)


class JointDistribution:
    """Immutable pmf over tuples of symbols.

    Parameters
    ----------
    var_names:
        One name per variable, all distinct.
    pmf:
        Mapping from outcome tuples (one symbol per variable, in
        ``var_names`` order) to probabilities.  Must sum to one within
        ``1e-9``.  Entries that are exactly zero are dropped; entries in
        ``[-1e-9, 0)`` are clamped to zero; anything more negative is an
        error.
    alphabets:
        Optional per-variable symbol tuples.  When omitted they are
        inferred from the support.  When given, every outcome symbol
        must belong to the stated alphabet; this lets a distribution
        carry alphabet letters that happen to have zero probability.
    """

    __slots__ = ("var_names", "alphabets", "pmf", "_index")

    def __init__(
        self,
        var_names: Sequence[str],
        pmf: Mapping[Outcome, float],
        alphabets: Sequence[Sequence[Symbol]] | None = None,
    ):
        names = tuple(var_names)
        if not names:
            raise ArgumentError("a distribution needs at least one variable")
        if len(set(names)) != len(names):
            raise ArgumentError(f"variable names must be distinct, got {names}")
        n = len(names)

        cleaned: dict[Outcome, float] = {}
        for outcome, p in pmf.items():
            key = tuple(outcome)
            if len(key) != n:
                raise ArgumentError(
                    f"outcome {key!r} has {len(key)} symbols but there are {n} variables"
                )
            p = float(p)
            if p < -TOL:
                raise ConsistencyError(f"probability of {key!r} is {p}, beyond -1e-9")
            if p <= 0.0:
                continue
            if key in cleaned:
                raise ArgumentError(f"duplicate outcome {key!r}")
            cleaned[key] = p

        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > TOL:
            raise ConsistencyError(f"probabilities sum to {total!r}, not 1 within 1e-9")

        if alphabets is None:
            alpha = tuple(
                _sorted_symbols({key[i] for key in cleaned}) for i in range(n)
            )
        else:
            if len(alphabets) != n:
                raise ArgumentError("need one alphabet per variable")
            alpha = tuple(tuple(a) for a in alphabets)
            for a, name in zip(alpha, names):
                if len(set(a)) != len(a) or not a:
                    raise ArgumentError(f"alphabet of {name} must be non-empty and duplicate-free")
            for key in cleaned:
                for i, s in enumerate(key):
                    if s not in alpha[i]:
                        raise ArgumentError(
                            f"symbol {s!r} of outcome {key!r} is not in the alphabet of {names[i]}"
                        )

        object.__setattr__(self, "var_names", names)
        object.__setattr__(self, "alphabets", alpha)
        object.__setattr__(self, "pmf", MappingProxyType(cleaned))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("JointDistribution is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return (
            self.var_names == other.var_names
            and self.alphabets == other.alphabets
            and dict(self.pmf) == dict(other.pmf)
        )

    def __hash__(self):
        return hash((self.var_names, self.alphabets, frozenset(self.pmf.items())))

    def __repr__(self) -> str:
        return f"JointDistribution(vars={self.var_names}, support={len(self.pmf)})"

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ArgumentError(f"no variable named {name!r}; have {self.var_names}") from None

    def varset(self, *names: str) -> VariableSet:
        """Build a :class:`VariableSet` from variable names."""
        return VariableSet(tuple(self.index_of(n) for n in names))

    def prob(self, outcome: Outcome) -> float:
        return self.pmf.get(tuple(outcome), 0.0)


# ---------------------------------------------------------------------------
# helpers shared inside the package
# ---------------------------------------------------------------------------


def _check_vars(dist: JointDistribution, vs: VariableSet, what: str = "variables") -> None:
    for i in vs:
        if i >= dist.n_vars:
            raise ArgumentError(
                f"{what} index {i} out of range for a {dist.n_vars}-variable distribution"
            )


def _check_target(dist: JointDistribution, target: VariableSet) -> None:
    if len(target) == 0:
        raise ArgumentError("target must be non-empty")
    _check_vars(dist, target, "target")


def _source_variables(dist: JointDistribution, target: VariableSet) -> list[int]:
    """The non-target variables, after checking the target."""
    _check_target(dist, target)
    out = [i for i in range(dist.n_vars) if i not in target]
    if not out:
        raise ArgumentError("no predictor variables outside the target")
    return out


def _marginal_pmf(dist: JointDistribution, indices: Sequence[int]) -> dict[Outcome, float]:
    idx = tuple(indices)
    out: dict[Outcome, float] = {}
    for key, p in dist.pmf.items():
        sub = tuple(key[i] for i in idx)
        out[sub] = out.get(sub, 0.0) + p
    return out


# Cap on the cells of a dense table (the product of its axes' alphabet
# sizes): 32 MB of doubles.
_MAX_CELLS = 1 << 22
# Cap on the CI partitions a source collection may admit.
_MAX_PARTITIONS = 1 << 16


def _dense_shape(dist: JointDistribution, indices: Sequence[int]) -> tuple[int, ...]:
    """Alphabet sizes of ``indices``; raises beyond the cell cap."""
    shape = tuple(len(dist.alphabets[i]) for i in indices)
    cells = math.prod(shape)
    if cells > _MAX_CELLS:
        raise UnsupportedError(
            f"{len(shape)} variables span {cells} cells, beyond the table cap of {_MAX_CELLS}"
        )
    return shape


def _table(dist: JointDistribution, indices: Sequence[int]) -> np.ndarray:
    """p over the product alphabet of ``indices``, one axis per entry.

    Axis k runs over the alphabet of ``indices[k]`` in alphabet order.  A
    repeated variable gets one axis per repeat, with mass on the diagonal.
    Mass is added in pmf order, so every cell is summed exactly as
    :func:`_marginal_pmf` sums it.
    """
    idx = tuple(indices)
    out = np.zeros(_dense_shape(dist, idx))
    pos = [{s: k for k, s in enumerate(dist.alphabets[i])} for i in idx]
    cells = np.array([[m[key[i]] for m, i in zip(pos, idx)] for key in dist.pmf], dtype=np.intp)
    np.add.at(out, tuple(cells.T), np.fromiter(dist.pmf.values(), float))
    return out


def _outcomes(dist: JointDistribution, indices: Sequence[int], flat: np.ndarray) -> list[Outcome]:
    """Symbol tuples at flat positions of the product alphabet of ``indices``."""
    alph = [dist.alphabets[i] for i in indices]
    cells = np.unravel_index(flat, [len(a) for a in alph])
    return list(zip(*([a[k] for k in ax.tolist()] for a, ax in zip(alph, cells))))


def _from_table(
    dist: JointDistribution, indices: Sequence[int], array: np.ndarray
) -> JointDistribution:
    """The distribution over distinct ``indices`` with pmf ``array``; inverts :func:`_table`."""
    flat = np.flatnonzero(array > 0.0)
    return JointDistribution(
        tuple(dist.var_names[i] for i in indices),
        dict(zip(_outcomes(dist, indices, flat), array.ravel()[flat].tolist())),
        alphabets=tuple(dist.alphabets[i] for i in indices),
    )


def _cell_map(shape: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """For every cell of a ``shape`` table in C order, its flat position in
    the sub-table over the ascending ``axes``."""
    sub = [n if k in axes else 1 for k, n in enumerate(shape)]
    return np.broadcast_to(np.arange(math.prod(sub)).reshape(sub), shape).ravel()


def _channel_information(w: np.ndarray, m: np.ndarray) -> float:
    """I(input; output) in bits of channel matrix ``m`` under input weights ``w``."""
    out = w @ m
    ok = (m > 0.0) & (out > 0.0)
    ratio = np.where(ok, m, 1.0) / np.where(ok, out, 1.0)
    total = float((w[:, None] * np.where(ok, m, 0.0) * np.log2(ratio)).sum())
    return _clamp_nonneg(total, "channel mutual information")


def _entropy_from_pmf(pmf: Mapping[Outcome, float]) -> float:
    return -math.fsum(p * math.log2(p) for p in pmf.values() if p > 0.0)


def _entropy_of(dist: JointDistribution, indices: Sequence[int]) -> float:
    """Entropy of a (possibly empty) group of variables; H(nothing) = 0."""
    if not indices:
        return 0.0
    return _entropy_from_pmf(_marginal_pmf(dist, indices))


def _mi_lenient(dist: JointDistribution, a: Sequence[int], b: Sequence[int]) -> float:
    """I(A;B) computed as H(A) + H(B) - H(A u B).

    Unlike the public :func:`mutual_information` this accepts groups
    that overlap, in which case the shared variables contribute their
    full entropy (self-information).  Used internally where a source
    set may legitimately contain target variables.
    """
    ab = sorted(set(a) | set(b))
    v = _entropy_of(dist, sorted(set(a))) + _entropy_of(dist, sorted(set(b))) - _entropy_of(dist, ab)
    return _clamp_nonneg(v, "mutual information")


def _clamp_nonneg(value: float, what: str) -> float:
    if value < 0.0:
        if value < -TOL:
            raise ConsistencyError(f"{what} came out {value}, beyond -1e-9")
        return 0.0
    return value


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def entropy(dist: JointDistribution, variables: VariableSet) -> float:
    """Shannon entropy H(variables) in bits.

    ``variables`` must be non-empty and within range.
    """
    if len(variables) == 0:
        raise ArgumentError("entropy needs at least one variable")
    _check_vars(dist, variables)
    return _entropy_of(dist, variables.indices)


def mutual_information(dist: JointDistribution, a: VariableSet, b: VariableSet) -> float:
    """Mutual information I(A;B) in bits between disjoint variable groups."""
    if len(a) == 0 or len(b) == 0:
        raise ArgumentError("mutual information needs two non-empty variable groups")
    if not a.isdisjoint(b):
        raise ArgumentError(f"variable groups overlap: {a.indices} and {b.indices}")
    _check_vars(dist, a)
    _check_vars(dist, b)
    return _mi_lenient(dist, a.indices, b.indices)


def conditional_mutual_information(
    dist: JointDistribution, a: VariableSet, b: VariableSet, c: VariableSet
) -> float:
    """I(A;B | C) in bits; with empty C this is plain mutual information."""
    if len(a) == 0 or len(b) == 0:
        raise ArgumentError("conditional mutual information needs non-empty A and B")
    for x, y, lab in ((a, b, "A,B"), (a, c, "A,C"), (b, c, "B,C")):
        if not x.isdisjoint(y):
            raise ArgumentError(f"variable groups {lab} overlap")
    for vs in (a, b, c):
        _check_vars(dist, vs)
    ac = sorted(set(a.indices) | set(c.indices))
    bc = sorted(set(b.indices) | set(c.indices))
    abc = sorted(set(a.indices) | set(b.indices) | set(c.indices))
    v = (
        _entropy_of(dist, ac)
        + _entropy_of(dist, bc)
        - _entropy_of(dist, abc)
        - _entropy_of(dist, c.indices)
    )
    return _clamp_nonneg(v, "conditional mutual information")


def marginalize(dist: JointDistribution, variables: VariableSet) -> JointDistribution:
    """Marginal distribution over ``variables``, preserving their alphabets."""
    if len(variables) == 0:
        raise ArgumentError("cannot marginalize onto an empty variable set")
    _check_vars(dist, variables)
    idx = variables.indices
    return JointDistribution(
        tuple(dist.var_names[i] for i in idx),
        _marginal_pmf(dist, idx),
        alphabets=tuple(dist.alphabets[i] for i in idx),
    )


class Channel:
    """A conditional distribution of outputs given input states.

    ``matrix[i, j]`` is the probability of ``output_alphabet[j]`` given
    ``input_states[i]``.  Only input states of positive probability are
    kept, so ``input_marginal`` is strictly positive and sums to one.
    Rows are stochastic within ``1e-9``.  Instances are immutable; the
    matrix is a read-only array.
    """

    __slots__ = ("input_states", "input_marginal", "output_alphabet", "matrix")

    def __init__(
        self,
        input_states: Sequence[Outcome],
        input_marginal: Sequence[float],
        output_alphabet: Sequence[Symbol],
        matrix: np.ndarray,
    ):
        states = tuple(tuple(s) if isinstance(s, (tuple, list)) else (s,) for s in input_states)
        outs = tuple(output_alphabet)
        m = np.array(matrix, dtype=float)
        w = np.array([float(x) for x in input_marginal], dtype=float)

        if len(states) == 0:
            raise ArgumentError("a channel needs at least one input state")
        if len(set(states)) != len(states):
            raise ArgumentError("input states must be distinct")
        if len(set(outs)) != len(outs) or not outs:
            raise ArgumentError("output alphabet must be non-empty and duplicate-free")
        if m.shape != (len(states), len(outs)):
            raise ArgumentError(
                f"matrix shape {m.shape} does not match {len(states)} states x {len(outs)} outputs"
            )
        if w.shape != (len(states),):
            raise ArgumentError("need one marginal probability per input state")
        if np.any(w <= 0.0):
            raise ArgumentError("input marginal must be strictly positive")
        if abs(float(w.sum()) - 1.0) > TOL:
            raise ConsistencyError(f"input marginal sums to {float(w.sum())!r}")
        if float(np.min(m)) < -TOL:
            raise ConsistencyError("channel matrix has an entry beyond -1e-9")
        m = np.where(m < 0.0, 0.0, m)
        rows = m.sum(axis=1)
        bad = np.where(np.abs(rows - 1.0) > TOL)[0]
        if bad.size:
            raise ConsistencyError(
                f"channel row {int(bad[0])} sums to {float(rows[bad[0]])!r}, not 1 within 1e-9"
            )
        m.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "input_states", states)
        object.__setattr__(self, "input_marginal", w)
        object.__setattr__(self, "output_alphabet", outs)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    def __repr__(self) -> str:
        return (
            f"Channel({len(self.input_states)} states -> "
            f"{len(self.output_alphabet)} outputs)"
        )

    def mutual_information(self) -> float:
        """I(input; output) in bits implied by the channel and its input marginal."""
        return _channel_information(self.input_marginal, self.matrix)


def channel_from(dist: JointDistribution, target: VariableSet, source: VariableSet) -> Channel:
    """Conditional distribution of ``source`` given ``target``.

    Target states of probability zero are dropped and the input
    marginal is renormalized over the rest (a no-op up to rounding,
    since dropped states carry no mass).  The output alphabet is the
    full product alphabet of the source variables, as tuples.
    """
    if len(target) == 0 or len(source) == 0:
        raise ArgumentError("channel extraction needs non-empty target and source")
    if not target.isdisjoint(source):
        raise ArgumentError("target and source variables overlap")
    _check_vars(dist, target, "target")
    _check_vars(dist, source, "source")

    t_idx = target.indices
    p_t = _table(dist, t_idx).ravel()
    live = np.flatnonzero(p_t)
    row_of = dict(zip(_outcomes(dist, t_idx, live), live.tolist()))
    states = _sorted_symbols(row_of)
    rows = [row_of[s] for s in states]
    w = p_t[rows]
    m = _table(dist, t_idx + source.indices).reshape(p_t.size, -1)[rows] / w[:, None]
    outs = _outcomes(dist, source.indices, np.arange(m.shape[1]))
    return Channel(states, w / w.sum(), outs, m)


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Kullback-Leibler divergence D(p || q) in bits between two pmf vectors.

    Raises :class:`~cipid.errors.DomainError` if ``q`` assigns zero
    probability to an outcome that ``p`` supports.
    """
    pv = [float(x) for x in p]
    qv = [float(x) for x in q]
    if len(pv) != len(qv):
        raise ArgumentError(f"length mismatch: {len(pv)} vs {len(qv)}")
    if not pv:
        raise ArgumentError("empty probability vectors")
    for name, v in (("p", pv), ("q", qv)):
        if any(x < -TOL for x in v):
            raise ArgumentError(f"{name} has a negative entry")
        s = math.fsum(v)
        if abs(s - 1.0) > TOL:
            raise ArgumentError(f"{name} sums to {s!r}, not 1 within 1e-9")
    total = 0.0
    for i, (a, b) in enumerate(zip(pv, qv)):
        if a <= 0.0:
            continue
        if b <= 0.0:
            raise DomainError(
                f"q is zero at position {i} where p is {a}; divergence is undefined"
            )
        total += a * math.log2(a / b)
    return _clamp_nonneg(total, "KL divergence")
