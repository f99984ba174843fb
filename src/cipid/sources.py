"""Source collections and their normalization.

A source is a non-empty group of predictor variables; a source
collection is an ordered list of sources, possibly overlapping.  Before
computing union information the collection is normalized: sources that
are subsets of other sources are dropped, and a source that is a
deterministic function of another retained source is dropped as well.
Normalization never empties the collection and is idempotent.

This module also enumerates the conditional-independence partitions of
the union of a collection: set partitions of the pooled variables in
which every block fits inside at least one listed source.  The
all-singletons partition always qualifies, so the enumeration is never
empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .distribution import (
    _MAX_PARTITIONS,
    JointDistribution,
    VariableSet,
    _check_vars,
    _entropy_of,
)
from .errors import ArgumentError, UnsupportedError

_DET_TOL = 1e-9


@dataclass(frozen=True)
class Source:
    """A non-empty group of predictor variables, by position."""

    members: VariableSet

    def __post_init__(self):
        if len(self.members) == 0:
            raise ArgumentError("a source must contain at least one variable")

    @classmethod
    def of(cls, *indices: int) -> "Source":
        return cls(VariableSet.of(*indices))


@dataclass(frozen=True)
class SourceCollection:
    """An ordered, non-empty list of sources. Order matters for tie-breaking."""

    sources: tuple[Source, ...]

    def __post_init__(self):
        if not self.sources:
            raise ArgumentError("a source collection must contain at least one source")
        for s in self.sources:
            if not isinstance(s, Source):
                raise ArgumentError(f"expected Source, got {type(s).__name__}")

    @classmethod
    def of(cls, *groups: Iterable[int]) -> "SourceCollection":
        return cls(tuple(Source(VariableSet(tuple(g))) for g in groups))

    @classmethod
    def singletons(cls, indices: Iterable[int]) -> "SourceCollection":
        return cls(tuple(Source(VariableSet.of(i)) for i in indices))

    def union(self) -> VariableSet:
        out = self.sources[0].members
        for s in self.sources[1:]:
            out = out.union(s.members)
        return out

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        return iter(self.sources)


def _cond_entropy(dist: JointDistribution, a: Sequence[int], given: Sequence[int]) -> float:
    """H(A | given), tolerant of overlap between the groups."""
    joint = sorted(set(a) | set(given))
    return _entropy_of(dist, joint) - _entropy_of(dist, sorted(set(given)))


def is_deterministic(dist: JointDistribution, a: VariableSet, given: VariableSet) -> bool:
    """True when the variables ``a`` are a function of ``given`` under ``dist``.

    Decided by H(a | given) <= 1e-9.  The two groups must be disjoint
    and non-empty.
    """
    if len(a) == 0 or len(given) == 0:
        raise ArgumentError("determinism test needs two non-empty variable groups")
    if not a.isdisjoint(given):
        raise ArgumentError("variable groups overlap")
    _check_vars(dist, a)
    _check_vars(dist, given)
    return _cond_entropy(dist, a.indices, given.indices) <= _DET_TOL


def normalize_sources(
    dist: JointDistribution, collection: SourceCollection
) -> SourceCollection:
    """Drop redundant sources from a collection.

    Two reductions are applied, in this order:

    1. A source whose members are a subset of another listed source's
       members is removed (among duplicates, the first listed stays).
    2. A source that is a deterministic function of another retained
       source, meaning H(A_j | A_i) <= 1e-9, is removed.  Candidates
       are scanned starting from the last listed source, so when two
       sources determine each other the earlier one survives.

    The result is never empty and running the function twice gives the
    same answer as running it once.
    """
    for s in collection:
        _check_vars(dist, s.members, "source")

    srcs = list(collection.sources)

    keep: list[Source] = []
    for i, s in enumerate(srcs):
        dominated = False
        for j, other in enumerate(srcs):
            if i == j:
                continue
            mi, mo = set(s.members.indices), set(other.members.indices)
            if mi < mo or (mi == mo and j < i):
                dominated = True
                break
        if not dominated:
            keep.append(s)

    i = len(keep) - 1
    while i >= 0 and len(keep) > 1:
        s = keep[i]
        others = [o for k, o in enumerate(keep) if k != i]
        if any(
            _cond_entropy(dist, s.members.indices, o.members.indices) <= _DET_TOL
            for o in others
        ):
            keep.pop(i)
        i -= 1

    return SourceCollection(tuple(keep))


@dataclass(frozen=True)
class CiPartition:
    """A set partition of pooled source variables into within-source blocks.

    ``blocks`` are pairwise disjoint variable sets; ``witness[k]`` is
    the position in the originating collection of a source containing
    ``blocks[k]``.
    """

    blocks: tuple[VariableSet, ...]
    witness: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ArgumentError("a partition needs at least one block")
        if len(self.witness) != len(self.blocks):
            raise ArgumentError("need one witness per block")
        seen: set[int] = set()
        for b in self.blocks:
            if len(b) == 0:
                raise ArgumentError("partition blocks must be non-empty")
            if seen & set(b.indices):
                raise ArgumentError("partition blocks overlap")
            seen |= set(b.indices)


def enumerate_ci_partitions(collection: SourceCollection) -> tuple[CiPartition, ...]:
    """All partitions of the pooled variables into blocks that fit in a source.

    Returned in a deterministic order: fewer blocks first, then by the
    sorted block tuples.  Always non-empty, because single-variable
    blocks fit inside whichever source mentions the variable.
    """
    pooled = tuple(collection.union().indices)
    member_sets = [set(s.members.indices) for s in collection]

    def grow(rest: tuple[int, ...]):
        # The block holding the smallest remaining variable is chosen
        # first, so every partition is reached exactly once.
        if not rest:
            yield ()
            return
        first, others = rest[0], rest[1:]
        blocks = set()
        for m in member_sets:
            if first in m:
                inside = [v for v in others if v in m]
                for r in range(len(inside) + 1):
                    blocks.update((first,) + c for c in itertools.combinations(inside, r))
        for b in blocks:
            left = tuple(v for v in others if v not in b)
            for tail in grow(left):
                yield (b,) + tail

    parts = []
    for part in grow(pooled):
        parts.append(part)
        if len(parts) > _MAX_PARTITIONS:
            raise UnsupportedError(
                f"the sources admit more than {_MAX_PARTITIONS} CI partitions, beyond the cap"
            )
    out = []
    for part in sorted(parts, key=lambda p: (len(p), p)):
        blocks = tuple(VariableSet(b) for b in part)
        witness = tuple(
            next(i for i, m in enumerate(member_sets) if set(b) <= m) for b in part
        )
        out.append(CiPartition(blocks, witness))
    return tuple(out)
