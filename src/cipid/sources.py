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
empty.  The partitions are the paths of one tree of block choices that
records each block's witness; ``enumerate_ci_partitions`` and
``ci.ci_union_information`` both fold them with its one walk.  Its
leaves are counted against a cap of 2^16 partitions first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .distribution import JointDistribution, VariableSet, _check_vars, _entropy_of
from .errors import ArgumentError, UnsupportedError

_DET_TOL = 1e-9
# Cap on the CI partitions a source collection may admit.
_MAX_PARTITIONS = 1 << 16


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


def _partition_tree(collection: SourceCollection) -> tuple[Callable[..., Iterator], int]:
    """The paths of the tree of CI partitions of a collection, and its leaf count.

    A node is a tuple ``rest`` of pooled variables still to place; its
    entries are every block that holds ``rest[0]`` and fits in a source,
    each with its witness (the first listed source that offers the
    block, which is the first that holds it) and the variables left
    after it.  A partition is one path from the pooled tuple down to
    ``()``, so the leaves are counted per entry without listing any
    partition; past 2^16 this raises :class:`~cipid.errors.UnsupportedError`
    as soon as the count gets there.

    ``paths(step, acc)`` folds ``acc = step(acc, block, witness)`` down
    every root-to-leaf path, depth first in entry order and a shared
    prefix once, and yields each leaf's ``acc``.
    """
    member_sets = [set(s.members.indices) for s in collection]
    tree = {}  # rest -> ((block, witness, variables left after it), ...)
    leaves = {(): 1}

    def choices(rest: tuple[int, ...]):
        # the block holding the first remaining variable is chosen
        # first, so each partition is reached by exactly one path
        first, others = rest[0], rest[1:]
        seen = set()
        for witness, m in enumerate(member_sets):
            if first in m:
                inside = [v for v in others if v in m]
                for r in range(len(inside) + 1):
                    for c in itertools.combinations(inside, r):
                        if c not in seen:
                            seen.add(c)
                            yield (first,) + c, witness, tuple(v for v in others if v not in c)

    def count(rest: tuple[int, ...]) -> int:
        if rest not in leaves:
            # every choice adds at least one leaf, so a node is listed
            # only as far as the cap
            entries, total = [], 0
            for block, witness, left in choices(rest):
                entries.append((block, witness, left))
                total += count(left)
                if total > _MAX_PARTITIONS:
                    raise UnsupportedError(
                        f"the sources admit more than {_MAX_PARTITIONS} CI partitions, beyond the cap"
                    )
            tree[rest], leaves[rest] = tuple(entries), total
        return leaves[rest]

    root = tuple(collection.union().indices)

    def paths(step, acc):
        # a frame: a node's prefix fold and its entries still to take
        stack = [(acc, iter(tree[root]))]
        while stack:
            acc, entries = stack[-1]
            for block, witness, left in entries:
                folded = step(acc, block, witness)
                if left:
                    stack.append((folded, iter(tree[left])))
                    break
                yield folded
            else:
                stack.pop()

    return paths, count(root)


def enumerate_ci_partitions(collection: SourceCollection) -> tuple[CiPartition, ...]:
    """All partitions of the pooled variables into blocks that fit in a source.

    Returned in a deterministic order: fewer blocks first, then by the
    sorted block tuples.  Always non-empty, because single-variable
    blocks fit inside whichever source mentions the variable.  Each
    block's witness is the first listed source that holds it.

    The partitions are the paths of ``_partition_tree``, whose leaves
    are counted first: past 2^16 partitions this raises
    :class:`~cipid.errors.UnsupportedError` before any is built.
    """
    paths, _ = _partition_tree(collection)
    # a block fixes its witness, so the pairs sort as the blocks do
    found = paths(lambda acc, block, witness: acc + ((block, witness),), ())
    return tuple(
        CiPartition(tuple(VariableSet(b) for b, _ in part), tuple(w for _, w in part))
        for part in sorted(found, key=lambda p: (len(p), p))
    )
