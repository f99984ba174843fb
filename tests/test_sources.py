"""Source collections, normalization, and partition enumeration."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from cipid import (
    ArgumentError,
    JointDistribution,
    UnsupportedError,
    VariableSet,
    canonical,
    enumerate_ci_partitions,
    is_deterministic,
    normalize_sources,
)
from cipid.sources import CiPartition, Source, SourceCollection


def copy_like():
    """Y2 is an exact copy of Y1; T is a noisy read of them."""
    rows = {("0", "0", "0"): 0.5, ("0", "1", "1"): 0.25, ("1", "1", "1"): 0.25}
    return JointDistribution(("T", "Y1", "Y2"), rows)


def test_collection_construction():
    coll = SourceCollection.of((1, 2), (3,))
    assert len(coll) == 2
    assert coll.union().indices == (1, 2, 3)
    singles = SourceCollection.singletons([3, 1])
    assert [s.members.indices for s in singles] == [(3,), (1,)]


def test_empty_collection_rejected():
    with pytest.raises(ArgumentError):
        SourceCollection(())
    with pytest.raises(ArgumentError):
        SourceCollection.of(())


def test_is_deterministic():
    d = copy_like()
    assert is_deterministic(d, VariableSet.of(2), VariableSet.of(1))
    assert is_deterministic(d, VariableSet.of(1), VariableSet.of(2))
    assert not is_deterministic(d, VariableSet.of(0), VariableSet.of(1, 2))
    xor = canonical("XOR")
    assert not is_deterministic(xor, VariableSet.of(0), VariableSet.of(1))
    with pytest.raises(ArgumentError):
        is_deterministic(d, VariableSet.of(0, 1), VariableSet.of(1))


class TestNormalizeSources:
    def test_subset_absorbed(self):
        d = canonical("XOR")
        coll = SourceCollection.of((1,), (1, 2))
        out = normalize_sources(d, coll)
        assert [s.members.indices for s in out] == [(1, 2)]

    def test_duplicate_of_retained_source_dropped(self):
        d = copy_like()
        coll = SourceCollection.of((1,), (2,))
        out = normalize_sources(d, coll)
        assert [s.members.indices for s in out] == [(1,)]

    def test_removal_scans_from_the_back(self):
        # Y1 and Y2 determine each other; the first listed one survives.
        d = copy_like()
        out = normalize_sources(d, SourceCollection.of((2,), (1,)))
        assert [s.members.indices for s in out] == [(2,)]

    def test_never_empties(self):
        d = copy_like()
        out = normalize_sources(d, SourceCollection.of((1,), (1,), (1,)))
        assert len(out) == 1

    def test_xorloses_keeps_all_three(self):
        d = canonical("XORLOSES")
        idx = [d.index_of(n) for n in ("Y1", "Y2", "Y3")]
        out = normalize_sources(d, SourceCollection.singletons(idx))
        assert len(out) == 3

    def test_idempotent(self):
        d = canonical("ANDDUPLICATE")
        idx = [d.index_of(n) for n in ("Y1", "Y2", "Y3")]
        once = normalize_sources(d, SourceCollection.singletons(idx))
        twice = normalize_sources(d, once)
        assert [s.members.indices for s in once] == [
            s.members.indices for s in twice
        ]


class TestEnumeratePartitions:
    def test_singletons_give_one_partition(self):
        coll = SourceCollection.of((1,), (2,))
        parts = enumerate_ci_partitions(coll)
        assert len(parts) == 1
        assert [b.indices for b in parts[0].blocks] == [(1,), (2,)]

    def test_pairs_of_three_give_four(self):
        coll = SourceCollection.of((1, 2), (1, 3), (2, 3))
        parts = enumerate_ci_partitions(coll)
        assert len(parts) == 4
        block_sets = [tuple(b.indices for b in p.blocks) for p in parts]
        assert ((1, 2), (3,)) in block_sets
        assert ((1, 3), (2,)) in block_sets
        assert ((1,), (2, 3)) in block_sets
        assert ((1,), (2,), (3,)) in block_sets

    def test_every_block_has_a_containing_source(self):
        coll = SourceCollection.of((1, 2), (2, 3))
        for part in enumerate_ci_partitions(coll):
            for block, w in zip(part.blocks, part.witness):
                assert block.issubset(coll.sources[w].members)

    def test_order_is_deterministic(self):
        coll = SourceCollection.of((1, 2), (1, 3), (2, 3))
        a = enumerate_ci_partitions(coll)
        b = enumerate_ci_partitions(coll)
        assert [p.blocks for p in a] == [p.blocks for p in b]

    def test_order_and_witnesses_are_pinned(self):
        """Blocks and witnesses, in order, as the partition-by-partition
        enumerator listed them."""
        pinned = {
            ((1, 2), (1, 3), (2, 3)): [
                (((1,), (2, 3)), (0, 2)), (((1, 2), (3,)), (0, 1)),
                (((1, 3), (2,)), (1, 0)), (((1,), (2,), (3,)), (0, 0, 1)),
            ],
            ((1, 2), (2, 3)): [
                (((1,), (2, 3)), (0, 1)), (((1, 2), (3,)), (0, 1)),
                (((1,), (2,), (3,)), (0, 0, 1)),
            ],
            ((1,), (2,)): [(((1,), (2,)), (0, 1))],
            ((1, 2, 3), (2, 3, 4), (1, 4)): [
                (((1,), (2, 3, 4)), (0, 1)), (((1, 2), (3, 4)), (0, 1)),
                (((1, 2, 3), (4,)), (0, 1)), (((1, 3), (2, 4)), (0, 1)),
                (((1, 4), (2, 3)), (2, 0)), (((1,), (2,), (3, 4)), (0, 0, 1)),
                (((1,), (2, 3), (4,)), (0, 0, 1)), (((1,), (2, 4), (3,)), (0, 1, 0)),
                (((1, 2), (3,), (4,)), (0, 0, 1)), (((1, 3), (2,), (4,)), (0, 0, 1)),
                (((1, 4), (2,), (3,)), (2, 0, 0)), (((1,), (2,), (3,), (4,)), (0, 0, 0, 1)),
            ],
        }
        for groups, want in pinned.items():
            got = [
                (tuple(b.indices for b in p.blocks), p.witness)
                for p in enumerate_ci_partitions(SourceCollection.of(*groups))
            ]
            assert got == want, groups

    def test_twelve_singletons_give_one_partition(self):
        """Bell(12) set partitions exist, but only one is admissible."""
        parts = enumerate_ci_partitions(SourceCollection.singletons(range(12)))
        assert len(parts) == 1
        assert [b.indices for b in parts[0].blocks] == [(i,) for i in range(12)]
        assert parts[0].witness == tuple(range(12))

    def test_one_big_source_is_rejected_at_once(self):
        """A lone source of 20 variables has Bell(20), about 5.2e13,
        partitions, and 2^19 blocks hold its first variable.  The count
        stops at the cap without listing them all."""
        start = time.perf_counter()
        with pytest.raises(UnsupportedError, match=str(2**16)):
            enumerate_ci_partitions(SourceCollection.of(range(20)))
        assert time.perf_counter() - start < 0.5


def all_set_partitions(items):
    """Every set partition of ``items``, as lists of sorted tuples."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [tuple(sorted((first,) + part[k]))] + part[k + 1 :]
        yield [(first,)] + part


def brute_force_partitions(collection):
    """Filter all set partitions to the admissible ones, in the documented order."""
    members = [set(s.members.indices) for s in collection]
    found = sorted(
        (
            tuple(sorted(part))
            for part in all_set_partitions(collection.union().indices)
            if all(any(set(b) <= m for m in members) for b in part)
        ),
        key=lambda p: (len(p), p),
    )
    return [
        (part, tuple(next(i for i, m in enumerate(members) if set(b) <= m) for b in part))
        for part in found
    ]


@given(st.lists(st.sets(st.integers(0, 6), min_size=1), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_enumeration_matches_filtered_set_partitions(groups):
    coll = SourceCollection.of(*groups)
    got = [
        (tuple(b.indices for b in p.blocks), p.witness)
        for p in enumerate_ci_partitions(coll)
    ]
    assert got == brute_force_partitions(coll)


def test_partition_validation():
    with pytest.raises(ArgumentError):
        CiPartition((), ())
    with pytest.raises(ArgumentError):
        CiPartition((VariableSet.of(1), VariableSet.of(1)), (0, 0))
    with pytest.raises(ArgumentError):
        CiPartition((VariableSet.of(1),), (0, 1))


def test_source_repr_mentions_members():
    s = Source(VariableSet.of(2, 0))
    assert "0" in repr(s) and "2" in repr(s)
