"""Placement's inverse indices against brute-force slow twins.

``Placement`` answers ``hosted_by``, ``lost_shards``, ``recoverable``,
``group_of`` and ``max_replicas_per_machine`` from indices built once at
construction.  The reference functions in ``tests.reference.placement``
are the original fleet-scan bodies of those queries, kept as the
executable specification the indices must match on every placement
family and failure set.
"""

import dataclasses
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import (
    Placement,
    PlacementStrategy,
    group_placement,
    mixed_placement,
    ring_placement,
    topology_aware_placement,
)
from repro.frontier.reft import reft_placement
from tests.reference.placement import (
    slow_group_of,
    slow_hosted_by,
    slow_lost_shards,
    slow_max_replicas_per_machine,
    slow_recoverable,
)

# -- placement families (N <= 64, m <= 4) -------------------------------------


@st.composite
def group_placements(draw):
    m = draw(st.integers(1, 4))
    groups = draw(st.integers(1, 64 // m))
    return group_placement(m * groups, m)


@st.composite
def ring_placements(draw):
    n = draw(st.integers(1, 64))
    return ring_placement(n, draw(st.integers(1, min(4, n))))


@st.composite
def mixed_placements(draw):
    n = draw(st.integers(1, 64))
    return mixed_placement(n, draw(st.integers(1, min(4, n))))


@st.composite
def topology_placements(draw):
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, min(4, n)))
    num_domains = draw(st.integers(1, 8))
    owner = draw(st.lists(st.integers(0, num_domains - 1), min_size=n, max_size=n))
    domains = [
        [rank for rank in range(n) if owner[rank] == domain]
        for domain in range(num_domains)
    ]
    return topology_aware_placement(n, m, [d for d in domains if d])


@st.composite
def reft_placements(draw):
    m = draw(st.integers(1, 4))
    tp = draw(st.integers(1, 2))
    pp = draw(st.integers(1, 2))
    dp = draw(st.integers(m, 64 // (tp * pp)))
    return reft_placement(dp * tp * pp, m, tensor_parallel=tp, pipeline_parallel=pp)


placements = st.one_of(
    group_placements(),
    ring_placements(),
    mixed_placements(),
    topology_placements(),
    reft_placements(),
)


@st.composite
def placement_and_failures(draw):
    placement = draw(placements)
    n = placement.num_machines
    failures = draw(
        st.lists(st.sets(st.integers(0, n - 1), max_size=n), min_size=1, max_size=6)
    )
    return placement, failures


def rebuilt(placement: Placement) -> List[Placement]:
    """The same placement through every construction path."""
    by_hand = Placement(
        num_machines=placement.num_machines,
        num_replicas=placement.num_replicas,
        strategy=placement.strategy,
        groups=placement.groups,
        replica_sets=tuple(placement.replica_sets),
    )
    return [placement, dataclasses.replace(placement), by_hand]


def assert_matches_reference(placement: Placement, failures) -> None:
    n = placement.num_machines
    for rank in range(-1, n + 1):
        assert placement.hosted_by(rank) == slow_hosted_by(placement, rank)
    for rank in range(n):
        assert placement.group_of(rank) == slow_group_of(placement, rank)
    assert placement.max_replicas_per_machine() == slow_max_replicas_per_machine(
        placement
    )
    for failed in failures:
        for order in (sorted(failed), sorted(failed, reverse=True)):
            assert placement.lost_shards(order) == slow_lost_shards(placement, order)
            assert placement.recoverable(order) == slow_recoverable(placement, order)


class TestIndexMatchesReference:
    @given(case=placement_and_failures())
    @settings(max_examples=300, deadline=None)
    def test_every_family_and_failure_set(self, case):
        placement, failures = case
        for copy in rebuilt(placement):
            assert_matches_reference(copy, failures)

    @pytest.mark.parametrize(
        "placement",
        [
            group_placement(64, 4),
            ring_placement(64, 4),
            mixed_placement(63, 4),
            topology_aware_placement(64, 2, [range(r, r + 16) for r in range(0, 64, 16)]),
            reft_placement(64, 4),
        ],
        ids=["group", "ring", "mixed", "topology", "reft"],
    )
    def test_whole_cluster_and_empty_failures(self, placement):
        everyone = set(range(placement.num_machines))
        assert_matches_reference(placement, [set(), everyone])
        assert placement.lost_shards(everyone) == list(range(placement.num_machines))

    def test_unknown_ranks_rejected_like_the_reference(self):
        placement = mixed_placement(10, 3)
        for failed in ([10], [-1, 3], [3, 99]):
            with pytest.raises(ValueError) as fast:
                placement.lost_shards(failed)
            with pytest.raises(ValueError) as slow:
                slow_lost_shards(placement, failed)
            assert str(fast.value) == str(slow.value)

    def test_group_of_unknown_rank_raises_key_error(self):
        with pytest.raises(KeyError, match="not in any group"):
            mixed_placement(10, 3).group_of(10)

    def test_hosted_by_returns_a_fresh_list(self):
        placement = group_placement(8, 2)
        placement.hosted_by(0).append(99)
        assert placement.hosted_by(0) == [0, 1]


class TestConstructionValidates:
    def make(self, replica_sets, groups=((0, 1, 2),)):
        return Placement(
            num_machines=3,
            num_replicas=1,
            strategy=PlacementStrategy.RING,
            groups=groups,
            replica_sets=tuple(frozenset(s) for s in replica_sets),
        )

    def test_one_replica_set_per_machine(self):
        with pytest.raises(ValueError, match="replica sets"):
            self.make([{0}, {1}])

    def test_replica_sets_are_not_empty(self):
        with pytest.raises(ValueError, match="empty replica set"):
            self.make([{0}, set(), {2}])

    def test_storers_are_cluster_ranks(self):
        with pytest.raises(ValueError, match="unknown machine 3"):
            self.make([{0}, {1}, {3}])

    def test_groups_name_cluster_ranks(self):
        with pytest.raises(ValueError, match="unknown rank 3"):
            self.make([{0}, {1}, {2}], groups=((0, 1), (2, 3)))

    def test_index_is_not_part_of_equality(self):
        assert group_placement(8, 2) == group_placement(8, 2)
        assert hash(group_placement(8, 2)) == hash(group_placement(8, 2))
