"""Machine/cluster catalog: ClusterSpec, TopologySpec, and the presets."""

import pickle

import pytest

from repro.cluster import (
    CLUSTER_CATALOG,
    Cluster,
    ClusterSpec,
    TopologySpec,
    get_cluster_spec,
    get_instance_type,
)
from repro.network.topology import (
    FlatTopology,
    RackTopology,
    SuperblockTopology,
)
from repro.units import gbps


class TestTopologySpec:
    def test_flat_default(self):
        spec = TopologySpec()
        assert spec.is_flat
        assert spec.kind == "flat"

    def test_flat_rejects_structure(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="flat", rack_size=4)

    def test_rack_requires_rack_size(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="rack")

    def test_rack_oversubscription_below_one(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="rack", rack_size=4, oversubscription=0.5)

    def test_superblock_requires_racks_per_block(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="superblock", rack_size=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="torus")

    def test_round_trip(self):
        spec = TopologySpec(kind="rack", rack_size=4, oversubscription=4.0)
        assert TopologySpec.from_dict(spec.to_dict()) == spec


class TestClusterSpec:
    def test_homogeneous_shapes(self):
        spec = ClusterSpec.homogeneous("t", "p4d.24xlarge", 8)
        assert spec.num_machines == 8
        assert not spec.is_heterogeneous
        assert spec.instance_name_for_rank(7) == "p4d.24xlarge"
        assert spec.topology.is_flat

    def test_heterogeneous_rank_to_shape(self):
        spec = get_cluster_spec("mixed-a3-rack4x4")
        assert spec.is_heterogeneous
        assert spec.instance_name_for_rank(0) == "a3-megagpu-8g"
        assert spec.instance_name_for_rank(7) == "a3-megagpu-8g"
        assert spec.instance_name_for_rank(8) == "a3-ultragpu-8g"
        assert spec.instance_name_for_rank(15) == "a3-ultragpu-8g"
        with pytest.raises(KeyError):
            spec.instance_name_for_rank(16)

    def test_rack_and_block_of(self):
        spec = get_cluster_spec("a3ultra-superblock32")
        assert spec.num_racks == 8
        assert spec.rack_of(0) == 0
        assert spec.rack_of(31) == 7
        assert spec.block_of(0) == 0
        assert spec.block_of(31) == 1
        flat = get_cluster_spec("p4d-flat16")
        assert flat.rack_of(3) is None
        assert flat.fault_domains() is None

    def test_rack_size_must_divide(self):
        with pytest.raises(ValueError):
            ClusterSpec(
                name="bad",
                machines=(("p4d.24xlarge", 10),),
                topology=TopologySpec(kind="rack", rack_size=4),
            )

    def test_fault_domains_are_rack_members(self):
        spec = get_cluster_spec("a3mega-rack4x4")
        assert spec.fault_domains() == (
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
            (12, 13, 14, 15),
        )

    def test_round_trip(self):
        for name in CLUSTER_CATALOG:
            spec = get_cluster_spec(name)
            assert ClusterSpec.from_dict(spec.to_dict()) == spec

    def test_cached_size_is_invisible(self):
        # num_machines is computed once; equality, hash, to_dict and the
        # pickled bytes must not depend on whether it has been read.
        for name in CLUSTER_CATALOG:
            fresh = ClusterSpec.from_dict(get_cluster_spec(name).to_dict())
            unread = ClusterSpec.from_dict(fresh.to_dict())
            before = pickle.dumps(fresh)
            assert fresh.num_machines == sum(count for _, count in fresh.machines)
            assert fresh == unread and hash(fresh) == hash(unread)
            assert fresh.to_dict() == unread.to_dict()
            assert pickle.dumps(fresh) == before == pickle.dumps(unread)
            restored = pickle.loads(before)
            assert "num_machines" not in vars(restored)  # the cache is not pickled
            assert restored == fresh
            assert restored.num_machines == fresh.num_machines

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="a3mega-rack4x4"):
            get_cluster_spec("no-such-cluster")

    def test_build_topology_kinds(self):
        assert isinstance(
            get_cluster_spec("p4d-flat16").build_topology(), FlatTopology
        )
        assert isinstance(
            get_cluster_spec("a3mega-rack4x4").build_topology(), RackTopology
        )
        assert isinstance(
            get_cluster_spec("a3ultra-superblock32").build_topology(),
            SuperblockTopology,
        )

    def test_uplink_capacity_honors_oversubscription(self):
        # 4 machines/rack at 1600 Gbps NIC, 1:4 -> uplink = 4*1600/4 Gbps.
        topo = get_cluster_spec("a3mega-rack4x4").build_topology()
        up = {link.name: link.capacity for link in topo.links()}
        assert up["rack000.up"] == pytest.approx(gbps(1600.0))
        eight = get_cluster_spec("a3mega-rack4x4-1to8").build_topology()
        up8 = {link.name: link.capacity for link in eight.links()}
        assert up8["rack000.up"] == pytest.approx(gbps(800.0))


class TestHeterogeneousCluster:
    def test_machines_get_spec_shapes_and_positions(self):
        spec = get_cluster_spec("mixed-a3-rack4x4")
        cluster = Cluster(spec=spec)
        assert cluster.machine(0).instance_type.name == "a3-megagpu-8g"
        assert cluster.machine(8).instance_type.name == "a3-ultragpu-8g"
        assert cluster.machine(0).position.rack == 0
        assert cluster.machine(15).position.rack == 3
        assert cluster.fault_domains() == spec.fault_domains()

    def test_spec_and_instance_type_mutually_exclusive(self):
        spec = get_cluster_spec("p4d-flat16")
        with pytest.raises(ValueError):
            Cluster(16, get_instance_type("p4d.24xlarge"), spec=spec)

    def test_num_machines_consistency_check(self):
        with pytest.raises(ValueError):
            Cluster(8, spec=get_cluster_spec("p4d-flat16"))

    def test_legacy_path_unchanged(self):
        cluster = Cluster(4, get_instance_type("p4d.24xlarge"))
        assert cluster.spec is None
        assert cluster.machine(0).position is None
        assert cluster.fault_domains() is None

    def test_replace_inherits_shape_and_position(self):
        # The satellite regression: on a heterogeneous cluster, a
        # replacement at rank r must get rank r's catalog shape and
        # topology position — not the primary shape or a blank slot.
        spec = get_cluster_spec("mixed-a3-rack4x4")
        cluster = Cluster(spec=spec)
        for rank in (0, 8, 15):
            old = cluster.machine(rank)
            old.mark_failed()
            fresh = cluster.replace(rank)
            assert fresh is not old
            assert fresh.machine_id != old.machine_id
            assert fresh.instance_type is old.instance_type
            assert fresh.position == old.position
            assert fresh.position.rack == spec.rack_of(rank)
