"""Tests for the worker-side view of a node: its replicas and stored bytes.

A worker of the paper's architecture is a :class:`~repro.cluster.node.Node`;
the Master's block manager records which replicas it stores.
"""


from repro.cluster import DEFAULT_HIERARCHY
from repro.common.units import MB

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


class TestWorker:
    def test_block_report_lists_local_replicas(self, master):
        master.create_file("/f", 128 * MB)
        reports = []
        for node in master.topology.nodes:
            for tier in node.hierarchy:
                reports.extend(master.blocks.replicas_on(node.node_id, tier))
        assert len(reports) == 3  # one block, three replicas cluster-wide

    def test_block_report_tier_filter(self, master):
        master.create_file("/f", 128 * MB)
        total_mem = sum(
            len(master.blocks.replicas_on(n.node_id, MEMORY))
            for n in master.topology.nodes
        )
        assert total_mem == 1

    def test_stored_bytes(self, master):
        master.create_file("/f", 128 * MB)
        total = sum(n.tier_used(MEMORY) for n in master.topology.nodes)
        assert total == 128 * MB
