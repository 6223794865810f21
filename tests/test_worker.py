"""Tests for the worker facade: block reports and transfer timing."""


from repro.cluster import DEFAULT_HIERARCHY
from repro.common.units import MB
from repro.dfs import Worker

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


class TestWorker:
    def test_block_report_lists_local_replicas(self, master):
        master.create_file("/f", 128 * MB)
        reports = []
        for node in master.topology.nodes:
            worker = Worker(node, master.blocks)
            reports.extend(worker.block_report())
        assert len(reports) == 3  # one block, three replicas cluster-wide

    def test_block_report_tier_filter(self, master):
        master.create_file("/f", 128 * MB)
        total_mem = sum(
            len(Worker(n, master.blocks).block_report(MEMORY))
            for n in master.topology.nodes
        )
        assert total_mem == 1

    def test_stored_bytes(self, master):
        master.create_file("/f", 128 * MB)
        total = sum(
            Worker(n, master.blocks).stored_bytes(MEMORY)
            for n in master.topology.nodes
        )
        assert total == 128 * MB

    def test_transfer_time_local_vs_remote(self, master):
        worker = Worker(master.topology.nodes[0], master.blocks)
        local = worker.transfer_time(128 * MB, MEMORY, MEMORY, cross_node=False)
        remote = worker.transfer_time(128 * MB, MEMORY, MEMORY, cross_node=True)
        assert remote > local  # network cap slows the cross-node move

    def test_transfer_time_bottlenecked_by_slowest_medium(self, master):
        worker = Worker(master.topology.nodes[0], master.blocks)
        to_hdd = worker.transfer_time(128 * MB, MEMORY, HDD, cross_node=False)
        to_ssd = worker.transfer_time(128 * MB, MEMORY, SSD, cross_node=False)
        assert to_hdd > to_ssd
