"""Tests for file appends and the on_file_modified flow."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY
from repro.common.errors import InvalidPathError
from repro.common.units import MB
from repro.dfs import FileSystemListener

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


class RecordingListener(FileSystemListener):
    def __init__(self):
        self.modified = []
        self.data_added = []

    def on_file_modified(self, file):
        self.modified.append(file.path)

    def on_data_added(self, tier):
        self.data_added.append(tier)


class TestAppend:
    def test_append_grows_size_and_blocks(self, master, client):
        client.create("/f", 100 * MB)
        client.append("/f", 200 * MB)
        status = client.file_status("/f")
        assert status.size == 300 * MB
        assert status.block_count == 1 + 2  # 100MB + (128 + 72)MB

    def test_appended_blocks_fully_replicated(self, master, client):
        client.create("/f", 64 * MB, replication=3)
        client.append("/f", 64 * MB)
        file = master.get_file("/f")
        for block in master.blocks.blocks_of(file):
            assert block.replica_count == 3

    def test_append_fires_modified_and_data_added(self, master, client):
        listener = RecordingListener()
        client.create("/f", 64 * MB)
        master.add_listener(listener)
        client.append("/f", 64 * MB)
        assert listener.modified == ["/f"]
        assert MEMORY in listener.data_added

    def test_append_updates_modification_time(self, master, client, sim):
        client.create("/f", 64 * MB)
        sim.run(until=sim.now() + 100)
        sim.at(sim.now(), lambda: None)
        file = master.get_file("/f")
        created = file.modification_time
        master.append_file("/f", 10 * MB)
        assert file.modification_time >= created

    def test_append_to_missing_file_rejected(self, client):
        with pytest.raises(InvalidPathError):
            client.append("/missing", MB)

    def test_non_positive_append_rejected(self, master, client):
        client.create("/f", MB)
        with pytest.raises(InvalidPathError):
            client.append("/f", 0)

    def test_append_respects_block_boundaries(self, master, client):
        client.create("/f", 128 * MB)
        client.append("/f", 300 * MB)
        file = master.get_file("/f")
        sizes = [b.size for b in master.blocks.blocks_of(file)]
        assert sizes == [128 * MB, 128 * MB, 128 * MB, 44 * MB]
