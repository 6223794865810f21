"""Tests for the path-oriented DFS client."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY
from repro.common.units import MB

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


class TestClientApi:
    def test_create_and_open(self, client):
        client.create("/a/b.bin", 64 * MB)
        plan = client.open("/a/b.bin")
        assert plan.total_bytes == 64 * MB

    def test_exists(self, client):
        assert not client.exists("/x")
        client.create("/x", MB)
        assert client.exists("/x")

    def test_file_status(self, client):
        client.create("/dir/f", 200 * MB, replication=2)
        status = client.file_status("/dir/f")
        assert status.size == 200 * MB
        assert status.replication == 2
        assert status.block_count == 2
        assert not status.is_directory

    def test_directory_status(self, client):
        client.mkdirs("/d")
        status = client.file_status("/d")
        assert status.is_directory
        assert status.size == 0

    def test_missing_status_raises(self, client):
        with pytest.raises(FileNotFoundError):
            client.file_status("/missing")

    def test_delete(self, client):
        client.create("/f", MB)
        client.delete("/f")
        assert not client.exists("/f")

    def test_rename(self, client):
        client.create("/old", MB)
        client.rename("/old", "/new/name")
        assert client.exists("/new/name")
        assert not client.exists("/old")

    def test_file_tiers(self, client):
        client.create("/f", 128 * MB)
        tiers = client.file_tiers("/f")
        assert tiers == [MEMORY, SSD, HDD]
