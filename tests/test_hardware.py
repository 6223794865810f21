"""Tests for storage tiers, media profiles, and devices."""

import pytest

from repro.cluster.hardware import DEFAULT_HIERARCHY, MediaProfile, StorageDevice
from repro.common.errors import InsufficientSpaceError
from repro.common.units import GB, MB

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


class TestStorageTier:
    def test_ordering_fastest_first(self):
        assert MEMORY < SSD < HDD
        assert min(DEFAULT_HIERARCHY) is MEMORY

    def test_higher_and_lower_tiers(self):
        assert HDD.higher_tiers() == (MEMORY, SSD)
        assert MEMORY.lower_tiers() == (SSD, HDD)
        assert MEMORY.higher_tiers() == ()
        assert HDD.lower_tiers() == ()

    def test_extremes(self):
        assert MEMORY.is_highest
        assert HDD.is_lowest
        assert not SSD.is_highest


class TestMediaProfile:
    def test_read_faster_than_write_for_defaults(self):
        for profile in (t.media for t in DEFAULT_HIERARCHY):
            assert profile.read_bw >= profile.write_bw

    def test_memory_fastest(self):
        assert MEMORY.media.read_bw > SSD.media.read_bw > HDD.media.read_bw

    def test_read_time_scales_with_size(self):
        profile = HDD.media
        assert profile.read_time(256 * MB) > profile.read_time(128 * MB)

    def test_times_include_latency(self):
        profile = MediaProfile(100.0, 100.0, seek_latency=1.0)
        assert profile.read_time(0) == pytest.approx(1.0)
        assert profile.write_time(100) == pytest.approx(2.0)


class TestStorageDevice:
    def make(self, capacity=1 * GB):
        return StorageDevice("n0:mem0", MEMORY, capacity)

    def test_allocate_and_release(self):
        device = self.make()
        device.allocate(1, 128 * MB)
        assert device.used == 128 * MB
        assert device.free == 1 * GB - 128 * MB
        assert device.holds(1)
        device.release(1, 128 * MB)
        assert device.used == 0
        assert not device.holds(1)

    def test_over_allocation_raises(self):
        device = self.make(capacity=100 * MB)
        with pytest.raises(InsufficientSpaceError):
            device.allocate(1, 200 * MB)

    def test_duplicate_replica_rejected(self):
        device = self.make()
        device.allocate(1, MB)
        with pytest.raises(ValueError):
            device.allocate(1, MB)

    def test_release_unknown_rejected(self):
        device = self.make()
        with pytest.raises(ValueError):
            device.release(99, MB)

    def test_utilization(self):
        device = self.make(capacity=100 * MB)
        device.allocate(1, 25 * MB)
        assert device.utilization == pytest.approx(0.25)

    def test_has_space_exact_fit(self):
        device = self.make(capacity=64 * MB)
        assert device.has_space(64 * MB)
        device.allocate(1, 64 * MB)
        assert not device.has_space(1)

    def test_replica_count(self):
        device = self.make()
        for i in range(3):
            device.allocate(i, MB)
        assert device.replica_count == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StorageDevice("x", SSD, 0)
