"""Tests for per-file statistics tracking."""

from repro.core.stats import FileStatistics, StatisticsRegistry
from repro.dfs.namespace import FSDirectory


def make_file(path="/f", creation=0.0, size=100):
    fs = FSDirectory()
    return fs.create_file(path, creation_time=creation, size=size)


class TestFileStatistics:
    def test_initial_state(self):
        stats = FileStatistics(make_file(creation=5.0, size=42))
        assert stats.size == 42
        assert stats.creation_time == 5.0
        assert stats.total_accesses == 0
        assert stats.last_access_time is None
        assert stats.last_access_or_creation == 5.0

    def test_record_access(self):
        stats = FileStatistics(make_file())
        stats.record_access(10.0)
        stats.record_access(20.0)
        assert stats.total_accesses == 2
        assert stats.last_access_time == 20.0
        assert list(stats.access_times) == [10.0, 20.0]

    def test_only_last_k_kept_but_count_total(self):
        stats = FileStatistics(make_file(), k=3)
        for t in range(10):
            stats.record_access(float(t))
        assert list(stats.access_times) == [7.0, 8.0, 9.0]
        assert stats.total_accesses == 10

    def test_idle_time_and_age(self):
        stats = FileStatistics(make_file(creation=100.0))
        assert stats.idle_time(150.0) == 50.0
        stats.record_access(120.0)
        assert stats.idle_time(150.0) == 30.0
        assert stats.age(150.0) == 50.0


class TestStatisticsRegistry:
    def test_create_access_delete_lifecycle(self):
        registry = StatisticsRegistry()
        file = make_file()
        registry.on_create(file)
        assert file in registry
        registry.on_access(file, 5.0)
        assert registry.get(file).total_accesses == 1
        registry.on_delete(file)
        assert file not in registry
        assert len(registry) == 0

    def test_access_to_untracked_file_auto_registers(self):
        registry = StatisticsRegistry()
        file = make_file()
        registry.on_access(file, 3.0)
        assert registry.get(file).total_accesses == 1

    def test_get_or_create(self):
        registry = StatisticsRegistry()
        file = make_file()
        first = registry.get_or_create(file)
        assert registry.get_or_create(file) is first

    def test_lru_order_uses_creation_for_unread(self):
        registry = StatisticsRegistry()
        fs = FSDirectory()
        a = fs.create_file("/a", creation_time=10.0)
        b = fs.create_file("/b", creation_time=5.0)
        c = fs.create_file("/c", creation_time=1.0)
        for f in (a, b, c):
            registry.on_create(f)
        registry.on_access(c, 50.0)  # c becomes most recent
        order = registry.lru_order([a, b, c])
        assert [f.path for f in order] == ["/b", "/a", "/c"]
        assert [f.path for f in registry.mru_order([a, b, c])] == ["/c", "/a", "/b"]

    def test_least_recent_walks_the_recency_index(self):
        registry = StatisticsRegistry()
        fs = FSDirectory()
        a = fs.create_file("/a", creation_time=10.0)
        b = fs.create_file("/b", creation_time=5.0)
        c = fs.create_file("/c", creation_time=5.0)
        for f in (a, b, c):
            registry.on_create(f)
        everyone = {a.inode_id, b.inode_id, c.inode_id}
        assert registry.least_recent(everyone, ()) is b  # tie: lower inode id
        assert registry.least_recent(everyone, {b.inode_id}) is c
        registry.on_access(b, 50.0)
        assert registry.least_recent(everyone, ()) is c
        registry.on_delete(c)
        assert registry.least_recent(everyone, ()) is a
        assert registry.least_recent({b.inode_id}, ()) is b
        assert registry.least_recent(set(), ()) is None

    def test_track_registers_only_unknown_files(self):
        registry = StatisticsRegistry()
        fs = FSDirectory()
        a = fs.create_file("/a", creation_time=1.0)
        b = fs.create_file("/b", creation_time=2.0)
        known = registry.on_access(a, 7.0)
        registry.track({a.inode_id: a, b.inode_id: b})
        assert registry.get(a) is known
        assert len(registry) == 2
        assert registry.least_recent({a.inode_id, b.inode_id}, ()) is b

    def test_k_propagates(self):
        registry = StatisticsRegistry(k=2)
        file = make_file()
        stats = registry.on_create(file)
        for t in range(5):
            stats.record_access(float(t))
        assert len(stats.access_times) == 2

    def test_estimated_bytes(self):
        assert StatisticsRegistry(k=12).estimated_bytes_per_file() >= 12 * 8
