"""Tests for the hierarchical namespace (FS directory)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FileAlreadyExistsError, InvalidPathError
from repro.dfs.namespace import (
    FSDirectory,
    INodeDirectory,
    basename,
    normalize_path,
    parent_path,
    split_path,
)


class TestPathHelpers:
    def test_normalize(self):
        assert normalize_path("/a/b/") == "/a/b"
        assert normalize_path("/a//b") == "/a/b"
        assert normalize_path("/") == "/"

    def test_relative_rejected(self):
        with pytest.raises(InvalidPathError):
            normalize_path("a/b")
        with pytest.raises(InvalidPathError):
            normalize_path("/a/../b")
        with pytest.raises(InvalidPathError):
            normalize_path("")

    def test_split_and_parent(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]
        assert parent_path("/a/b/c") == "/a/b"
        assert parent_path("/a") == "/"
        assert parent_path("/") == "/"
        assert basename("/a/b") == "b"


class TestFSDirectory:
    def test_create_file_makes_parents(self):
        fs = FSDirectory()
        file = fs.create_file("/data/x/file.bin", creation_time=1.0, size=10)
        assert file.path == "/data/x/file.bin"
        assert fs.get("/data/x").is_directory
        assert fs.get_file("/data/x/file.bin").size == 10

    def test_duplicate_create_rejected(self):
        fs = FSDirectory()
        fs.create_file("/a", creation_time=0.0)
        with pytest.raises(FileAlreadyExistsError):
            fs.create_file("/a", creation_time=1.0)

    def test_mkdirs_idempotent(self):
        fs = FSDirectory()
        d1 = fs.mkdirs("/x/y")
        d2 = fs.mkdirs("/x/y")
        assert d1 is d2

    def test_mkdirs_over_file_rejected(self):
        fs = FSDirectory()
        fs.create_file("/x", creation_time=0.0)
        with pytest.raises(InvalidPathError):
            fs.mkdirs("/x/y")

    def test_get_missing_returns_none(self):
        fs = FSDirectory()
        assert fs.get("/nope") is None
        assert not fs.exists("/nope")

    def test_get_file_type_errors(self):
        fs = FSDirectory()
        fs.mkdirs("/d")
        with pytest.raises(InvalidPathError):
            fs.get_file("/d")

    def test_delete_file(self):
        fs = FSDirectory()
        fs.create_file("/a/b", creation_time=0.0)
        fs.delete("/a/b")
        assert not fs.exists("/a/b")
        assert fs.exists("/a")

    def test_delete_non_empty_dir_requires_recursive(self):
        fs = FSDirectory()
        fs.create_file("/a/b", creation_time=0.0)
        with pytest.raises(InvalidPathError):
            fs.delete("/a")
        fs.delete("/a", recursive=True)
        assert not fs.exists("/a")

    def test_delete_root_rejected(self):
        with pytest.raises(InvalidPathError):
            FSDirectory().delete("/")

    def test_rename_moves_subtree(self):
        fs = FSDirectory()
        fs.create_file("/a/b/c", creation_time=0.0)
        fs.rename("/a/b", "/z/w")
        assert fs.exists("/z/w/c")
        assert not fs.exists("/a/b")
        assert fs.get_file("/z/w/c").path == "/z/w/c"

    def test_rename_into_self_rejected(self):
        fs = FSDirectory()
        fs.mkdirs("/a/b")
        with pytest.raises(InvalidPathError):
            fs.rename("/a", "/a/b/c")

    def test_rename_to_existing_rejected(self):
        fs = FSDirectory()
        fs.create_file("/a", creation_time=0.0)
        fs.create_file("/b", creation_time=0.0)
        with pytest.raises(FileAlreadyExistsError):
            fs.rename("/a", "/b")

    def test_iter_files_depth_first(self):
        fs = FSDirectory()
        fs.create_file("/a/1", creation_time=0.0)
        fs.create_file("/a/sub/2", creation_time=0.0)
        fs.create_file("/b/3", creation_time=0.0)
        paths = [f.path for f in fs.iter_files()]
        assert set(paths) == {"/a/1", "/a/sub/2", "/b/3"}
        assert fs.file_count() == 3

    def test_inode_ids_unique(self):
        fs = FSDirectory()
        a = fs.create_file("/a", creation_time=0.0)
        b = fs.create_file("/b", creation_time=0.0)
        assert a.inode_id != b.inode_id

    def test_replication_validation(self):
        fs = FSDirectory()
        with pytest.raises(InvalidPathError):
            fs.create_file("/x", creation_time=0.0, replication=0)
        with pytest.raises(InvalidPathError):
            fs.create_file("/y", creation_time=0.0, size=-1)


def walk_get(fs, path):
    """The inode at ``path`` found by walking the tree from the root."""
    node = fs.root
    for part in split_path(path):
        if not isinstance(node, INodeDirectory):
            return None
        node = node.child(part)
        if node is None:
            return None
    return node


def tree_paths(fs):
    """Every path in the tree but the root, sorted."""
    found = []
    stack = [("", fs.root)]
    while stack:
        prefix, node = stack.pop()
        for child in node.children:
            path = f"{prefix}/{child.name}"
            found.append(path)
            if isinstance(child, INodeDirectory):
                stack.append((path, child))
    return sorted(found)


def _paths(names):
    return st.lists(st.sampled_from(names), min_size=1, max_size=3).map(
        lambda parts: "/" + "/".join(parts)
    )


_OPS = ("mkdirs", "create", "create", "delete", "delete-r", "rename")


class TestPathIndex:
    """The flat path -> file index always agrees with the tree."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_index_equals_tree_walk(self, data):
        # Two names and shallow trees, so operations often collide;
        # deletes and renames mostly target existing entries, and a
        # rename target may use a third name, so it is often free.
        fs = FSDirectory()
        for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
            op = data.draw(st.sampled_from(_OPS))
            existing = tree_paths(fs)
            if existing and op in ("delete", "delete-r", "rename"):
                path = data.draw(st.sampled_from(existing) | _paths("ab"))
            else:
                path = data.draw(_paths("ab"))
            other = data.draw(_paths("abm"))
            try:
                if op == "mkdirs":
                    fs.mkdirs(path)
                elif op == "create":
                    fs.create_file(path, creation_time=0.0)
                elif op == "delete":
                    fs.delete(path)
                elif op == "delete-r":
                    fs.delete(path, recursive=True)
                else:
                    fs.rename(path, other)
            except (FileAlreadyExistsError, InvalidPathError):
                pass
            walked = {file.path: file for file in fs.iter_files()}
            assert fs._file_index == walked
            for probe in (path, other, path + "/", "/" + path, "/"):
                assert fs.get(probe) is walk_get(fs, probe)

    def test_renamed_directory_rekeys_its_files(self):
        fs = FSDirectory()
        file = fs.create_file("/a/b/f", creation_time=0.0)
        other = fs.create_file("/a/g", creation_time=0.0)
        fs.rename("/a", "/x/y")
        assert fs.get("/x/y/b/f") is file
        assert fs.get("/x/y/g") is other
        assert fs.get("/a/b/f") is None
        assert fs.get("/a/g") is None
        fs.delete("/x", recursive=True)
        assert fs.get("/x/y/b/f") is None
        assert fs._file_index == {}
