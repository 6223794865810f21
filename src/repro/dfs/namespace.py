"""Hierarchical namespace: inodes and the FS directory.

Equivalent to the "FS Directory" component of the Master (paper Fig 3):
a classic tree of directories and files with POSIX-style paths.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.common.errors import (
    FileAlreadyExistsError,
    InvalidPathError,
)


def normalize_path(path: str) -> str:
    """Normalize to an absolute path with no trailing slash (except root).

    An already-normal path — absolute, no empty component, no trailing
    slash and no component starting with ``.`` — is returned unchanged
    without splitting; every other input takes the split-and-join form.
    """
    if (
        type(path) is str
        and path[:1] == "/"
        and "//" not in path
        and "/." not in path
        and (path[-1] != "/" or len(path) == 1)
    ):
        return path
    if not path or not path.startswith("/"):
        raise InvalidPathError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise InvalidPathError(f"relative components not allowed: {path!r}")
    return "/" + "/".join(parts)


def split_path(path: str) -> List[str]:
    """Path components of a normalized path (empty list for root)."""
    normal = normalize_path(path)
    return normal[1:].split("/") if len(normal) > 1 else []


def parent_path(path: str) -> str:
    """The parent of a normalized path ('/' is its own parent)."""
    parts = split_path(path)
    if not parts:
        return "/"
    return "/" + "/".join(parts[:-1])


def basename(path: str) -> str:
    """The last component of a path ('/' for the root)."""
    parts = split_path(path)
    return parts[-1] if parts else "/"


class INode:
    """Base class for namespace entries."""

    def __init__(self, inode_id: int, name: str, creation_time: float) -> None:
        self.inode_id = inode_id
        self.name = name
        self.creation_time = creation_time
        self.parent: Optional["INodeDirectory"] = None

    @property
    def is_file(self) -> bool:
        """True for an :class:`INodeFile`."""
        return isinstance(self, INodeFile)

    @property
    def is_directory(self) -> bool:
        """True for an :class:`INodeDirectory`."""
        return isinstance(self, INodeDirectory)

    @property
    def path(self) -> str:
        """Reconstruct the absolute path by walking up to the root."""
        parts: List[str] = []
        node: Optional[INode] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))


class INodeFile(INode):
    """A file: size, replication factor, and the ids of its blocks."""

    def __init__(
        self,
        inode_id: int,
        name: str,
        creation_time: float,
        size: int = 0,
        replication: int = 3,
    ) -> None:
        super().__init__(inode_id, name, creation_time)
        if size < 0:
            raise InvalidPathError("file size cannot be negative")
        if replication < 1:
            raise InvalidPathError("replication factor must be >= 1")
        self.size = size
        self.replication = replication
        self.block_ids: List[int] = []
        self.modification_time = creation_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"INodeFile({self.path}, size={self.size}, rep={self.replication})"


class INodeDirectory(INode):
    """A directory: named children."""

    def __init__(self, inode_id: int, name: str, creation_time: float) -> None:
        super().__init__(inode_id, name, creation_time)
        self._children: Dict[str, INode] = {}

    @property
    def children(self) -> List[INode]:
        """The children, in insertion order (a copy)."""
        return list(self._children.values())

    def child(self, name: str) -> Optional[INode]:
        """The child called ``name``, or None."""
        return self._children.get(name)

    def add_child(self, child: INode) -> None:
        """Link ``child`` under this directory; its name must be free."""
        if child.name in self._children:
            raise FileAlreadyExistsError(
                f"{child.name!r} already exists under {self.path!r}"
            )
        self._children[child.name] = child
        child.parent = self

    def remove_child(self, name: str) -> INode:
        """Unlink and return the child called ``name``."""
        if name not in self._children:
            raise InvalidPathError(f"no child {name!r} under {self.path!r}")
        child = self._children.pop(name)
        child.parent = None
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"INodeDirectory({self.path}, children={len(self._children)})"


class FSDirectory:
    """The namespace tree with path-based operations."""

    def __init__(self) -> None:
        self._next_inode_id = 0
        self.root = INodeDirectory(self._allocate_id(), "", creation_time=0.0)
        #: Bumped on every namespace mutation; lets :meth:`all_files`
        #: (and other caches of the file set) skip work between mutations.
        self.mutations = 0
        self._files_cache: Optional[List[INodeFile]] = None
        self._files_cache_at = -1
        #: Normal path -> file, for every file in the tree: a file
        #: lookup is one dict access instead of a walk from the root.
        #: Kept by :meth:`create_file`, :meth:`delete` and :meth:`rename`.
        self._file_index: Dict[str, INodeFile] = {}

    def _allocate_id(self) -> int:
        inode_id = self._next_inode_id
        self._next_inode_id += 1
        return inode_id

    # -- lookups -------------------------------------------------------------
    def get(self, path: str) -> Optional[INode]:
        """The inode at ``path``, or None if missing.

        A file at a normal path is answered from the path index;
        directories, misses and paths that are not normal walk the tree.
        """
        file = self._file_index.get(path)
        if file is not None:
            return file
        node: INode = self.root
        for part in split_path(path):
            if not isinstance(node, INodeDirectory):
                return None
            child = node.child(part)
            if child is None:
                return None
            node = child
        return node

    def get_file(self, path: str) -> INodeFile:
        """The file at ``path``; raises if missing or a directory."""
        node = self.get(path)
        if node is None:
            raise InvalidPathError(f"no such file: {path!r}")
        if not isinstance(node, INodeFile):
            raise InvalidPathError(f"not a file: {path!r}")
        return node

    def exists(self, path: str) -> bool:
        """True if a file or directory is at ``path``."""
        return self.get(path) is not None

    # -- mutations -------------------------------------------------------------
    def mkdirs(self, path: str, creation_time: float = 0.0) -> INodeDirectory:
        """Create a directory and any missing ancestors (like ``mkdir -p``)."""
        node: INode = self.root
        for part in split_path(path):
            if not isinstance(node, INodeDirectory):
                raise InvalidPathError(f"{node.path!r} is not a directory")
            child = node.child(part)
            if child is None:
                child = INodeDirectory(self._allocate_id(), part, creation_time)
                node.add_child(child)
                self.mutations += 1
            node = child
        if not isinstance(node, INodeDirectory):
            raise InvalidPathError(f"{path!r} exists and is a file")
        return node

    def create_file(
        self,
        path: str,
        creation_time: float,
        size: int = 0,
        replication: int = 3,
    ) -> INodeFile:
        """Create a file, making parent directories as needed."""
        path = normalize_path(path)
        if self.exists(path):
            raise FileAlreadyExistsError(f"path exists: {path!r}")
        parent = self.mkdirs(parent_path(path), creation_time)
        inode = INodeFile(
            self._allocate_id(),
            basename(path),
            creation_time,
            size=size,
            replication=replication,
        )
        parent.add_child(inode)
        self._file_index[path] = inode
        self.mutations += 1
        return inode

    def delete(self, path: str, recursive: bool = False) -> INode:
        """Unlink the inode at ``path``; returns the removed subtree root."""
        path = normalize_path(path)
        node = self.get(path)
        if node is None:
            raise InvalidPathError(f"no such path: {path!r}")
        if node is self.root:
            raise InvalidPathError("cannot delete the root")
        if isinstance(node, INodeDirectory) and node.children and not recursive:
            raise InvalidPathError(f"directory not empty: {path!r}")
        assert node.parent is not None
        for file in self.iter_files(path):
            del self._file_index[file.path]
        self.mutations += 1
        return node.parent.remove_child(node.name)

    def rename(self, src: str, dst: str) -> INode:
        """Move ``src`` to ``dst`` (dst must not exist; parents created)."""
        src = normalize_path(src)
        dst = normalize_path(dst)
        if dst == src or dst.startswith(src + "/"):
            raise InvalidPathError(f"cannot rename {src!r} into itself")
        node = self.get(src)
        if node is None:
            raise InvalidPathError(f"no such path: {src!r}")
        if self.exists(dst):
            raise FileAlreadyExistsError(f"destination exists: {dst!r}")
        new_parent = self.mkdirs(parent_path(dst), node.creation_time)
        assert node.parent is not None
        node.parent.remove_child(node.name)
        node.name = basename(dst)
        new_parent.add_child(node)
        index = self._file_index
        for file in self.iter_files(dst):
            file_path = file.path
            del index[src + file_path[len(dst) :]]
            index[file_path] = file
        self.mutations += 1
        return node

    # -- iteration ----------------------------------------------------------------
    def iter_files(self, path: str = "/") -> Iterator[INodeFile]:
        """Yield every file under ``path`` (depth-first, sorted)."""
        start = self.get(path)
        if start is None:
            raise InvalidPathError(f"no such path: {path!r}")
        stack: List[INode] = [start]
        while stack:
            node = stack.pop()
            if isinstance(node, INodeFile):
                yield node
            elif isinstance(node, INodeDirectory):
                stack.extend(sorted(node.children, key=lambda n: n.name, reverse=True))

    def all_files(self) -> List[INodeFile]:
        """Every file in the tree, in :meth:`iter_files` order, cached.

        The sorted depth-first walk is O(n log n) and sits on the policy
        hot path (every candidate-set query starts from it), so the
        result is memoized and invalidated by the mutation counter that
        every create/delete/rename bumps.  Callers must not mutate the
        returned list.
        """
        if self._files_cache is None or self._files_cache_at != self.mutations:
            self._files_cache = list(self.iter_files())
            self._files_cache_at = self.mutations
        return self._files_cache

    def file_count(self) -> int:
        """The number of files in the tree."""
        return sum(1 for _ in self.iter_files())
