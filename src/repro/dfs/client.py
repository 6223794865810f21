"""Client API: path-based file operations, HDFS-flavoured.

The paper keeps the Client unchanged and backward compatible (Sec 3.3);
this class is the public, application-facing surface of the simulated
DFS.  Examples and the workload replayer only touch this API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.hardware import TierSpec
from repro.dfs.master import Master, ReadPlan
from repro.dfs.namespace import INodeFile


@dataclass(frozen=True)
class FileStatus:
    """Summary of one namespace entry (like HDFS ``FileStatus``)."""

    path: str
    is_directory: bool
    size: int
    replication: int
    creation_time: float
    block_count: int


class DFSClient:
    """Thin, path-oriented wrapper over the Master."""

    def __init__(self, master: Master) -> None:
        self._master = master

    # -- writes -------------------------------------------------------------
    def create(
        self,
        path: str,
        size: int,
        replication: Optional[int] = None,
        writer_node: Optional[str] = None,
    ) -> INodeFile:
        """Write a new file of ``size`` bytes."""
        return self._master.create_file(
            path, size, replication=replication, writer_node=writer_node
        )

    def append(
        self,
        path: str,
        additional_bytes: int,
        writer_node: Optional[str] = None,
    ) -> INodeFile:
        """Append ``additional_bytes`` to an existing file."""
        return self._master.append_file(
            path, additional_bytes, writer_node=writer_node
        )

    def mkdirs(self, path: str) -> None:
        """Create directory ``path`` and any missing parents."""
        self._master.mkdirs(path)

    def delete(self, path: str) -> None:
        """Delete the file at ``path`` and release its replicas."""
        self._master.delete_file(path)

    def rename(self, src: str, dst: str) -> None:
        """Move ``src`` to ``dst``, which must not exist yet."""
        self._master.fs.rename(src, dst)

    # -- reads ---------------------------------------------------------------
    def open(self, path: str, reader_node: Optional[str] = None) -> ReadPlan:
        """Read a file; returns the plan of replicas that served it."""
        return self._master.plan_read(path, reader_node=reader_node)

    # -- metadata ---------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """True when a file or directory lives at ``path``."""
        return self._master.exists(path)

    def file_status(self, path: str) -> FileStatus:
        """Metadata of the entry at ``path`` (``FileNotFoundError`` if none)."""
        node = self._master.fs.get(path)
        if node is None:
            raise FileNotFoundError(path)
        if isinstance(node, INodeFile):
            return FileStatus(
                path=node.path,
                is_directory=False,
                size=node.size,
                replication=node.replication,
                creation_time=node.creation_time,
                block_count=len(node.block_ids),
            )
        return FileStatus(
            path=node.path,
            is_directory=True,
            size=0,
            replication=0,
            creation_time=node.creation_time,
            block_count=0,
        )

    def file_tiers(self, path: str) -> List[TierSpec]:
        """Tiers holding the complete file, fastest first."""
        file = self._master.get_file(path)
        return sorted(self._master.blocks.file_tiers(file))
