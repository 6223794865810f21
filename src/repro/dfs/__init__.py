"""A simulated tiered distributed file system (OctopusFS-style).

Architecture mirrors the paper's Fig 3: a Master (FS directory + block
manager + node manager), Workers storing block replicas on tiered media,
and a Client exposing HDFS-compatible file operations.  Pluggable block
placement policies implement the three baseline systems of Fig 2
(original HDFS, HDFS-with-cache, OctopusFS); the tiering framework in
:mod:`repro.core` turns the last one into Octopus++.
"""

from repro.dfs.block import BlockInfo, ReplicaInfo
from repro.dfs.namespace import FSDirectory, INode, INodeDirectory, INodeFile
from repro.dfs.block_manager import BlockManager
from repro.dfs.node_manager import NodeManager, NodeStats
from repro.dfs.listeners import FileSystemListener
from repro.dfs.placement import (
    HdfsCachePlacementPolicy,
    HdfsPlacementPolicy,
    OctopusPlacementPolicy,
    PlacementPolicy,
    PlacementTarget,
)
from repro.dfs.master import BlockRead, FileAccess, Master, ReadPlan
from repro.dfs.client import DFSClient
from repro.dfs.faults import FaultEvent, FaultInjector, FaultStats

__all__ = [
    "BlockInfo",
    "ReplicaInfo",
    "INode",
    "INodeFile",
    "INodeDirectory",
    "FSDirectory",
    "BlockManager",
    "NodeManager",
    "NodeStats",
    "FileSystemListener",
    "PlacementPolicy",
    "PlacementTarget",
    "HdfsPlacementPolicy",
    "HdfsCachePlacementPolicy",
    "OctopusPlacementPolicy",
    "Master",
    "FileAccess",
    "ReadPlan",
    "BlockRead",
    "DFSClient",
    "FaultInjector",
    "FaultEvent",
    "FaultStats",
]
