"""Cluster hardware model: storage media, tiers, devices, nodes, topology.

The simulated cluster mirrors the paper's testbed (Sec 7): one Master and
N workers, each exposing the tiers of a configurable
:class:`TierHierarchy` (memory/SSD/HDD by default) with per-tier
capacities and media-dependent bandwidths.
"""

from repro.cluster.hardware import (
    DEFAULT_HIERARCHY,
    MediaProfile,
    StorageDevice,
    TierHierarchy,
    TierSpec,
    get_hierarchy,
    hierarchy_names,
    register_hierarchy,
)
from repro.cluster.node import Node, TierProvision, provision_for
from repro.cluster.topology import ClusterTopology, Rack
from repro.cluster.builder import (
    build_cluster,
    build_ec2_cluster,
    build_local_cluster,
    build_tiered_cluster,
)

__all__ = [
    "TierSpec",
    "TierHierarchy",
    "DEFAULT_HIERARCHY",
    "get_hierarchy",
    "hierarchy_names",
    "register_hierarchy",
    "MediaProfile",
    "StorageDevice",
    "TierProvision",
    "provision_for",
    "Node",
    "Rack",
    "ClusterTopology",
    "build_cluster",
    "build_local_cluster",
    "build_ec2_cluster",
    "build_tiered_cluster",
]
