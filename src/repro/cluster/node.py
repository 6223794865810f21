"""Cluster nodes: a bundle of storage devices plus task slots.

A :class:`Node` corresponds to a worker in the paper's architecture
(Fig 3): it stores block replicas on its locally attached media and runs
map/reduce tasks in a fixed number of slots.  Which tiers a node exposes
— and how much of each — comes from a list of :class:`TierProvision`
entries, so heterogeneous nodes (e.g. some without SSDs) are expressed
by provisioning a subset of the cluster's :class:`TierHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.hardware import (
    MediaProfile,
    StorageDevice,
    TierHierarchy,
    TierSpec,
)


@dataclass(frozen=True)
class TierProvision:
    """How much of one tier a node exposes, and across how many devices.

    The paper's local workers expose 4GB memory, one 64GB SSD, and three
    HDDs totalling 400GB for file blocks (Sec 7).  ``num_devices`` and
    ``profile`` default to the tier spec's values.
    """

    tier: TierSpec
    capacity: int
    num_devices: int = 1
    profile: Optional[MediaProfile] = None

    def device_capacity(self) -> int:
        """Bytes per device; the node's first device takes the remainder."""
        return self.capacity // self.num_devices


def provision_for(
    spec: TierSpec,
    capacity: Optional[int] = None,
    num_devices: Optional[int] = None,
) -> TierProvision:
    """A provision for ``spec`` using its defaults unless overridden."""
    return TierProvision(
        tier=spec,
        capacity=capacity if capacity is not None else spec.default_capacity,
        num_devices=(
            num_devices if num_devices is not None else spec.default_devices
        ),
    )


class Node:
    """A worker node with storage devices grouped by tier and task slots."""

    def __init__(
        self,
        node_id: str,
        rack: str,
        tier_specs: Sequence[TierProvision],
        task_slots: int = 8,
    ) -> None:
        if not tier_specs:
            raise ValueError("a node needs at least one tier provision")
        self.node_id = node_id
        self.rack = rack
        self.task_slots = task_slots
        #: Cleared by the fault injector while the node is down; dead
        #: nodes receive no new replicas and no new tasks.
        self.alive = True
        self.hierarchy: TierHierarchy = tier_specs[0].tier.hierarchy
        #: Devices per tier, pre-seeded with every tier of the hierarchy
        #: (empty list = tier not provisioned).  Read-only outside this
        #: class; the placement candidate index reads it directly.
        self.tier_devices: Dict[TierSpec, List[StorageDevice]] = {
            tier: [] for tier in self.hierarchy
        }
        for spec in tier_specs:
            if spec.tier.hierarchy is not self.hierarchy:
                raise ValueError(
                    f"tier {spec.tier.name} belongs to a different hierarchy "
                    f"than {self.hierarchy.name!r}"
                )
            base = spec.device_capacity()
            remainder = spec.capacity - base * spec.num_devices
            for i in range(spec.num_devices):
                # The first device absorbs the integer-division remainder
                # so the tier total matches the spec exactly.
                capacity = base + (remainder if i == 0 else 0)
                device = StorageDevice(
                    device_id=f"{node_id}:{spec.tier.name.lower()}{i}",
                    tier=spec.tier,
                    capacity=capacity,
                    profile=spec.profile,
                )
                self.tier_devices[spec.tier].append(device)

    # -- device access ------------------------------------------------------
    def devices(self, tier: Optional[TierSpec] = None) -> List[StorageDevice]:
        """All devices, or only those of ``tier``."""
        if tier is not None:
            return list(self.tier_devices[tier])
        return [d for tier_devs in self.tier_devices.values() for d in tier_devs]

    def tiers(self) -> List[TierSpec]:
        """Tiers this node actually has devices for, fastest first."""
        return [t for t in self.hierarchy if self.tier_devices[t]]

    def has_tier(self, tier: TierSpec) -> bool:
        """True when the node has at least one device of ``tier``."""
        # Plain indexing on purpose: the dict is pre-seeded with every
        # tier of this node's hierarchy, so a KeyError always means a
        # spec from a *different* hierarchy leaked in — raising beats
        # silently reporting an empty tier.
        return bool(self.tier_devices[tier])

    # -- capacity accounting -------------------------------------------------
    def tier_capacity(self, tier: TierSpec) -> int:
        """Bytes the node's ``tier`` devices hold in total."""
        return sum(d.capacity for d in self.tier_devices[tier])

    def tier_used(self, tier: TierSpec) -> int:
        """Replica bytes stored on the node's ``tier`` devices."""
        return sum(d.used for d in self.tier_devices[tier])

    def tier_free(self, tier: TierSpec) -> int:
        """Bytes still free on the node's ``tier`` devices."""
        return sum(d.free for d in self.tier_devices[tier])

    def tier_utilization(self, tier: TierSpec) -> float:
        """Used fraction of the tier; 1.0 for tiers with no capacity."""
        capacity = self.tier_capacity(tier)
        if capacity == 0:
            return 1.0
        return self.tier_used(tier) / capacity

    def best_device_for(
        self, tier: TierSpec, num_bytes: int
    ) -> Optional[StorageDevice]:
        """The emptiest device of ``tier`` that fits ``num_bytes``, if any.

        Single pass with a strict ``<`` comparison: ties keep the first
        fitting device, exactly like ``min()`` over the filtered list.
        """
        best: Optional[StorageDevice] = None
        best_utilization = 0.0
        for device in self.tier_devices[tier]:
            if device.capacity - device.used >= num_bytes:
                utilization = device.used / device.capacity
                if best is None or utilization < best_utilization:
                    best = device
                    best_utilization = utilization
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{t.name}={self.tier_used(t)}/{self.tier_capacity(t)}"
            for t in self.tiers()
        )
        return f"Node({self.node_id}, {parts})"
