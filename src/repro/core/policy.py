"""Policy interfaces: the four decision points of Sec 3.2.

Both policy kinds implement four methods matching Algorithms 1 and 2:

==============================  =======================================
Decision point                  Method
==============================  =======================================
1. when to start                ``start_downgrade`` / ``start_upgrade``
2. which file                   ``select_file_to_downgrade`` / ``..._upgrade``
3. how (action / target tier)   ``how_to_downgrade`` / ``select_upgrade_tier``
4. when to stop                 ``stop_downgrade`` / ``stop_upgrade``
==============================  =======================================

plus the notification callbacks (file created / accessed / modified /
deleted) through which stateful policies maintain their bookkeeping.

Shared behaviour encoded here (Secs 5.1, 5.4): every downgrade policy
starts when a tier's used fraction exceeds ``downgrade.start_threshold``
(default 0.90) and stops below ``downgrade.stop_threshold`` (default
0.85).  Utilization is *effective*: bytes already scheduled to leave the
tier are subtracted, so proactive asynchronous movement does not cause
over-selection.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cluster.hardware import TierSpec
from repro.dfs.namespace import INodeFile
from repro.core.context import PolicyContext


class DowngradeAction(enum.Enum):
    """How a selected file leaves its tier (Definition 1)."""

    MOVE = "move"
    DELETE = "delete"


class Policy:
    """Common base: context attachment and no-op callbacks."""

    name = "base"

    def __init__(self, ctx: PolicyContext) -> None:
        self.ctx = ctx

    # -- notification callbacks (Sec 3.3) ---------------------------------
    def on_file_created(self, file: INodeFile) -> None:
        """Called after a file's replicas are all placed."""

    def on_file_accessed(self, file: INodeFile) -> None:
        """Called when a file read begins (statistics already updated)."""

    def on_file_modified(self, file: INodeFile) -> None:
        """Called after an append/rewrite."""

    def on_file_deleted(self, file: INodeFile) -> None:
        """Called after a file is removed."""


class DowngradePolicy(Policy):
    """Decides when/which/how to move data *down* the tiers (Sec 5)."""

    name = "downgrade-base"

    def __init__(self, ctx: PolicyContext) -> None:
        super().__init__(ctx)
        conf = ctx.conf
        self.start_threshold = conf.get_float("downgrade.start_threshold", 0.90)
        self.stop_threshold = conf.get_float("downgrade.stop_threshold", 0.85)
        if not 0 < self.stop_threshold <= self.start_threshold <= 1.0:
            raise ValueError("thresholds must satisfy 0 < stop <= start <= 1")
        # Default action for decision point 3: MOVE preserves the replica
        # count (tiering); DELETE drops it (cache semantics — the
        # AutoCache mode, where memory replicas are extras on top of the
        # persistent replication factor).
        action_name = conf.get_str("downgrade.action", "move").lower()
        try:
            self.default_action = DowngradeAction(action_name)
        except ValueError:
            raise ValueError(
                f"downgrade.action must be 'move' or 'delete', got {action_name!r}"
            ) from None
        # Effective utilization callback installed by the manager: it
        # subtracts bytes already scheduled to leave the tier.
        self.effective_utilization = ctx.tier_utilization

    # Decision point 1 (Sec 5.1): proactive start above the threshold.
    def start_downgrade(self, tier: TierSpec) -> bool:
        return self.effective_utilization(tier) > self.start_threshold

    # Decision point 2 (Sec 5.2): policy-specific.
    def select_file_to_downgrade(self, tier: TierSpec) -> Optional[INodeFile]:
        raise NotImplementedError

    # Decision point 3 (Sec 5.3): move via the multi-objective placement
    # (the monitor resolves the concrete lower tier) by default; DELETE
    # when configured for cache semantics (``downgrade.action=delete``).
    def how_to_downgrade(
        self, file: INodeFile, tier: TierSpec
    ) -> DowngradeAction:
        return self.default_action

    # Decision point 4 (Sec 5.4): stop once enough space was freed.
    def stop_downgrade(self, tier: TierSpec) -> bool:
        return self.effective_utilization(tier) <= self.stop_threshold


class UpgradePolicy(Policy):
    """Decides when/which/how to move data *up* the tiers (Sec 6)."""

    name = "upgrade-base"

    #: Upgrade policies are also invoked periodically for proactive moves
    #: (Algorithm 2); policies that only react to accesses ignore those
    #: invocations.
    proactive = False

    # Decision point 1 (Sec 6.1).
    def start_upgrade(self, accessed_file: Optional[INodeFile]) -> bool:
        raise NotImplementedError

    # Decision point 2 (Sec 6.2): default = the file that triggered it.
    def select_file_to_upgrade(
        self, accessed_file: Optional[INodeFile]
    ) -> Optional[INodeFile]:
        return accessed_file

    # Decision point 3 (Sec 6.3): the target tier; the monitor resolves
    # the concrete node/device through the multi-objective placement.
    def select_upgrade_tier(self, file: INodeFile) -> Optional[TierSpec]:
        best = self.ctx.file_best_tier(file)
        top = self.ctx.highest_tier
        if best is None or best is top:
            return None
        return top

    def upgrade_tier_candidates(self, file: INodeFile) -> "list[TierSpec]":
        """Acceptable target tiers, fastest first (default: just one)."""
        tier = self.select_upgrade_tier(file)
        return [tier] if tier is not None else []

    def on_upgrade_scheduled(self, file: INodeFile, scheduled_bytes: int) -> None:
        """Feedback hook: the monitor scheduled this many bytes upward."""

    # Decision point 4 (Sec 6.4): default = single-file process.
    def stop_upgrade(self) -> bool:
        return True
