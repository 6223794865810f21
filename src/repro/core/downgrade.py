"""The seven downgrade policies of Table 1.

============  ==========================================================
Acronym       Which file leaves the tier
============  ==========================================================
LRU           least recently used
LFU           least frequently used
LRFU          lowest recency+frequency weight (Formula 1)
LIFE          PACMan: old LFU file, else the largest recent file
LFU-F         PACMan: old LFU file, else the recent LFU file
EXD           Big SQL: lowest exponential-decay weight (Formula 2)
XGB           lowest predicted access probability in the distant future
============  ==========================================================

All policies share the proactive start/stop thresholds of the base class
(Sec 5.1/5.4) and the move-via-multi-objective-placement action
(Sec 5.3).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cluster.hardware import TierSpec
from repro.common.units import HOURS
from repro.dfs.namespace import INodeFile
from repro.core.context import PolicyContext
from repro.core.policy import DowngradePolicy
from repro.core.weights import ExdWeights, LrfuWeights
from repro.ml.access_model import FileAccessModel


class LruDowngradePolicy(DowngradePolicy):
    """Evict the file whose last access (or creation) is oldest."""

    name = "lru"

    def __init__(self, ctx: PolicyContext) -> None:
        super().__init__(ctx)
        self._tracked_at = -1  # namespace mutation count at the last track()

    def select_file_to_downgrade(self, tier: TierSpec) -> Optional[INodeFile]:
        # Walks the registry's recency index from the oldest key: the
        # first file with bytes on the tier that is not in flight is the
        # minimum a scan of files_on_tier would find, provided every
        # namespace file has statistics.  Files the registry never saw
        # created (it attached later, or no listener feeds it) get the
        # entry the scan's get_or_create would give them.
        stats = self.ctx.stats
        master = self.ctx.master
        mutations = master.fs.mutations
        if mutations != self._tracked_at:
            stats.track(master.files_by_id())
            self._tracked_at = mutations
        return stats.least_recent(
            master.blocks.tier_file_bytes(tier), self.ctx.in_flight_files()
        )


class LfuDowngradePolicy(DowngradePolicy):
    """Evict the file with the fewest accesses (recency breaks ties)."""

    name = "lfu"

    def select_file_to_downgrade(self, tier: TierSpec) -> Optional[INodeFile]:
        candidates = self.ctx.files_on_tier(tier)
        if not candidates:
            return None
        stats = self.ctx.stats
        return min(
            candidates,
            key=lambda f: (
                stats.get_or_create(f).total_accesses,
                stats.get_or_create(f).last_access_or_creation,
                f.inode_id,
            ),
        )


class LrfuDowngradePolicy(DowngradePolicy):
    """Evict the file with the lowest decayed LRFU weight (Formula 1)."""

    name = "lrfu"

    def __init__(
        self, ctx: PolicyContext, weights: Optional[LrfuWeights] = None
    ) -> None:
        super().__init__(ctx)
        half_life = ctx.conf.get_duration("lrfu.half_life", 6 * HOURS)
        self.weights = weights or LrfuWeights(half_life=half_life)

    def select_file_to_downgrade(self, tier: TierSpec) -> Optional[INodeFile]:
        candidates = self.ctx.files_on_tier(tier)
        if not candidates:
            return None
        now = self.ctx.now()
        return min(
            candidates,
            key=lambda f: (self.weights.effective(f, now), f.inode_id),
        )


class _PartitionedDowngradePolicy(DowngradePolicy):
    """Shared machinery for PACMan's LIFE and LFU-F.

    Files idle for at least ``life.window`` form the "old" partition
    P_old; the rest form P_new.  Both policies first evict the LFU file
    of P_old when it is non-empty and differ only in how they pick from
    P_new.
    """

    def __init__(self, ctx: PolicyContext) -> None:
        super().__init__(ctx)
        self.window = ctx.conf.get_duration("life.window", 9 * HOURS)

    def _partitions(self, tier: TierSpec):
        now = self.ctx.now()
        stats = self.ctx.stats
        old: List[INodeFile] = []
        new: List[INodeFile] = []
        for file in self.ctx.files_on_tier(tier):
            if stats.get_or_create(file).idle_time(now) >= self.window:
                old.append(file)
            else:
                new.append(file)
        return old, new

    def _lfu(self, files: List[INodeFile]) -> INodeFile:
        stats = self.ctx.stats
        return min(
            files,
            key=lambda f: (
                stats.get_or_create(f).total_accesses,
                stats.get_or_create(f).last_access_or_creation,
                f.inode_id,
            ),
        )

    def _select_from_new(self, new: List[INodeFile]) -> INodeFile:
        raise NotImplementedError

    def select_file_to_downgrade(self, tier: TierSpec) -> Optional[INodeFile]:
        old, new = self._partitions(tier)
        if old:
            return self._lfu(old)
        if new:
            return self._select_from_new(new)
        return None


class LifeDowngradePolicy(_PartitionedDowngradePolicy):
    """PACMan LIFE: minimize average job completion time.

    Evicting the *largest* recent file preserves the all-or-nothing
    memory footprint of the largest possible number of (small) files.
    """

    name = "life"

    def _select_from_new(self, new: List[INodeFile]) -> INodeFile:
        return max(new, key=lambda f: (f.size, -f.inode_id))


class LfuFDowngradePolicy(_PartitionedDowngradePolicy):
    """PACMan LFU-F: maximize cluster efficiency via frequency."""

    name = "lfu-f"

    def _select_from_new(self, new: List[INodeFile]) -> INodeFile:
        return self._lfu(new)


class ExdDowngradePolicy(DowngradePolicy):
    """Big SQL's exponential decay: evict the lowest-weight file."""

    name = "exd"

    def __init__(
        self, ctx: PolicyContext, weights: Optional[ExdWeights] = None
    ) -> None:
        super().__init__(ctx)
        alpha = ctx.conf.get_float("exd.alpha", 1.16e-5)
        self.weights = weights or ExdWeights(alpha=alpha)

    def select_file_to_downgrade(self, tier: TierSpec) -> Optional[INodeFile]:
        candidates = self.ctx.files_on_tier(tier)
        if not candidates:
            return None
        now = self.ctx.now()
        return min(
            candidates,
            key=lambda f: (self.weights.effective(f, now), f.inode_id),
        )


class XgbDowngradePolicy(DowngradePolicy):
    """ML policy: evict the file least likely to be accessed again.

    Scans the ``xgb.candidates`` (default 600) least-recently-used files
    on the tier, asks the *downgrade* access model (class window 6h) for
    each file's probability of access, and evicts the least likely.
    The LRU pre-filter avoids cache pollution by files that would never
    otherwise be examined (Sec 5.2); scanning is batched into a single
    vectorized model call per downgrade round.

    Falls back to plain LRU while the model is warming up.
    """

    name = "xgb"

    def __init__(self, ctx: PolicyContext, model: FileAccessModel) -> None:
        super().__init__(ctx)
        self.model = model
        self.candidate_limit = ctx.conf.get_int("xgb.candidates", 600)
        self._queue: List[int] = []  # inode ids, lowest probability first
        self._queue_set: set = set()

    def start_downgrade(self, tier: TierSpec) -> bool:
        if not super().start_downgrade(tier):
            return False
        self._build_queue(tier)
        return True

    def _build_queue(self, tier: TierSpec) -> None:
        self._queue = []
        self._queue_set = set()
        stats = self.ctx.stats
        candidates = stats.lru_order(self.ctx.files_on_tier(tier))
        candidates = candidates[: self.candidate_limit]
        if not candidates:
            return
        if not self.model.ready:
            # Warm-up fallback: plain LRU order.
            self._queue = [f.inode_id for f in candidates]
            self._queue_set = set(self._queue)
            return
        features = self.ctx.feature_matrix(self.model.spec, candidates)
        probs = self.model.model.predict_proba(features)
        order = np.argsort(probs, kind="stable")
        self._queue = [candidates[int(i)].inode_id for i in order]
        self._queue_set = set(self._queue)

    def select_file_to_downgrade(self, tier: TierSpec) -> Optional[INodeFile]:
        busy = self.ctx.in_flight_files()
        blocks = self.ctx.master.blocks
        while self._queue:
            inode_id = self._queue.pop(0)
            self._queue_set.discard(inode_id)
            try:
                file = self.ctx.master.get_file_by_id(inode_id)
            except KeyError:
                continue  # deleted since the scan
            if file.inode_id in busy:
                continue
            if blocks.file_bytes_on_tier(file, tier) == 0:
                continue  # already moved off since the scan
            return file
        return None
