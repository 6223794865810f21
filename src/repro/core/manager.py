"""The Replication Manager: orchestrates downgrades and upgrades.

Registered as a :class:`FileSystemListener` on the Master, the manager
(paper Fig 3):

* maintains the per-file statistics registry and any policy bookkeeping
  (weight trackers, model trainer) on every file event;
* runs Algorithm 1 (the downgrade loop) whenever data lands on a tier;
* runs Algorithm 2 (the upgrade loop) on every access, and periodically
  for proactive policies;
* delegates the actual data movement to the Replication Monitor.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.cluster.hardware import TierSpec
from repro.common.config import Configuration
from repro.dfs.listeners import FileSystemListener
from repro.dfs.master import Master
from repro.dfs.namespace import INodeFile
from repro.core.context import PolicyContext
from repro.core.monitor import ReplicationMonitor
from repro.core.policy import DowngradePolicy, UpgradePolicy
from repro.core.stats import StatisticsRegistry
from repro.core.training import AccessModelTrainer
from repro.core.weights import ExdWeights, LrfuWeights
from repro.sim.simulator import PeriodicTimer, Simulator


class ReplicationManager(FileSystemListener):
    """Drives the pluggable downgrade/upgrade policies."""

    #: Optional decision tracer (:class:`repro.obs.trace.Tracer`),
    #: installed by the runner when ``obs.trace`` is set; ``None`` keeps
    #: the policy loops free of any tracing work.
    tracer = None

    def __init__(
        self,
        master: Master,
        sim: Simulator,
        conf: Optional[Configuration] = None,
        iomodel=None,
    ) -> None:
        self.master = master
        self.sim = sim
        self.conf = conf if conf is not None else Configuration()
        self.stats = StatisticsRegistry(k=self.conf.get_int("stats.k", 12))
        # ``iomodel`` times monitor transfers; without one the monitor
        # builds a snapshot model of its own (standalone timing).
        self.monitor = ReplicationMonitor(
            master, sim, master.placement, self.conf, iomodel=iomodel
        )
        self._temp_excluded: Set[int] = set()
        self.ctx = PolicyContext(
            master,
            self.stats,
            sim,
            self.conf,
            in_flight=self._in_flight_union,
        )
        self.downgrade_policy: Optional[DowngradePolicy] = None
        self.upgrade_policy: Optional[UpgradePolicy] = None
        self.trainer: Optional[AccessModelTrainer] = None
        # Weight trackers shared by LRFU/EXD policy pairs; updated once
        # per event here, read-only inside the policies.
        self.lrfu_weights: Optional[LrfuWeights] = None
        self.exd_weights: Optional[ExdWeights] = None
        self.max_downgrades_per_run = self.conf.get_int(
            "manager.max_downgrades_per_run", 200
        )
        self.max_upgrades_per_run = self.conf.get_int(
            "manager.max_upgrades_per_run", 50
        )
        # Cache mode (AutoCache, Sec 3.3): upgrades create extra cached
        # replicas instead of moving the existing ones.
        self.cache_mode = self.conf.get_bool("manager.cache_mode", False)
        self._downgrading: Set[TierSpec] = set()
        self._proactive_timer: Optional[PeriodicTimer] = None
        interval = self.conf.get_duration("manager.proactive_interval", 60.0)
        if interval > 0:
            self._proactive_timer = PeriodicTimer(
                sim, interval, self._proactive_tick, name="proactive-upgrade"
            )
        master.add_listener(self)

    # -- wiring -------------------------------------------------------------
    def set_downgrade_policy(self, policy: Optional[DowngradePolicy]) -> None:
        """Install the downgrade policy (``None`` disables downgrades) and
        let it see utilization net of the monitor's pending reservations."""
        self.downgrade_policy = policy
        if policy is not None:
            policy.effective_utilization = self.monitor.effective_utilization

    def set_upgrade_policy(self, policy: Optional[UpgradePolicy]) -> None:
        """Install the upgrade policy (``None`` disables upgrades)."""
        self.upgrade_policy = policy

    def set_trainer(self, trainer: Optional[AccessModelTrainer]) -> None:
        """Install the access-model trainer fed by every file access."""
        self.trainer = trainer

    def _in_flight_union(self) -> Set[int]:
        return self.monitor.in_flight_files() | self._temp_excluded

    def _tier_level_for_stats(self, file: INodeFile) -> Optional[int]:
        """The file's tier level, captured only when the ML feature
        pipeline consumes it (``FeatureSpec.include_tier``); recorded
        *before* the upgrade policy reacts to this access so training
        points built at past reference times stay leakage-free."""
        trainer = self.trainer
        if trainer is None:
            return None
        if not (
            trainer.upgrade_model.spec.include_tier
            or trainer.downgrade_model.spec.include_tier
        ):
            return None
        return self.ctx.file_tier_level(file)

    def _policies(self):
        return [p for p in (self.downgrade_policy, self.upgrade_policy) if p]

    # -- FileSystemListener ----------------------------------------------------
    def on_file_created(self, file: INodeFile) -> None:
        """Register ``file`` with the statistics, weight trackers and policies."""
        self.stats.on_create(file)
        now = self.sim.now()
        for tracker in (self.lrfu_weights, self.exd_weights):
            if tracker is not None:
                tracker.on_create(file, now)
        for policy in self._policies():
            policy.on_file_created(file)

    def on_file_accessed(self, file: INodeFile) -> None:
        """Record the access everywhere, then run an upgrade round
        triggered by it (Algorithm 2)."""
        now = self.sim.now()
        self.stats.on_access(file, now, tier_level=self._tier_level_for_stats(file))
        for tracker in (self.lrfu_weights, self.exd_weights):
            if tracker is not None:
                tracker.on_access(file, now)
        if self.trainer is not None:
            self.trainer.on_access(file)
        for policy in self._policies():
            policy.on_file_accessed(file)
        self.run_upgrade(file)

    def on_file_modified(self, file: INodeFile) -> None:
        """Forward the modification to the policies."""
        for policy in self._policies():
            policy.on_file_modified(file)

    def on_file_deleted(self, file: INodeFile) -> None:
        """Drop ``file`` from the statistics, weight trackers and policies."""
        self.stats.on_delete(file)
        for tracker in (self.lrfu_weights, self.exd_weights):
            if tracker is not None:
                tracker.on_delete(file)
        for policy in self._policies():
            policy.on_file_deleted(file)

    def on_data_added(self, tier: TierSpec) -> None:
        """Run a downgrade round for ``tier`` (Algorithm 1), which just gained data."""
        self.run_downgrade(tier)

    # -- Algorithm 1: the downgrade loop ------------------------------------------
    def run_downgrade(self, tier: TierSpec) -> int:
        """Run one downgrade round for ``tier``; returns files scheduled."""
        policy = self.downgrade_policy
        if policy is None or tier in self._downgrading:
            return 0
        self._downgrading.add(tier)
        scheduled_files = 0
        try:
            if not policy.start_downgrade(tier):
                return 0
            self._temp_excluded.clear()
            for _ in range(self.max_downgrades_per_run):
                file = policy.select_file_to_downgrade(tier)
                if file is None:
                    break
                action = policy.how_to_downgrade(file, tier)
                scheduled = self.monitor.submit_downgrade(file, tier, action)
                if self.tracer is not None:
                    self.tracer.emit(
                        "downgrade_decision",
                        policy=policy.name,
                        tier=tier.name,
                        path=file.path,
                        action=action.value,
                        bytes=file.size,
                        scheduled=scheduled,
                    )
                if scheduled == 0:
                    # Unmovable right now; exclude for this round so the
                    # policy does not return it again.
                    self._temp_excluded.add(file.inode_id)
                else:
                    scheduled_files += 1
                if policy.stop_downgrade(tier):
                    break
        finally:
            self._temp_excluded.clear()
            self._downgrading.discard(tier)
        return scheduled_files

    # -- Algorithm 2: the upgrade loop ----------------------------------------------
    def run_upgrade(self, accessed_file: Optional[INodeFile]) -> int:
        """Run one upgrade round; returns files scheduled."""
        policy = self.upgrade_policy
        if policy is None:
            return 0
        if accessed_file is None and not policy.proactive:
            return 0
        if not policy.start_upgrade(accessed_file):
            return 0
        scheduled_files = 0
        trigger_kind = "proactive" if accessed_file is None else "access"
        trigger = accessed_file
        for _ in range(self.max_upgrades_per_run):
            file = policy.select_file_to_upgrade(trigger)
            trigger = None  # only the first selection sees the trigger
            if file is None:
                break
            tiers = policy.upgrade_tier_candidates(file)
            if tiers:
                scheduled = self.monitor.submit_upgrade(
                    file, tiers, copy=self.cache_mode
                )
                if self.tracer is not None:
                    self.tracer.emit(
                        "upgrade_decision",
                        policy=policy.name,
                        trigger=trigger_kind,
                        path=file.path,
                        tiers=[t.name for t in tiers],
                        bytes=file.size,
                        cache=self.cache_mode,
                        scheduled=scheduled,
                    )
                policy.on_upgrade_scheduled(file, scheduled)
                if scheduled > 0:
                    scheduled_files += 1
            if policy.stop_upgrade():
                break
        return scheduled_files

    def _proactive_tick(self) -> None:
        self.run_upgrade(None)
        # Safety net: tiers can cross the threshold through transfers that
        # fire no on_data_added for this tier (e.g. pending reservations).
        for tier in self.master.hierarchy:
            self.run_downgrade(tier)

    # -- shared tracker helpers (used by the registry) -----------------------------
    def ensure_lrfu_weights(self) -> LrfuWeights:
        """The shared LRFU weight tracker, built on first use from
        ``lrfu.half_life``."""
        if self.lrfu_weights is None:
            half_life = self.conf.get_duration("lrfu.half_life", 6 * 3600.0)
            self.lrfu_weights = LrfuWeights(half_life=half_life)
        return self.lrfu_weights

    def ensure_exd_weights(self) -> ExdWeights:
        """The shared EXD weight tracker, built on first use from
        ``exd.alpha``."""
        if self.exd_weights is None:
            alpha = self.conf.get_float("exd.alpha", 1.16e-5)
            self.exd_weights = ExdWeights(alpha=alpha)
        return self.exd_weights

    def stop(self) -> None:
        """Stop periodic activity (end of experiment)."""
        if self._proactive_timer is not None:
            self._proactive_timer.stop()
        if self.trainer is not None:
            self.trainer.stop()
        self.monitor.stop()
