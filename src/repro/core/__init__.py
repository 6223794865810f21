"""The paper's contribution: automated tiered storage management.

Components (paper Fig 3):

* :class:`ReplicationManager` — orchestrates the pluggable policies
  around the four decision points of Sec 3.2 (Algorithms 1 and 2);
* :class:`ReplicationMonitor` — executes the resulting replica moves
  asynchronously and repairs replication-factor drift;
* :mod:`repro.core.downgrade` / :mod:`repro.core.upgrade` — the 7+4
  policies of Tables 1 and 2;
* :class:`StatisticsRegistry` — per-file recency/frequency/size state;
* :class:`AccessModelTrainer` — online training of the two XGB models.
"""

from repro.cluster.hardware import transfer_seconds
from repro.core.context import PolicyContext
from repro.core.manager import ReplicationManager
from repro.core.monitor import ReplicationMonitor
from repro.core.policy import DowngradeAction, DowngradePolicy, Policy, UpgradePolicy
from repro.core.gds import GreedyDualSizeDowngradePolicy
from repro.core.lecar import LeCaRDowngradePolicy
from repro.core.registry import (
    DOWNGRADE_POLICY_NAMES,
    END_TO_END_PAIRS,
    EXTRA_DOWNGRADE_POLICY_NAMES,
    EXTRA_UPGRADE_POLICY_NAMES,
    UPGRADE_POLICY_NAMES,
    configure_policies,
)
from repro.core.slruk import SlruKDowngradePolicy, SlruKUpgradePolicy
from repro.core.stats import FileStatistics, StatisticsRegistry
from repro.core.training import AccessModelTrainer
from repro.core.weights import ExdWeights, LrfuWeights
from repro.core.downgrade import (
    ExdDowngradePolicy,
    LfuDowngradePolicy,
    LfuFDowngradePolicy,
    LifeDowngradePolicy,
    LruDowngradePolicy,
    LrfuDowngradePolicy,
    XgbDowngradePolicy,
)
from repro.core.upgrade import (
    ExdUpgradePolicy,
    LrfuUpgradePolicy,
    OsaUpgradePolicy,
    XgbUpgradePolicy,
)

__all__ = [
    "PolicyContext",
    "ReplicationManager",
    "ReplicationMonitor",
    "transfer_seconds",
    "Policy",
    "DowngradePolicy",
    "UpgradePolicy",
    "DowngradeAction",
    "StatisticsRegistry",
    "FileStatistics",
    "AccessModelTrainer",
    "LrfuWeights",
    "ExdWeights",
    "configure_policies",
    "DOWNGRADE_POLICY_NAMES",
    "UPGRADE_POLICY_NAMES",
    "EXTRA_DOWNGRADE_POLICY_NAMES",
    "EXTRA_UPGRADE_POLICY_NAMES",
    "END_TO_END_PAIRS",
    "SlruKDowngradePolicy",
    "SlruKUpgradePolicy",
    "GreedyDualSizeDowngradePolicy",
    "LeCaRDowngradePolicy",
    "LruDowngradePolicy",
    "LfuDowngradePolicy",
    "LrfuDowngradePolicy",
    "LifeDowngradePolicy",
    "LfuFDowngradePolicy",
    "ExdDowngradePolicy",
    "XgbDowngradePolicy",
    "OsaUpgradePolicy",
    "LrfuUpgradePolicy",
    "ExdUpgradePolicy",
    "XgbUpgradePolicy",
]
