"""Golden fingerprint of one end-to-end run of the paper's XGB policies.

The replay is the ``fb-xgb`` benchmark's first input: the FB profile at
x0.5, cut to 1.25 hours, seed 42, XGB downgrade and upgrade.  Every
pinned value was recorded before the tree learner's split search was
vectorized, so any change to how trees grow or predict that moves a
single bit of a model, or one simulated decision, fails here.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.common.units import HOURS
from repro.engine import SystemConfig, WorkloadRunner
from repro.ml.serialize import model_to_dict
from repro.workload import FB_PROFILE, scaled_profile, synthesize_trace

GOLDEN = {
    "hit_ratio": "0.6740182894029048",
    "task_hours": "1.5441006630830767",
    "transfers_committed": 419,
    "events": 3437,
    "downgrade_sha256": (
        "62fb1f55012880b0e81008f3b6247acdadf6c3d2339fa458ed32d59de370ae8d"
    ),
    "upgrade_sha256": (
        "1d12112090a88faa3f5a8bca431affb53e741a4b051a6582241c0caffca0cfba"
    ),
}


def _model_sha256(access_model) -> str:
    payload = json.dumps(model_to_dict(access_model.model), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def xgb_run():
    profile = replace(scaled_profile(FB_PROFILE, 0.5), duration=1.25 * HOURS)
    trace = synthesize_trace(profile, seed=42)
    runner = WorkloadRunner(
        trace, SystemConfig(downgrade="xgb", upgrade="xgb", seed=42)
    )
    result = runner.run()
    trainer = runner.manager.trainer
    return {
        "hit_ratio": repr(result.metrics.hit_ratio()),
        "task_hours": repr(result.metrics.total_task_seconds() / 3600.0),
        "transfers_committed": result.transfers_committed,
        "events": runner.sim.events_processed,
        "downgrade_sha256": _model_sha256(trainer.downgrade_model),
        "upgrade_sha256": _model_sha256(trainer.upgrade_model),
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_xgb_fingerprint_unchanged(xgb_run, key):
    assert xgb_run[key] == GOLDEN[key]
