"""One projection of a run's outcome.

The collector's exact state round-trips through JSON and
:meth:`MetricsCollector.from_state` with every derived figure equal, and
the fingerprint, the service's ``run`` block and the sweep's experiment
rows all carry it.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hardware import get_hierarchy, hierarchy_names
from repro.engine.metrics import (
    MetricsCollector,
    completion_reduction,
    efficiency_improvement,
)
from repro.engine.runner import RunResult, SystemConfig, WorkloadRunner
from repro.experiments.common import run_labelled_cells
from repro.service import result_to_dict
from repro.sweep import make_cell, run_cell
from repro.workload.bins import BIN_NAMES
from repro.workload.scenarios import build_scenario

#: The presets registered when this module is imported.
HIERARCHIES = hierarchy_names()

SIZES = st.integers(min_value=0, max_value=1 << 40)
SECONDS = st.floats(min_value=0.0, max_value=1e6)
BINS = st.sampled_from(BIN_NAMES)


@st.composite
def collectors(draw):
    """A collector of a registered hierarchy after drawn ``record_*`` calls."""
    hierarchy = get_hierarchy(draw(st.sampled_from(HIERARCHIES)))
    tiers = st.sampled_from(list(hierarchy))
    calls = st.one_of(
        st.tuples(
            st.just("record_task_read"), st.tuples(BINS, tiers, SIZES, SECONDS)
        ),
        st.tuples(st.just("record_file_access"), st.tuples(st.booleans(), SIZES)),
        st.tuples(st.just("record_task_time"), st.tuples(BINS, SECONDS)),
        st.tuples(st.just("record_job_completion"), st.tuples(BINS, SECONDS)),
        st.tuples(st.just("record_write"), st.tuples(SIZES)),
    )
    collector = MetricsCollector(hierarchy=hierarchy)
    for name, args in draw(st.lists(calls, max_size=30)):
        getattr(collector, name)(*args)
    return collector


def derived(collector):
    """Every figure the renderers read off a collector."""
    return (
        collector.headline(),
        collector.location_hit_ratio(),
        collector.location_byte_hit_ratio(),
        collector.mean_completion_times(),
        collector.tier_access_distribution(),
    )


@settings(max_examples=60, deadline=None)
@given(collectors(), collectors())
def test_state_round_trips_exactly(collector, baseline):
    state = collector.state()
    assert json.loads(json.dumps(state)) == state
    rebuilt = MetricsCollector.from_state(json.loads(json.dumps(state)))
    assert rebuilt.state() == state
    assert rebuilt.hierarchy is collector.hierarchy
    assert derived(rebuilt) == derived(collector)
    for compare in (completion_reduction, efficiency_improvement):
        assert compare(baseline, rebuilt) == compare(baseline, collector)
        assert compare(rebuilt, baseline) == compare(collector, baseline)


def test_tiers_keyed_by_name_in_hierarchy_order():
    memory, ssd, hdd = get_hierarchy("default3")
    first, second = MetricsCollector(), MetricsCollector()
    for collector, order in ((first, (memory, hdd, ssd)), (second, (memory, ssd, hdd))):
        for tier in order:
            collector.record_task_read("A", tier, 5, 1.0)
    assert json.dumps(first.state()) == json.dumps(second.state())
    by_tier = first.state()["bins"]["A"]["bytes_by_tier"]
    assert list(by_tier) == ["MEMORY", "SSD", "HDD"]


class UniterableDict(dict):
    """A dict that fails any iteration, as a live one being grown may."""

    def __iter__(self):
        raise RuntimeError("dictionary changed size during iteration")

    def keys(self):
        raise RuntimeError("dictionary changed size during iteration")

    items = values = keys


def test_state_never_iterates_bytes_by_tier():
    # The service reads a live collector from its control thread while
    # the run may add a tier to a bin's bytes_by_tier.
    memory, ssd, _ = get_hierarchy("default3")
    collector = MetricsCollector()
    collector.record_task_read("B", ssd, 7, 1.0)
    collector.record_task_read("B", memory, 3, 1.0)
    expected = collector.state()
    for b in collector.bins.values():
        b.bytes_by_tier = UniterableDict(b.bytes_by_tier)
    assert collector.state() == expected
    assert collector.headline() == MetricsCollector.from_state(expected).headline()


def test_run_block_is_the_fingerprint_plus_host_fields():
    result = WorkloadRunner(
        build_scenario("fb", seed=11, scale=0.03), SystemConfig(label="x")
    ).run()
    block = result_to_dict(result)
    fingerprint = result.fingerprint()
    assert {k: block[k] for k in fingerprint} == json.loads(json.dumps(fingerprint))
    assert set(block) - set(fingerprint) == {"label", "duration", "pump", "live_stats"}
    rebuilt = RunResult.from_fingerprint(json.loads(json.dumps(fingerprint)), "x")
    assert rebuilt.fingerprint() == fingerprint
    assert derived(rebuilt.metrics) == derived(result.metrics)


def test_experiment_rows_carry_the_exact_collector():
    cell = make_cell(
        workload="mlscan", scale=0.05, seed=1, downgrade="lru", upgrade="osa"
    )
    (row_result,) = run_labelled_cells([("mlscan", cell)], jobs=1)
    offline = WorkloadRunner(
        build_scenario("mlscan", seed=1, scale=0.05),
        SystemConfig(label="x", downgrade="lru", upgrade="osa"),
    ).run()
    assert row_result.metrics.state() == offline.metrics.state()
    assert row_result.jobs_finished == offline.jobs_finished
    # The row's rounded columns come from that same outcome.
    row = run_cell(cell.config)
    assert row["task_hours"] == round(offline.metrics.total_task_seconds() / 3600, 4)
