"""Property and unit tests for the fair-share flow engine."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.floats import fold_sum
from repro.engine import flows as flows_module
from repro.engine.flows import (
    FairShareEngine,
    Flow,
    Resource,
    compute_max_min_rates,
    compute_max_min_rates_reference,
    compute_max_min_rates_vectorized,
)
from repro.sim.simulator import Simulator


#: Link weights the engine really uses (reads weigh 1.0, writes
#: ``read_bw / write_bw``).  Unlike 1.0/1.5/2.0, their partial sums are
#: not exact, so a solver that sums in a different order shows up.
PRODUCTION_WEIGHTS = (1.0, 1.1818181818181819, 1.2857142857142858, 1.5)
#: What the random solver scenarios draw link weights from.
SCENARIO_WEIGHTS = (0.5, 2.0) + PRODUCTION_WEIGHTS


def make_scenario(seed: int, num_resources: int, num_flows: int):
    """A random solver scenario: flows over a shared resource pool."""
    rng = random.Random(seed)
    resources = [
        Resource(f"r{i}", rng.uniform(10.0, 2000.0)) for i in range(num_resources)
    ]
    flows = []
    for i in range(num_flows):
        count = rng.randint(1, min(4, num_resources))
        picked = rng.sample(resources, count)
        links = [(r, rng.choice(SCENARIO_WEIGHTS)) for r in picked]
        flows.append(Flow(i + 1, 1000.0, links, lambda: None, name=f"f{i}"))
    return resources, flows


class TestWeightFold:
    """Weight sums are a left-to-right fold, whatever ``sum()`` does."""

    TRIPLE = (1.0, 1.1818181818181819, 1.1818181818181819)

    def test_fold_of_the_production_triple_is_pinned(self):
        assert fold_sum(self.TRIPLE) == 3.3636363636363633
        # A compensated sum (Python >= 3.12 ``sum()``) rounds it the
        # other way; the solvers must not use one.
        assert math.fsum(self.TRIPLE) == 3.3636363636363638

    def test_solvers_divide_by_the_folded_sum(self):
        resource = Resource("dev", 1000.0)
        flows = [
            Flow(i + 1, 1000.0, [(resource, w)], lambda: None)
            for i, w in enumerate(self.TRIPLE)
        ]
        expected = 1000.0 / 3.3636363636363633
        for solver in (compute_max_min_rates, compute_max_min_rates_reference):
            rates = solver(flows)
            assert all(rates[f] == expected for f in flows)

    @pytest.mark.parametrize("seed", range(20))
    def test_rates_ignore_a_compensated_sum(self, monkeypatch, seed):
        _, flows = make_scenario(seed, 6, 40)
        before = compute_max_min_rates(flows)
        oracle = compute_max_min_rates_reference(flows)
        # Shadow the builtin inside the module, as Python 3.12's
        # compensated ``sum()`` would replace it.
        monkeypatch.setattr(flows_module, "sum", math.fsum, raising=False)
        assert compute_max_min_rates(flows) == before
        assert compute_max_min_rates_reference(flows) == oracle == before


class TestSolverProperties:
    """Invariants of compute_max_min_rates over randomized graphs."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_resources=st.integers(min_value=1, max_value=8),
        num_flows=st.integers(min_value=1, max_value=25),
    )
    def test_rates_never_exceed_capacity(self, seed, num_resources, num_flows):
        resources, flows = make_scenario(seed, num_resources, num_flows)
        rates = compute_max_min_rates(flows)
        for resource in resources:
            demand = sum(
                rates[f] * w for f in flows for r, w in f.links if r is resource
            )
            assert demand <= resource.capacity * (1 + 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_resources=st.integers(min_value=1, max_value=8),
        num_flows=st.integers(min_value=1, max_value=25),
    )
    def test_allocation_is_work_conserving(self, seed, num_resources, num_flows):
        """Every flow is bottlenecked by at least one saturated resource.

        If no resource along a flow's path were saturated, its rate
        could be raised without hurting anyone — the allocation would
        not be max-min.
        """
        resources, flows = make_scenario(seed, num_resources, num_flows)
        rates = compute_max_min_rates(flows)
        demand = {
            r: sum(rates[f] * w for f in flows for rr, w in f.links if rr is r)
            for r in resources
        }
        for flow in flows:
            assert any(
                demand[r] >= r.capacity * (1 - 1e-6) for r, _ in flow.links
            ), f"flow {flow.name} has slack on every resource"

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_resources=st.integers(min_value=1, max_value=6),
        num_flows=st.integers(min_value=1, max_value=15),
    )
    def test_rates_positive(self, seed, num_resources, num_flows):
        _, flows = make_scenario(seed, num_resources, num_flows)
        rates = compute_max_min_rates(flows)
        assert all(rates[f] > 0 for f in flows)

    def test_deterministic_rates(self):
        for seed in range(25):
            _, flows_a = make_scenario(seed, 5, 12)
            _, flows_b = make_scenario(seed, 5, 12)
            rates_a = compute_max_min_rates(flows_a)
            rates_b = compute_max_min_rates(flows_b)
            assert [rates_a[f] for f in flows_a] == [rates_b[f] for f in flows_b]


class TestSolverEquivalence:
    """The production solvers against the from-scratch reference."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        num_resources=st.integers(min_value=1, max_value=10),
        num_flows=st.integers(min_value=1, max_value=60),
    )
    def test_incremental_solver_matches_reference_exactly(
        self, seed, num_resources, num_flows
    ):
        """The dirty-set solver is the reference, arithmetic included:
        rates must be equal bit for bit, not just approximately."""
        _, flows = make_scenario(seed, num_resources, num_flows)
        fast = compute_max_min_rates(flows)
        oracle = compute_max_min_rates_reference(flows)
        assert all(fast[f] == oracle[f] for f in flows)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        num_resources=st.integers(min_value=1, max_value=8),
        num_flows=st.integers(min_value=1, max_value=50),
    )
    def test_vectorized_solver_matches_reference(
        self, seed, num_resources, num_flows
    ):
        """The numpy filling agrees with the reference up to float noise
        and preserves the max-min structure (capacity + bottleneck)."""
        resources, flows = make_scenario(seed, num_resources, num_flows)
        fast = compute_max_min_rates_vectorized(flows)
        oracle = compute_max_min_rates_reference(flows)
        for f in flows:
            assert fast[f] == pytest.approx(oracle[f], rel=1e-6)
        for resource in resources:
            demand = sum(
                fast[f] * w for f in flows for r, w in f.links if r is resource
            )
            assert demand <= resource.capacity * (1 + 1e-6)

    def test_vectorized_handles_duplicate_links(self):
        # Two links to the same resource: weights add, matching the
        # reference's per-link summation.
        r = Resource("dev", 100.0)
        flow = Flow(1, 1000, [(r, 1.0), (r, 1.0)], lambda: None)
        assert flow.dup_links
        fast = compute_max_min_rates_vectorized([flow])
        oracle = compute_max_min_rates_reference([flow])
        assert fast[flow] == pytest.approx(oracle[flow])
        assert oracle[flow] == pytest.approx(50.0)
        assert compute_max_min_rates([flow])[flow] == oracle[flow]

    def test_empty_all_solvers(self):
        assert compute_max_min_rates([]) == {}
        assert compute_max_min_rates_reference([]) == {}
        assert compute_max_min_rates_vectorized([]) == {}


class _BruteForceEngine(FairShareEngine):
    """The pre-registry engine: scans every active flow to find the
    component (historical multi-pass sweep) and re-solves it with the
    from-scratch reference solver.  The production engine must be an
    exact behavioural replacement for this."""

    def _component_of(self, seed):
        resources = {r.name for r, _ in seed.links}
        component = []
        candidates = list(self._flows.values())
        grew = True
        while grew:
            grew = False
            rest = []
            for flow in candidates:
                if any(r.name in resources for r, _ in flow.links):
                    component.append(flow)
                    for r, _ in flow.links:
                        if r.name not in resources:
                            resources.add(r.name)
                            grew = True
                else:
                    rest.append(flow)
            candidates = rest
        return component

    def _solve(self, flows):
        return compute_max_min_rates_reference(flows)

    def _recompute(self, seed):  # disable the fast paths too
        now = self.sim.now()
        self.recomputes += 1
        flows = self._component_of(seed)
        for flow in flows:
            elapsed = now - flow.last_update
            if elapsed > 0.0 and flow.rate > 0.0:
                flow.bytes_remaining = max(
                    0.0, flow.bytes_remaining - flow.rate * elapsed
                )
            flow.last_update = now
        rates = self._solve(flows)
        for flow in flows:
            rate = rates[flow]
            flow.rate = rate
            finish_at = now + flow.bytes_remaining / rate
            if flow.event is not None and not flow.event.cancelled:
                slack = 1e-9 * max(1.0, finish_at - now)
                if abs(flow.event.time - finish_at) <= slack:
                    continue
                flow.event.cancel()
            flow.event = self.sim.at(
                finish_at, lambda f=flow: self._finish(f), name="flow"
            )


def _replay_random_scenario(engine_cls, seed: int):
    """Drive an engine through a random submit schedule; return the
    completion log [(time, tag), ...]."""
    rng = random.Random(seed)
    sim = Simulator()
    engine = engine_cls(sim)
    resources = [
        Resource(f"r{i}", rng.uniform(50.0, 500.0)) for i in range(6)
    ]
    log = []
    for i in range(60):
        links = [
            (r, rng.choice(SCENARIO_WEIGHTS[1:]))
            for r in rng.sample(resources, rng.randint(1, 3))
        ]
        size = rng.uniform(100.0, 5000.0)
        latency = rng.choice([0.0, 0.0, rng.uniform(0.01, 1.0)])
        start = rng.uniform(0.0, 30.0)
        sim.at(
            start,
            lambda s=size, ln=links, la=latency, i=i: engine.submit(
                s, ln, lambda t=i: log.append((sim.now(), t)), latency=la
            ),
        )
    sim.run()
    assert engine.active_flows == 0
    return log


class TestEngineIncrementalEquivalence:
    """Registry walk + dirty-component solve + fast paths must replay
    random flow graphs bit-identically to the brute-force engine."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_completion_log_identical_to_brute_force(self, seed):
        fast = _replay_random_scenario(FairShareEngine, seed)
        brute = _replay_random_scenario(_BruteForceEngine, seed)
        assert fast == brute  # same completion times AND order, exactly

    def test_forced_vectorized_engine_is_deterministic(self):
        class VectorEngine(FairShareEngine):
            vector_threshold = 0  # vectorize every component

        for seed in range(5):
            a = _replay_random_scenario(VectorEngine, seed)
            b = _replay_random_scenario(VectorEngine, seed)
            assert a == b
            # Same completion set as the scalar engine, times equal up
            # to float noise between the two summation orders.
            scalar = _replay_random_scenario(FairShareEngine, seed)
            assert [tag for _, tag in sorted(a, key=lambda e: e[1])] == [
                tag for _, tag in sorted(scalar, key=lambda e: e[1])
            ]
            for (ta, _), (ts, _) in zip(
                sorted(a, key=lambda e: e[1]), sorted(scalar, key=lambda e: e[1])
            ):
                assert ta == pytest.approx(ts, rel=1e-6)


def _rate_bits(rates, flows):
    """Rates in ``flows`` order, bit for bit."""
    return [rates[flow].hex() for flow in flows]


class _WalkCheckingEngine(FairShareEngine):
    """The production engine, checking each component walk as it runs.

    Every walk must emit the historical sweep's order, and the rates
    solved over it must be bit for bit those of the reference solver.
    """

    def __init__(self, sim):
        super().__init__(sim)
        #: ``(seed flow_id, emitted flow_ids)`` per general walk.
        self.walks = []

    def _walk(self, seed, now):
        expected = _BruteForceEngine._component_of(self, seed)
        flows = super()._walk(seed, now)
        assert flows == expected
        self.walks.append((seed.flow_id, [flow.flow_id for flow in flows]))
        return flows

    def _solve(self, flows):
        rates = super()._solve(flows)
        reference = compute_max_min_rates_reference(flows)
        assert _rate_bits(rates, flows) == _rate_bits(reference, flows)
        return rates


def _replay_registry_scenario(engine_cls, seed: int):
    """Random registries: links drawn with replacement (duplicate links),
    every scenario weight, and latencies that admit flows out of id
    order.  Returns the engine and its completion log."""
    rng = random.Random(seed)
    sim = Simulator()
    engine = engine_cls(sim)
    resources = [
        Resource(f"r{i}", rng.uniform(50.0, 500.0))
        for i in range(rng.randint(2, 7))
    ]
    log = []
    for i in range(rng.randint(5, 50)):
        links = [
            (rng.choice(resources), rng.choice(SCENARIO_WEIGHTS))
            for _ in range(rng.randint(1, 4))
        ]
        size = rng.uniform(100.0, 5000.0)
        latency = rng.choice([0.0, rng.uniform(0.01, 3.0)])
        start = rng.uniform(0.0, 20.0)
        sim.at(
            start,
            lambda s=size, ln=links, la=latency, i=i: engine.submit(
                s, ln, lambda t=i: log.append((sim.now(), t)), latency=la
            ),
        )
    sim.run()
    assert engine.active_flows == 0
    return engine, log


class TestComponentWalk:
    """The one-pass walk against the historical sweep and the solvers."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_walk_matches_sweep_and_reference(self, seed):
        engine, log = _replay_registry_scenario(_WalkCheckingEngine, seed)
        _, brute = _replay_registry_scenario(_BruteForceEngine, seed)
        assert log == brute

    def test_random_registries_reach_the_walk(self):
        walked = 0
        for seed in range(10):
            engine, _ = _replay_registry_scenario(_WalkCheckingEngine, seed)
            walked += sum(len(flows) > 1 for _, flows in engine.walks)
        assert walked > 0

    def _engine_with(self, *links_by_flow):
        sim = Simulator()
        engine = _WalkCheckingEngine(sim)
        flows = [
            engine.submit(size, links, lambda: None)
            for size, links in links_by_flow
        ]
        return sim, engine, flows

    def test_finishing_seed_with_one_neighbour_reaches_its_chain(self):
        # The finishing flow's only resource holds one other flow, whose
        # other link reaches two more: the walk is not a one-flow
        # component.
        r0, r1, r2 = (Resource(f"r{i}", 100.0) for i in range(3))
        sim, engine, (seed, x, y, z) = self._engine_with(
            (10.0, [(r0, 1.0)]),
            (1000.0, [(r0, 1.0), (r1, 1.0)]),
            (1000.0, [(r1, 1.0)]),
            (1000.0, [(r1, 1.0), (r2, 1.0)]),
        )
        sim.run()
        assert (seed.flow_id, [x.flow_id, y.flow_id, z.flow_id]) in engine.walks

    def test_flow_found_behind_the_cursor_waits_for_the_next_pass(self):
        r0, r1 = Resource("r0", 100.0), Resource("r1", 100.0)
        sim = Simulator()
        engine = _WalkCheckingEngine(sim)
        a = engine.submit(1000.0, [(r1, 1.0)], lambda: None)
        b = engine.submit(1000.0, [(r0, 1.0), (r1, 2.0)], lambda: None)
        seed = engine.submit(1000.0, [(r0, 1.5)], lambda: None)
        # From r0 the sweep takes b, then the seed; a (admitted first)
        # only becomes reachable through b, behind the cursor.
        assert engine.walks[-1] == (seed.flow_id, [b.flow_id, seed.flow_id, a.flow_id])
        sim.run()
        assert engine.active_flows == 0


class TestSolverExamples:
    """Hand-checkable allocations."""

    def test_equal_split_single_resource(self):
        r = Resource("dev", 100.0)
        flows = [Flow(i, 1000, [(r, 1.0)], lambda: None) for i in range(4)]
        rates = compute_max_min_rates(flows)
        assert all(rate == pytest.approx(25.0) for rate in rates.values())

    def test_weighted_write_consumes_more(self):
        # capacity 100 (read); a write with weight 2 (write_bw = 50).
        r = Resource("dev", 100.0)
        read = Flow(1, 1000, [(r, 1.0)], lambda: None)
        write = Flow(2, 1000, [(r, 2.0)], lambda: None)
        rates = compute_max_min_rates([read, write])
        # Progressive filling: both freeze when 1*x + 2*x = 100.
        assert rates[read] == pytest.approx(100.0 / 3)
        assert rates[write] == pytest.approx(100.0 / 3)

    def test_unbottlenecked_flow_takes_leftover(self):
        narrow = Resource("narrow", 10.0)
        wide = Resource("wide", 100.0)
        constrained = Flow(1, 1000, [(narrow, 1.0), (wide, 1.0)], lambda: None)
        free = Flow(2, 1000, [(wide, 1.0)], lambda: None)
        rates = compute_max_min_rates([constrained, free])
        assert rates[constrained] == pytest.approx(10.0)
        assert rates[free] == pytest.approx(90.0)

    def test_empty(self):
        assert compute_max_min_rates([]) == {}


class TestFairShareEngine:
    """Event-driven behaviour: re-pricing and rescheduling."""

    def test_single_flow_runs_at_full_rate(self):
        sim = Simulator()
        engine = FairShareEngine(sim)
        r = Resource("dev", 100.0)
        done = []
        engine.submit(1000.0, [(r, 1.0)], lambda: done.append(sim.now()))
        sim.run()
        assert done == [pytest.approx(10.0)]

    def test_joining_flow_slows_the_first(self):
        """A flow that starts alone must NOT keep its initial price.

        First flow: 1000 bytes at 100 B/s.  At t=5 a second identical
        flow joins; both then run at 50 B/s.  First finishes at
        5 + 500/50 = 15 (snapshot pricing would have said 10).
        """
        sim = Simulator()
        engine = FairShareEngine(sim)
        r = Resource("dev", 100.0)
        done = {}
        engine.submit(1000.0, [(r, 1.0)], lambda: done.setdefault("a", sim.now()))
        sim.at(5.0, lambda: engine.submit(
            1000.0, [(r, 1.0)], lambda: done.setdefault("b", sim.now())
        ))
        sim.run()
        assert done["a"] == pytest.approx(15.0)
        # b: 500 bytes at 50 B/s until t=15, then 500 at 100 B/s -> t=20.
        assert done["b"] == pytest.approx(20.0)
        assert engine.active_flows == 0

    def test_completion_speeds_up_survivors(self):
        sim = Simulator()
        engine = FairShareEngine(sim)
        r = Resource("dev", 100.0)
        done = {}
        engine.submit(500.0, [(r, 1.0)], lambda: done.setdefault("small", sim.now()))
        engine.submit(1500.0, [(r, 1.0)], lambda: done.setdefault("big", sim.now()))
        sim.run()
        # Both at 50 B/s; small done at t=10.  Big then has 1000 bytes
        # left at 100 B/s -> t=20 (not the 30 its start price implied).
        assert done["small"] == pytest.approx(10.0)
        assert done["big"] == pytest.approx(20.0)

    def test_latency_defers_contention(self):
        sim = Simulator()
        engine = FairShareEngine(sim)
        r = Resource("dev", 100.0)
        done = []
        engine.submit(1000.0, [(r, 1.0)], lambda: done.append(sim.now()), latency=2.0)
        assert engine.active_flows == 0  # still seeking
        sim.run()
        assert done == [pytest.approx(12.0)]

    def test_zero_byte_flow_completes_after_latency(self):
        sim = Simulator()
        engine = FairShareEngine(sim)
        r = Resource("dev", 100.0)
        done = []
        engine.submit(0.0, [(r, 1.0)], lambda: done.append(sim.now()), latency=0.5)
        sim.run()
        assert done == [pytest.approx(0.5)]
        assert engine.active_flows == 0

    def test_completion_order_deterministic_under_seed(self):
        def run_once(seed: int):
            sim = Simulator()
            engine = FairShareEngine(sim)
            rng = random.Random(seed)
            resources = [Resource(f"r{i}", rng.uniform(50, 500)) for i in range(4)]
            order = []
            for i in range(30):
                links = [
                    (r, rng.choice([1.0, 2.0]))
                    for r in rng.sample(resources, rng.randint(1, 3))
                ]
                size = rng.uniform(100, 5000)
                start = rng.uniform(0, 20)
                sim.at(
                    start,
                    lambda s=size, ln=links, i=i: engine.submit(
                        s, ln, lambda i=i: order.append(i)
                    ),
                )
            sim.run()
            assert engine.active_flows == 0
            return order

        for seed in range(10):
            assert run_once(seed) == run_once(seed)

    def test_contention_stats_accumulate(self):
        sim = Simulator()
        engine = FairShareEngine(sim)
        r = Resource("dev", 100.0)
        engine.submit(1000.0, [(r, 1.0)], lambda: None)
        engine.submit(1000.0, [(r, 1.0)], lambda: None)
        sim.run()
        assert engine.flows_completed == 2
        assert engine.peak_concurrency == 2
        # Each flow alone would take 10s; together they take 20s each.
        assert engine.ideal_seconds == pytest.approx(20.0)
        assert engine.realized_seconds == pytest.approx(40.0)
        assert engine.contention_seconds == pytest.approx(20.0)
