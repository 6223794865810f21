"""Flow-based fair bandwidth sharing for the I/O engine.

The snapshot model in :mod:`repro.engine.iomodel` prices an operation
once, when it starts, from the stream counts at that instant; a flow
that starts alone keeps its full bandwidth even if fifty streams join a
tick later.  This module provides the *re-pricing* alternative: every
read, write, or tier transfer becomes a :class:`Flow` with a byte count
remaining and a set of :class:`Resource` links (device bandwidth,
per-node NICs, shared endpoints), and whenever any flow starts or
finishes the engine recomputes weighted max-min fair rates on the
touched resources and reschedules the in-flight completion events via
``Event.cancel()``.

Rates are expressed in flow bytes/second; a link carries a *weight*
giving the resource units one flow byte/second consumes.  A device is
one resource with ``capacity = read_bw``: reads link with weight 1 and
writes with weight ``read_bw / write_bw``, so a lone write still streams
at ``write_bw`` while concurrent reads and writes contend for the same
medium.

Scaling design.  A flow start/finish can only change rates inside the
connected component of resources it touches (anything disjoint keeps
its max-min allocation by definition), so the engine keeps *persistent
per-resource flow registries* and re-prices just that dirty component.
One walk finds, orders and drains the component: a min-heap of
``(admit_seq, flow)`` grows from the touched resources' registries and
emits the component in the historical sweep order (repeated passes in
admission order, the reachable resources growing mid-pass), draining
each emitted flow to the current instant.  The progressive filling
(:func:`compute_max_min_rates`) indexes that order once (resources in
first-seen order, per-resource users and weights, left-to-right weight
folds), caches per-resource weight sums, and
refreshes only the resources whose bottleneck structure changed when
flows froze; components at or above ``FairShareEngine.vector_threshold``
flows switch to a numpy-vectorized filling
(:func:`compute_max_min_rates_vectorized`).  A flow's completion
callback, event name and standalone rate are built once, not per
reschedule.
The scalar path is arithmetic-for-arithmetic identical to the naive
from-scratch solver (:func:`compute_max_min_rates_reference`) over the
historical component order, which is what keeps runs below the
threshold bit-identical to the pre-registry engine.  The vectorized path
sums in numpy's order instead, and ordinary runs reach it.  FB
fair-share runs under LRU+OSA on 11 workers peak at 98 flows at full
scale and seed 42, but at 192 at seed 7 (125 vector solves) and 224 at
seed 5150 (542); at 3x scale and seed 42 they peak at 280 flows with
2,457 vector solves.  Each of these runs gave the same hit ratio and
task seconds with the vectorized path turned off.
"""

from __future__ import annotations

import functools
import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.floats import fold_sum
from repro.sim.simulator import Event, Simulator

#: Relative slack used to decide that a resource is saturated during the
#: progressive-filling computation (guards float residue only).
_SATURATION_SLACK = 1e-9


class Resource:
    """One capacity-bearing element of the I/O graph.

    Examples: a storage device, a node's NIC, the shared network
    endpoint in front of a remote cold store, a rack uplink.
    """

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError(f"resource {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name}, {self.capacity:.0f} B/s)"


class Flow:
    """One in-flight transfer traversing a set of resources."""

    __slots__ = (
        "flow_id",
        "name",
        "bytes_remaining",
        "links",
        "on_complete",
        "rate",
        "last_update",
        "event",
        "submitted_at",
        "ideal_duration",
        "admit_seq",
        "dup_links",
        "link_names",
        "standalone_rate",
        "finish_callback",
        "event_name",
    )

    def __init__(
        self,
        flow_id: int,
        size: float,
        links: Sequence[Tuple[Resource, float]],
        on_complete: Callable[[], None],
        name: str = "",
    ) -> None:
        if not links:
            raise ValueError("a flow needs at least one resource link")
        self.flow_id = flow_id
        self.name = name
        self.bytes_remaining = float(size)
        self.links: Tuple[Tuple[Resource, float], ...] = tuple(links)
        self.on_complete = on_complete
        self.rate = 0.0
        self.last_update = 0.0
        self.event: Optional[Event] = None
        self.submitted_at = 0.0
        self.ideal_duration = 0.0
        #: Admission order (latency can reorder relative to flow_id).
        self.admit_seq = 0
        #: Resource names in link order (cached for the component walk).
        self.link_names: Tuple[str, ...] = tuple(r.name for r, _ in self.links)
        #: Whether two links name the same resource (their weights then
        #: add up in the solver, so shortcuts assuming one weight per
        #: resource do not apply).
        self.dup_links = len(set(self.link_names)) < len(self.link_names)
        #: The rate this flow would get with the graph to itself.
        self.standalone_rate = min(r.capacity / w for r, w in self.links)
        #: Completion callback and event name, built once at admission.
        self.finish_callback: Optional[Callable[[], None]] = None
        self.event_name = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flow({self.flow_id}, {self.name}, {self.bytes_remaining:.0f}B left)"


def compute_max_min_rates_reference(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """From-scratch weighted max-min progressive filling (reference).

    All flows' rates rise together from zero; when a resource saturates
    (sum of ``rate * weight`` over its flows reaches capacity), the flows
    crossing it freeze at the current level and the rest keep rising.
    The result is work-conserving — every flow is bottlenecked by at
    least one saturated resource — and deterministic: resources are
    visited in first-seen order over the given flow sequence.

    This is the naive O(rounds x resources x flows) formulation kept as
    the oracle for :func:`compute_max_min_rates` (same arithmetic, fewer
    rescans) and :func:`compute_max_min_rates_vectorized`.
    """
    if not flows:
        return {}
    remaining: Dict[Resource, float] = {}
    users: Dict[Resource, List[Tuple[Flow, float]]] = {}
    order: List[Resource] = []
    for flow in flows:
        for resource, weight in flow.links:
            if resource not in remaining:
                remaining[resource] = resource.capacity
                users[resource] = []
                order.append(resource)
            users[resource].append((flow, weight))
    rates: Dict[Flow, float] = {}
    unfixed = set(flows)
    level = 0.0
    while unfixed:
        best_level: Optional[float] = None
        best_resource: Optional[Resource] = None
        for resource in order:
            weight_sum = fold_sum(w for f, w in users[resource] if f in unfixed)
            if weight_sum <= 0.0:
                continue
            candidate = level + max(remaining[resource], 0.0) / weight_sum
            if best_level is None or candidate < best_level:
                best_level, best_resource = candidate, resource
        if best_resource is None:
            # Every remaining flow only crosses already-saturated
            # resources; cannot happen with positive weights, but guard
            # against an infinite loop anyway.
            for flow in unfixed:  # pragma: no cover - defensive
                rates[flow] = level
            break
        delta = best_level - level
        for resource in order:
            weight_sum = fold_sum(w for f, w in users[resource] if f in unfixed)
            if weight_sum > 0.0:
                remaining[resource] -= delta * weight_sum
        remaining[best_resource] = 0.0  # kill float residue at the bottleneck
        level = best_level
        newly_fixed = [
            flow
            for flow in flows
            if flow in unfixed
            and any(
                remaining[r] <= _SATURATION_SLACK * r.capacity for r, _ in flow.links
            )
        ]
        for flow in newly_fixed:
            rates[flow] = level
            unfixed.discard(flow)
    return rates


def compute_max_min_rates(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Weighted max-min fair rates for ``flows`` (progressive filling).

    Bit-identical to :func:`compute_max_min_rates_reference` but with
    dirty-set weight-sum tracking: a resource's weight sum over unfixed
    flows only changes when one of *its* flows froze in the previous
    round, so it is cached and re-folded — with the exact same
    left-to-right summation the reference performs — only for resources
    whose bottleneck structure changed.  Likewise only flows crossing a
    resource that saturated *this* round can freeze (any resource that
    saturated earlier already froze all of its flows), so the freeze
    scan visits saturated resources' users instead of every flow.  A
    saturated resource has no unfixed flow left once they froze, so it
    takes the empty fold, 0.0, without a rescan.
    """
    if not flows:
        return {}
    num_flows = len(flows)
    # Index resources in first-seen order over the flow sequence — the
    # same visiting order the reference derives from its dict insertion.
    res_index: Dict[Resource, int] = {}
    remaining: List[float] = []
    threshold: List[float] = []
    users: List[List[Tuple[int, float]]] = []  # per resource: (position, weight)
    flow_resources: List[List[int]] = []  # per flow: resource indices
    # Cached per-resource weight sums over unfixed flows.  The initial
    # fold (accumulated here, in link order) and every dirty refresh use
    # the reference's exact left-to-right summation (``fold_sum``, never
    # a compensated ``sum()``), so each cached value equals what a fresh
    # rescan would produce, on any Python version.
    weight_sums: List[float] = []
    for pos, flow in enumerate(flows):
        indices: List[int] = []
        for resource, weight in flow.links:
            i = res_index.get(resource)
            if i is None:
                i = res_index[resource] = len(remaining)
                remaining.append(resource.capacity)
                threshold.append(_SATURATION_SLACK * resource.capacity)
                users.append([])
                weight_sums.append(0.0)
            users[i].append((pos, weight))
            weight_sums[i] += weight
            indices.append(i)
        flow_resources.append(indices)
    num_res = len(remaining)
    unfixed = [True] * num_flows
    unfixed_count = num_flows
    rate_of = [0.0] * num_flows
    level = 0.0
    while unfixed_count:
        best_level: Optional[float] = None
        best = -1
        for i in range(num_res):
            weight_sum = weight_sums[i]
            if weight_sum <= 0.0:
                continue
            rem = remaining[i]
            candidate = level + (rem if rem > 0.0 else 0.0) / weight_sum
            if best_level is None or candidate < best_level:
                best_level, best = candidate, i
        if best < 0:
            for pos in range(num_flows):  # pragma: no cover - defensive
                if unfixed[pos]:
                    rate_of[pos] = level
            break
        delta = best_level - level
        saturated: List[int] = []
        for i in range(num_res):
            weight_sum = weight_sums[i]
            if weight_sum > 0.0:
                rem = remaining[i] - delta * weight_sum
                remaining[i] = rem
                if i != best and rem <= threshold[i]:
                    saturated.append(i)
        remaining[best] = 0.0  # kill float residue at the bottleneck
        saturated.append(best)
        level = best_level
        dirty = set()
        for i in saturated:
            for pos, _ in users[i]:
                if unfixed[pos]:
                    unfixed[pos] = False
                    unfixed_count -= 1
                    rate_of[pos] = level
                    dirty.update(flow_resources[pos])
            # Every flow crossing a saturated resource is fixed now, and
            # the fold of no weights is 0.0.
            weight_sums[i] = 0.0
        dirty.difference_update(saturated)
        for i in dirty:
            total = 0.0
            for pos, weight in users[i]:
                if unfixed[pos]:
                    total += weight
            weight_sums[i] = total
    return {flow: rate_of[pos] for pos, flow in enumerate(flows)}


def compute_max_min_rates_vectorized(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Max-min progressive filling over a dense numpy weight matrix.

    Used for large connected components, where the per-round python
    loops of the scalar solver dominate: each filling round becomes a
    handful of vectorized array operations over the (flows x resources)
    weight matrix.  Deterministic (``argmin`` keeps the reference's
    first-seen tie-break) and max-min fair, but its summation order
    differs from the scalar path, so rates can differ in the last few
    ulps — which is why the engine only routes components the reference
    workloads never produce through it.
    """
    if not flows:
        return {}
    res_index: Dict[str, int] = {}
    capacities: List[float] = []
    for flow in flows:
        for resource, _ in flow.links:
            if resource.name not in res_index:
                res_index[resource.name] = len(capacities)
                capacities.append(resource.capacity)
    num_flows = len(flows)
    num_res = len(capacities)
    weights = np.zeros((num_flows, num_res))
    for i, flow in enumerate(flows):
        for resource, weight in flow.links:
            j = res_index[resource.name]
            # Parallel links to one resource: the reference folds every
            # (flow, weight) pair into the sum, i.e. weights add up.
            weights[i, j] += weight
    capacity = np.asarray(capacities)
    threshold = _SATURATION_SLACK * capacity
    crosses = weights > 0.0
    remaining = capacity.copy()
    unfixed = np.ones(num_flows, dtype=bool)
    rates = np.zeros(num_flows)
    level = 0.0
    while unfixed.any():
        weight_sum = unfixed.astype(float) @ weights
        active = weight_sum > 0.0
        if not active.any():  # pragma: no cover - defensive (mirrors scalar)
            rates[unfixed] = level
            break
        candidate = np.full(num_res, np.inf)
        candidate[active] = (
            level + np.maximum(remaining[active], 0.0) / weight_sum[active]
        )
        best = int(np.argmin(candidate))  # first minimum == first-seen order
        best_level = float(candidate[best])
        delta = best_level - level
        remaining[active] -= delta * weight_sum[active]
        remaining[best] = 0.0
        level = best_level
        saturated = active & (remaining <= threshold)
        saturated[best] = True
        newly = unfixed & crosses[:, saturated].any(axis=1)
        rates[newly] = level
        unfixed &= ~newly
    return {flow: float(rates[i]) for i, flow in enumerate(flows)}


class FairShareEngine:
    """Tracks active flows and keeps their completion events re-priced.

    Every admission and completion triggers a re-solve of the max-min
    rates over the affected connected component; flows whose completion
    time changed get their pending :class:`Event` cancelled and a fresh
    one scheduled.  Flows are stored in admission order, which (together
    with the simulator's FIFO tie-break) makes completion order fully
    deterministic.

    The engine keeps a persistent registry of active flows per resource
    so the dirty component is discovered by walking the resource graph
    (O(component) work) rather than scanning every active flow.
    """

    #: Component size at which re-solving switches to the vectorized
    #: filling.  Full-scale FB crosses it at some seeds (max component
    #: 192 at seed 7, 98 at seed 42) and 3x FB at seed 42 peaks at 280
    #: flows; see the module docstring.  Lowering it does not pay: at
    #: 10x FB scale, 32 tripled the vector solves and ran ~7% slower
    #: end to end.
    vector_threshold = 128

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._flows: Dict[int, Flow] = {}
        self._ids = itertools.count(1)
        self._admit_seq = itertools.count(1)
        #: Resource name -> admission-ordered {flow_id: flow} registry of
        #: the active flows crossing it.
        self._users: Dict[str, Dict[int, Flow]] = {}
        # -- cumulative statistics (consumed by benchmarks) -----------------
        self.flows_started = 0
        self.flows_completed = 0
        self.recomputes = 0
        self.peak_concurrency = 0
        self.max_component = 0
        self.vector_solves = 0
        self.events_rescheduled = 0
        #: Realized flow durations vs what each flow would have taken
        #: alone on the graph; the difference is pure contention delay.
        self.realized_seconds = 0.0
        self.ideal_seconds = 0.0

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        size: float,
        links: Sequence[Tuple[Resource, float]],
        on_complete: Callable[[], None],
        latency: float = 0.0,
        name: str = "flow",
    ) -> Flow:
        """Start a flow of ``size`` bytes across ``links``.

        ``latency`` models the fixed per-request cost (seeks, round
        trips): the flow occupies no bandwidth until it elapses.
        ``on_complete`` fires when the last byte drains.
        """
        flow = Flow(next(self._ids), size, links, on_complete, name=name)
        flow.submitted_at = self.sim.now()
        flow.ideal_duration = latency + (
            size / flow.standalone_rate if size > 0 else 0.0
        )
        if size <= 0:
            self.sim.after(latency, on_complete, name=f"{name}-empty")
            return flow
        if latency > 0:
            self.sim.after(latency, lambda: self._admit(flow), name=f"{name}-admit")
        else:
            self._admit(flow)
        return flow

    def _admit(self, flow: Flow) -> None:
        flow.admit_seq = next(self._admit_seq)
        flow.finish_callback = functools.partial(self._finish, flow)
        flow.event_name = f"flow-{flow.flow_id}-{flow.name}"
        self._flows[flow.flow_id] = flow
        for resource, _ in flow.links:
            registry = self._users.get(resource.name)
            if registry is None:
                registry = self._users[resource.name] = {}
            registry[flow.flow_id] = flow
        flow.last_update = self.sim.now()
        self.flows_started += 1
        if len(self._flows) > self.peak_concurrency:
            self.peak_concurrency = len(self._flows)
        self._recompute(flow)

    # -- re-pricing ----------------------------------------------------------
    def _walk(self, seed: Flow, now: float) -> List[Flow]:
        """The active flows transitively sharing a resource with ``seed``,
        drained to ``now``.

        Flows outside this connected component share no resource with
        the starting/finishing flow (directly or through chains), so
        their max-min rates are mathematically unchanged — re-solving
        only the component keeps recomputes local to the touched part
        of the graph.

        The emitted order is the historical candidate sweep's: repeated
        passes over the active flows in admission order, where a flow
        joins when it crosses a reachable resource and its resources
        become reachable at once, mid-pass.  The solver's resource
        first-seen order and the completion events' scheduling order
        both depend on it.  A min-heap of ``(admit_seq, flow)`` holds the
        flows discovered on reachable resources; one discovered behind
        the pass cursor (the last emitted ``admit_seq``) waits for the
        next pass, exactly as the sweep would only reach it then.  The
        walk ends with a pass that leaves nobody waiting.
        """
        users = self._users
        component: List[Flow] = []
        reachable = set(seed.link_names)
        seen = set()
        heap = []
        for name in reachable:
            for flow_id, flow in users[name].items():
                if flow_id not in seen:
                    seen.add(flow_id)
                    heap.append((flow.admit_seq, flow))
        heapify(heap)
        waiting: List[Tuple[int, Flow]] = []
        while heap:
            cursor = 0
            while heap:
                cursor, flow = heappop(heap)
                elapsed = now - flow.last_update
                if elapsed > 0.0 and flow.rate > 0.0:
                    # max(0.0, left) without the builtin call.
                    left = flow.bytes_remaining - flow.rate * elapsed
                    flow.bytes_remaining = left if left > 0.0 else 0.0
                flow.last_update = now
                component.append(flow)
                for name in flow.link_names:
                    if name in reachable:
                        continue
                    reachable.add(name)
                    for flow_id, other in users[name].items():
                        if flow_id in seen:
                            continue
                        seen.add(flow_id)
                        if other.admit_seq < cursor:
                            waiting.append((other.admit_seq, other))
                        else:
                            heappush(heap, (other.admit_seq, other))
            if waiting:
                heap = waiting
                heapify(heap)
                waiting = []
        return component

    def _solve(self, flows: List[Flow]) -> Dict[Flow, float]:
        if len(flows) >= self.vector_threshold:
            self.vector_solves += 1
            return compute_max_min_rates_vectorized(flows)
        return compute_max_min_rates(flows)

    def _recompute(self, seed: Flow) -> None:
        """Drain elapsed bytes, re-solve rates, reschedule completions.

        Only the connected component of resources touched by ``seed``
        is re-solved; disjoint flows keep their rate and their pending
        completion event untouched.
        """
        now = self.sim.now()
        self.recomputes += 1
        users = self._users
        # Fast paths for the two dominant event shapes (an isolated flow
        # starting, any flow finishing with its resources now idle):
        # both have a trivially known component, so the walk and the
        # solver are skipped entirely.  Arithmetic is identical to the
        # general path on the same component.
        if seed.flow_id not in self._flows:
            # seed just finished and was deregistered; empty registries
            # mean an empty component — nothing to re-price.
            for name in seed.link_names:
                if users[name]:
                    break
            else:
                return
        elif not seed.dup_links and all(
            len(users[name]) == 1 for name in seed.link_names
        ):
            # seed just started on all-idle resources: it is the whole
            # component and gets its standalone rate.
            if self.max_component < 1:
                self.max_component = 1
            seed.last_update = now
            rate = seed.standalone_rate
            seed.rate = rate
            self.events_rescheduled += 1
            seed.event = self.sim.at(
                now + seed.bytes_remaining / rate,
                seed.finish_callback,
                name=seed.event_name,
            )
            return
        flows = self._walk(seed, now)
        if len(flows) > self.max_component:
            self.max_component = len(flows)
        rates = self._solve(flows)
        for flow in flows:
            rate = rates[flow]
            flow.rate = rate
            finish_at = now + flow.bytes_remaining / rate
            if flow.event is not None and not flow.event.cancelled:
                # Re-deriving an unchanged completion time rarely
                # reproduces the old timestamp bit-for-bit; within this
                # slack the pending event is still correct, and keeping
                # it avoids churning the heap with cancel/re-push pairs
                # for flows whose rate did not really change.
                slack = _SATURATION_SLACK * max(1.0, finish_at - now)
                if abs(flow.event.time - finish_at) <= slack:
                    continue
                flow.event.cancel()
            self.events_rescheduled += 1
            flow.event = self.sim.at(
                finish_at, flow.finish_callback, name=flow.event_name
            )

    def _finish(self, flow: Flow) -> None:
        if flow.flow_id not in self._flows:  # pragma: no cover - defensive
            return
        del self._flows[flow.flow_id]
        for resource, _ in flow.links:
            registry = self._users.get(resource.name)
            if registry is not None:
                registry.pop(flow.flow_id, None)
        flow.bytes_remaining = 0.0
        # Drop the flow's references to itself (event -> callback -> flow)
        # so a finished flow is freed by refcount, not the cyclic GC.
        flow.event = None
        flow.finish_callback = None
        self.flows_completed += 1
        self.realized_seconds += self.sim.now() - flow.submitted_at
        self.ideal_seconds += flow.ideal_duration
        self._recompute(flow)
        flow.on_complete()

    # -- introspection -------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Flows admitted and not yet finished."""
        return len(self._flows)

    def flows_crossing(self, resource: Resource) -> int:
        """Number of active flows linked to ``resource``."""
        registry = self._users.get(resource.name)
        return len(registry) if registry else 0

    @property
    def contention_seconds(self) -> float:
        """Aggregate completion delay attributable to sharing."""
        return max(0.0, self.realized_seconds - self.ideal_seconds)
