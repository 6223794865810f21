"""Composition algebra over registered scenarios.

The scenario registry (:mod:`repro.workload.scenarios`) names individual
load shapes; real clusters run *mixtures* — a flash crowd landing on top
of a training scan, a day of diurnal traffic followed by a batch
backfill, the same tenant workload replayed at double speed.  This
module closes the stream protocol under five combinators, each
producing a lazy, seeded :class:`~repro.workload.streams.WorkloadStream`:

``overlay(*streams)``
    Merge concurrent streams into one timeline (via
    :func:`~repro.workload.streams.merge_timed_sources`).  By default
    every source is *namespace-isolated* under a tenant prefix
    (``/t0``, ``/t1``, ...) so overlaid scenarios can never collide on a
    file path — two sources deleting and re-creating the same path at
    the same timestamp would otherwise be forced through the global
    creations-before-deletions tie rule, silently inverting the
    intended delete→create order (see ``tests/test_compose.py``).
``concat(*streams)``
    Sequential composition: each source is clipped to its nominal
    duration and shifted to start where the previous one ended (plus an
    optional ``gap``), with the same per-source namespace isolation.
``timescale(stream, k)``
    Stretch (``k`` > 1) or compress (``k`` < 1) the arrival timeline by
    multiplying every event time by ``k``.  ``timescale(stream, 1)`` is
    the identity.
``tenant_tag(stream, prefix)``
    Rewrite every file path (inputs, outputs, creations, deletions)
    under ``prefix`` — the building block of multi-tenant composition
    and per-tenant metric attribution (see :mod:`repro.workload.fuzz`).
``take(stream, n)`` / ``until(stream, t)``
    Windowing: the first ``n`` events, or every event at or before
    simulated time ``t``.

Every combinator is **lazy** (transforms are applied per event as the
composed stream is pulled, so memory stays O(active sources), never
O(events)) and **closed** (the result is a stream: compositions nest).
Jobs are renumbered in merged order at every composition level, and the
ordering guard of the stream protocol is enforced on the output.

Compositions also **round-trip through a declarative JSON spec** — the
same algebra as data::

    {"op": "overlay", "sources": [
        {"op": "scenario", "name": "flashcrowd", "seed": 1},
        {"op": "timescale", "factor": 2.0,
         "source": {"op": "scenario", "name": "mlscan"}}]}

:func:`parse_spec` accepts a dict, JSON text, or a file path;
:func:`canonical_spec` normalizes a spec (defaults filled, parameter
values coerced, identity ``timescale`` collapsed) so that equal
workloads hash equally — the sweep subsystem content-addresses
composite cells by the canonical form.  :func:`build_compose` turns a
spec into the stream; ``repro scenario run compose --spec SPEC`` is the
CLI entry point, and frozen regression scenarios under
``tests/regression_scenarios/`` are exactly these specs plus the
pathology metric they pin.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.common.floats import fold_sum
from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    OutputSpec,
    StreamEvent,
    TraceJob,
    event_time,
)
from repro.workload.streams import (
    WorkloadStream,
    clip,
    merge_timed_sources,
    number_jobs,
    ordered,
)

#: Every operator a composition spec may use (the algebra's signature).
COMPOSE_OPS = (
    "scenario",
    "overlay",
    "concat",
    "timescale",
    "tenant_tag",
    "take",
    "until",
)


class ComposeSpecError(ValueError):
    """A composition spec is malformed (unknown op, bad field, ...)."""


# -- per-event transforms (lazy, copying) ------------------------------------
def _rewrite(
    event: StreamEvent,
    prefix: str = "",
    offset: float = 0.0,
    factor: float = 1.0,
) -> StreamEvent:
    """A fresh copy of ``event`` with paths prefixed and times mapped.

    The time map is ``t -> t * factor + offset``.  Jobs come back with
    ``job_id=-1`` so the composed stream renumbers them in merged order
    (sources arrive pre-numbered; composition defines a new order).
    Copying also keeps re-iteration deterministic: mutable ``TraceJob``
    objects are never shared between the source and the composition.
    """
    if isinstance(event, FileCreation):
        return FileCreation(prefix + event.path, event.size, event.time * factor + offset)
    if isinstance(event, FileDeletion):
        return FileDeletion(prefix + event.path, event.time * factor + offset)
    return TraceJob(
        job_id=-1,
        submit_time=event.submit_time * factor + offset,
        input_paths=[prefix + p for p in event.input_paths],
        input_size=event.input_size,
        outputs=[OutputSpec(prefix + o.path, o.size) for o in event.outputs],
        cpu_seconds_per_byte=event.cpu_seconds_per_byte,
    )


def _transformed(
    events: Iterable[StreamEvent],
    prefix: str = "",
    offset: float = 0.0,
    factor: float = 1.0,
) -> Iterator[StreamEvent]:
    """Lazily apply :func:`_rewrite` to every event."""
    for event in events:
        yield _rewrite(event, prefix=prefix, offset=offset, factor=factor)


class ComposedStream(WorkloadStream):
    """A stream produced by the composition algebra.

    Wraps a factory returning the composed (already transformed) event
    iterator; the standard numbering/ordering guards run on top, exactly
    as for :class:`~repro.workload.streams.GeneratedStream`.  ``spec``
    is the canonical declarative form this stream round-trips through.
    """

    def __init__(self, name: str, duration: float, factory, spec: Dict[str, Any]):
        self.name = name
        self.duration = duration
        self._factory = factory
        self.spec = spec

    def events(self) -> Iterator[StreamEvent]:
        """The composed event sequence (renumbered, order-guarded)."""
        return number_jobs(ordered(self._factory(), name=self.name))


# -- the combinators ----------------------------------------------------------
def _spec_of(stream: WorkloadStream) -> Dict[str, Any]:
    """The spec of a composable input (streams built by this module)."""
    spec = getattr(stream, "spec", None)
    if spec is None:
        raise ComposeSpecError(
            f"stream {stream.name!r} was not built by the composition "
            "algebra (build leaves with scenario()/build_compose())"
        )
    return spec


def scenario(
    name: str, seed: int = 42, scale: float = 1.0, **params: float
) -> ComposedStream:
    """A registered scenario as a composition leaf.

    Identical workload to ``build_scenario(name, ...)``, wrapped so it
    carries its canonical spec and can enter the algebra.
    """
    from repro.workload.scenarios import build_scenario

    inner = build_scenario(name, seed=seed, scale=scale, **params)
    spec = canonical_spec(
        {"op": "scenario", "name": name, "seed": seed, "scale": scale,
         "params": dict(params)}
    )
    return ComposedStream(inner.name, inner.duration, inner.events, spec)


def overlay(
    *streams: WorkloadStream,
    isolate: bool = True,
) -> ComposedStream:
    """Merge concurrent streams into one timeline.

    With ``isolate`` (the default) source ``i``'s paths are rewritten
    under ``/t{i}`` so overlaid scenarios never collide on a file path;
    ``isolate=False`` merges verbatim — only safe when the sources'
    namespaces are already disjoint (same-path events from different
    sources are forced through the creations-before-deletions tie rule,
    which can invert an intended delete→create sequence).
    """
    if not streams:
        raise ComposeSpecError("overlay needs at least one source stream")
    spec = canonical_spec(
        {"op": "overlay", "sources": [_spec_of(s) for s in streams],
         "isolate": isolate}
    )
    return build_compose(spec)


def concat(
    *streams: WorkloadStream,
    gap: float = 0.0,
    isolate: bool = True,
) -> ComposedStream:
    """Sequential composition: each source starts where the last ended.

    Source ``i`` is clipped to its nominal duration and shifted by the
    cumulative duration (plus ``gap`` seconds between sources); with
    ``isolate`` its namespace moves under ``/c{i}``, so a scenario can
    be concatenated with itself without path collisions.
    """
    if not streams:
        raise ComposeSpecError("concat needs at least one source stream")
    spec = canonical_spec(
        {"op": "concat", "sources": [_spec_of(s) for s in streams],
         "gap": gap, "isolate": isolate}
    )
    return build_compose(spec)


def timescale(stream: WorkloadStream, factor: float) -> ComposedStream:
    """Multiply every event time (and the duration) by ``factor``.

    ``factor`` > 1 stretches (same events, lower rate), < 1 compresses
    (a pressure test for the pump and the policies); ``factor == 1``
    is the identity — the canonical spec collapses it away.
    """
    return build_compose(
        canonical_spec(
            {"op": "timescale", "source": _spec_of(stream), "factor": factor}
        )
    )


def tenant_tag(stream: WorkloadStream, prefix: str) -> ComposedStream:
    """Rewrite every file path of ``stream`` under ``prefix``.

    The prefix must look like an absolute directory (``/tA``); it is
    prepended to creations, deletions, job inputs, and job outputs, so
    the tagged stream lives in its own namespace — per-tenant metric
    attribution keys off exactly this prefix.
    """
    return build_compose(
        canonical_spec(
            {"op": "tenant_tag", "source": _spec_of(stream), "prefix": prefix}
        )
    )


def take(stream: WorkloadStream, count: int) -> ComposedStream:
    """The first ``count`` events of ``stream`` (a lazy window)."""
    return build_compose(
        canonical_spec({"op": "take", "source": _spec_of(stream), "count": count})
    )


def until(stream: WorkloadStream, time: float) -> ComposedStream:
    """Every event of ``stream`` at or before simulated time ``time``."""
    return build_compose(
        canonical_spec({"op": "until", "source": _spec_of(stream), "time": time})
    )


# -- declarative specs --------------------------------------------------------
def parse_spec(spec: Any) -> Dict[str, Any]:
    """Normalize a spec argument into its canonical dict form.

    Accepts a mapping, JSON text (must start with ``{``), or a path to
    a JSON file (either a bare spec or a frozen regression case whose
    ``spec`` field holds one).
    """
    if isinstance(spec, Mapping):
        return canonical_spec(spec)
    if not isinstance(spec, str):
        raise ComposeSpecError(f"spec must be a mapping, JSON text, or path, got {type(spec).__name__}")
    text = spec.strip()
    if not text.startswith("{"):
        if not os.path.exists(spec):
            raise ComposeSpecError(f"spec file not found: {spec!r}")
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComposeSpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ComposeSpecError("spec JSON must be an object")
    if "op" not in data and "spec" in data:
        # A frozen regression case: the composition lives under "spec".
        data = data["spec"]
    return canonical_spec(data)


def _require(spec: Mapping[str, Any], op: str, allowed: Sequence[str]) -> None:
    """Reject unknown fields so typos fail loudly instead of silently."""
    unknown = set(spec) - set(allowed) - {"op"}
    if unknown:
        raise ComposeSpecError(
            f"op {op!r} has no field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _canonical_params(name: str, params: Mapping[str, Any]) -> Dict[str, float]:
    """Validated scenario overrides with default-valued entries dropped.

    Values are coerced to float (the scenario builders' parameter type),
    and an override equal to the registered default is omitted — so two
    specs describing the same workload canonicalize identically.
    """
    from repro.workload.scenarios import get_scenario

    defaults = get_scenario(name).defaults
    unknown = set(params) - set(defaults)
    if unknown:
        raise ComposeSpecError(
            f"scenario {name!r} has no parameter(s) {sorted(unknown)}; "
            f"available: {sorted(defaults)}"
        )
    out: Dict[str, float] = {}
    for key in sorted(params):
        value = float(params[key])
        if value != float(defaults[key]):
            out[key] = value
    return out


def canonical_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """The canonical (hash-stable) form of a composition spec.

    Normalization rules: defaults are filled in (``seed=42``,
    ``scale=1.0``, ``isolate=True``, ``gap=0.0``), numeric fields are
    coerced to their canonical type, scenario parameter overrides equal
    to the registered default are dropped, and ``timescale`` with
    ``factor == 1`` collapses to its source (it is the identity).  Two
    specs describing the same workload therefore produce the same JSON
    — and the same sweep cell id.
    """
    op = spec.get("op")
    if op == "scenario":
        _require(spec, op, ("name", "seed", "scale", "params"))
        name = spec.get("name")
        if not isinstance(name, str):
            raise ComposeSpecError("scenario spec needs a 'name' string")
        from repro.workload.scenarios import get_scenario

        try:
            get_scenario(name)
        except ValueError as exc:
            raise ComposeSpecError(str(exc)) from exc
        return {
            "op": "scenario",
            "name": name,
            "seed": int(spec.get("seed", 42)),
            "scale": float(spec.get("scale", 1.0)),
            "params": _canonical_params(name, spec.get("params", {})),
        }
    if op in ("overlay", "concat"):
        allowed = ("sources", "isolate") if op == "overlay" else (
            "sources", "isolate", "gap")
        _require(spec, op, allowed)
        sources = spec.get("sources")
        if not isinstance(sources, Sequence) or not sources:
            raise ComposeSpecError(f"{op} spec needs a non-empty 'sources' list")
        out: Dict[str, Any] = {
            "op": op,
            "sources": [canonical_spec(s) for s in sources],
            "isolate": bool(spec.get("isolate", True)),
        }
        if op == "concat":
            gap = float(spec.get("gap", 0.0))
            if gap < 0:
                raise ComposeSpecError("concat gap must be >= 0")
            out["gap"] = gap
        return out
    if op == "timescale":
        _require(spec, op, ("source", "factor"))
        factor = float(spec.get("factor", 1.0))
        if factor <= 0:
            raise ComposeSpecError("timescale factor must be > 0")
        source = canonical_spec(_source_of(spec))
        if factor == 1.0:
            return source  # the identity: collapse for canonical hashing
        return {"op": "timescale", "source": source, "factor": factor}
    if op == "tenant_tag":
        _require(spec, op, ("source", "prefix"))
        prefix = spec.get("prefix")
        if (
            not isinstance(prefix, str)
            or not prefix.startswith("/")
            or prefix.endswith("/")
            or len(prefix) < 2
        ):
            raise ComposeSpecError(
                "tenant_tag prefix must look like '/name' "
                f"(absolute, no trailing slash), got {prefix!r}"
            )
        return {
            "op": "tenant_tag",
            "source": canonical_spec(_source_of(spec)),
            "prefix": prefix,
        }
    if op == "take":
        _require(spec, op, ("source", "count"))
        count = int(spec.get("count", 0))
        if count <= 0:
            raise ComposeSpecError("take count must be a positive integer")
        return {
            "op": "take",
            "source": canonical_spec(_source_of(spec)),
            "count": count,
        }
    if op == "until":
        _require(spec, op, ("source", "time"))
        time = float(spec.get("time", 0.0))
        if time <= 0:
            raise ComposeSpecError("until time must be > 0")
        return {
            "op": "until",
            "source": canonical_spec(_source_of(spec)),
            "time": time,
        }
    raise ComposeSpecError(
        f"unknown composition op {op!r}; expected one of {list(COMPOSE_OPS)}"
    )


def _source_of(spec: Mapping[str, Any]) -> Mapping[str, Any]:
    """The single-source field of a unary op, validated present."""
    source = spec.get("source")
    if not isinstance(source, Mapping):
        raise ComposeSpecError(f"op {spec.get('op')!r} needs a 'source' spec")
    return source


def spec_hash(spec: Mapping[str, Any]) -> str:
    """Content hash of a composition spec (canonicalized first)."""
    from repro.sweep.spec import cell_hash

    return cell_hash(canonical_spec(spec))


def compose_name(spec: Mapping[str, Any]) -> str:
    """A short human-readable label for a composition spec."""
    op = spec["op"]
    if op == "scenario":
        return spec["name"]
    if op in ("overlay", "concat"):
        inner = ",".join(compose_name(s) for s in spec["sources"])
        return f"{op}({inner})"
    if op == "timescale":
        return f"timescale({compose_name(spec['source'])},{spec['factor']:g})"
    if op == "tenant_tag":
        return f"tag({compose_name(spec['source'])},{spec['prefix']})"
    return f"{op}({compose_name(spec['source'])})"


def tenant_prefixes(spec: Mapping[str, Any], outer: str = "") -> List[str]:
    """The namespace prefixes the composed stream's paths live under.

    One entry per isolated overlay source or ``tenant_tag`` (nested
    prefixes concatenate, matching the path rewriting).  A spec with no
    isolation yields no prefixes — every path keeps its scenario
    namespace.  Per-tenant metric attribution keys off this list.
    """
    op = spec["op"]
    if op == "scenario":
        return []
    if op == "overlay" and spec["isolate"]:
        out = []
        for i, source in enumerate(spec["sources"]):
            prefix = f"{outer}/t{i}"
            nested = tenant_prefixes(source, prefix)
            out.extend(nested if nested else [prefix])
        return out
    if op == "concat" and spec["isolate"]:
        out = []
        for i, source in enumerate(spec["sources"]):
            prefix = f"{outer}/c{i}"
            nested = tenant_prefixes(source, prefix)
            out.extend(nested if nested else [prefix])
        return out
    if op in ("overlay", "concat"):
        out = []
        for source in spec["sources"]:
            out.extend(tenant_prefixes(source, outer))
        return out
    if op == "tenant_tag":
        prefix = f"{outer}{spec['prefix']}"
        nested = tenant_prefixes(spec["source"], prefix)
        return nested if nested else [prefix]
    return tenant_prefixes(spec["source"], outer)


# -- building streams from specs ----------------------------------------------
def _leaf_events(spec: Mapping[str, Any]):
    """A factory for a scenario leaf's (renumber-ready) event iterator."""
    from repro.workload.scenarios import build_scenario

    def factory() -> Iterator[StreamEvent]:
        stream = build_scenario(
            spec["name"], seed=spec["seed"], scale=spec["scale"], **spec["params"]
        )
        return _transformed(stream.events())

    return factory


def _leaf_duration(spec: Mapping[str, Any]) -> float:
    """Nominal duration of a scenario leaf (no events generated)."""
    from repro.workload.scenarios import build_scenario

    return build_scenario(
        spec["name"], seed=spec["seed"], scale=spec["scale"], **spec["params"]
    ).duration


def _duration_of(spec: Mapping[str, Any]) -> float:
    """Nominal duration of a composed spec, computed structurally."""
    op = spec["op"]
    if op == "scenario":
        return _leaf_duration(spec)
    if op == "overlay":
        return max(_duration_of(s) for s in spec["sources"])
    if op == "concat":
        durations = [_duration_of(s) for s in spec["sources"]]
        return fold_sum(durations) + spec["gap"] * (len(durations) - 1)
    if op == "timescale":
        return _duration_of(spec["source"]) * spec["factor"]
    if op == "until":
        return min(_duration_of(spec["source"]), spec["time"])
    # tenant_tag / take keep the source's nominal window.
    return _duration_of(spec["source"])


def _factory_of(spec: Mapping[str, Any]):
    """A fresh-iterator factory for ``spec`` (the lazy build path)."""
    op = spec["op"]
    if op == "scenario":
        return _leaf_events(spec)
    if op == "overlay":
        sources = spec["sources"]
        factories = [_factory_of(s) for s in sources]
        prefixes = [
            f"/t{i}" if spec["isolate"] else "" for i in range(len(sources))
        ]

        def factory() -> Iterator[StreamEvent]:
            return merge_timed_sources(
                (0.0, _transformed(f(), prefix=p))
                for f, p in zip(factories, prefixes)
            )

        return factory
    if op == "concat":
        sources = spec["sources"]
        factories = [_factory_of(s) for s in sources]
        durations = [_duration_of(s) for s in sources]
        offsets = list(
            itertools.accumulate(
                [0.0] + [d + spec["gap"] for d in durations[:-1]]
            )
        )
        prefixes = [
            f"/c{i}" if spec["isolate"] else "" for i in range(len(sources))
        ]

        def factory() -> Iterator[StreamEvent]:
            def shifted(i: int) -> Iterator[StreamEvent]:
                # Clip each source at its nominal duration so a source
                # overrunning its window cannot run backward in time
                # relative to its successor's offset.
                return _transformed(
                    clip(factories[i](), durations[i]),
                    prefix=prefixes[i],
                    offset=offsets[i],
                )

            return merge_timed_sources(
                (offsets[i], shifted(i)) for i in range(len(factories))
            )

        return factory
    if op == "timescale":
        inner = _factory_of(spec["source"])
        factor = spec["factor"]

        def factory() -> Iterator[StreamEvent]:
            return _transformed(inner(), factor=factor)

        return factory
    if op == "tenant_tag":
        inner = _factory_of(spec["source"])
        prefix = spec["prefix"]

        def factory() -> Iterator[StreamEvent]:
            return _transformed(inner(), prefix=prefix)

        return factory
    if op == "take":
        inner = _factory_of(spec["source"])
        count = spec["count"]

        def factory() -> Iterator[StreamEvent]:
            return itertools.islice(inner(), count)

        return factory
    # until
    inner = _factory_of(spec["source"])
    bound = spec["time"]

    def factory() -> Iterator[StreamEvent]:
        return itertools.takewhile(
            lambda event: event_time(event) <= bound, inner()
        )

    return factory


def build_compose(spec: Any, name: Optional[str] = None) -> ComposedStream:
    """Build the composed stream a spec describes.

    ``spec`` is anything :func:`parse_spec` accepts.  The result is lazy
    and seeded: iterating it twice yields the identical event sequence,
    and the same canonical spec always builds the same workload.
    """
    canonical = parse_spec(spec)
    return ComposedStream(
        name or compose_name(canonical),
        _duration_of(canonical),
        _factory_of(canonical),
        canonical,
    )
