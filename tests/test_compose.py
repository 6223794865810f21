"""Tests for the scenario composition algebra (repro.workload.compose).

Property suite (hypothesis) plus unit coverage:

* determinism — a composed stream is a pure function of its canonical
  spec, and re-iterating one stream object reproduces it exactly;
* overlay/concat associativity up to event order (isolate=False, over
  namespace-disjoint leaves);
* timescale(1) is the identity (the canonical spec collapses it), and
  timescale(k) maps every event time by exactly k;
* event-count and byte conservation through overlay/concat;
* numbering/ordering guards hold on composed streams (sequential job
  ids, non-decreasing sort keys);
* spec canonicalization is hash-stable (default dropping, numeric
  coercion, key order) and rejects malformed specs loudly;
* laziness — windowed composition of a huge-scale source pulls O(window)
  events, never the whole stream;
* the merge_timed_sources + EventWriter round-trip preserves
  FileDeletion ordering, and overlay's default namespace isolation
  keeps same-scenario sources from colliding on paths (the tie-rule
  hazard the isolation exists to prevent).
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import compose as compose_module
from repro.workload.compose import (
    ComposeSpecError,
    build_compose,
    canonical_spec,
    compose_name,
    concat,
    overlay,
    parse_spec,
    scenario,
    spec_hash,
    take,
    tenant_tag,
    tenant_prefixes,
    timescale,
    until,
)
from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    TraceJob,
    event_sort_key,
    event_time,
)
from repro.workload.streams import StreamOrderError, merge_timed_sources, number_jobs

#: Distinct-namespace generated leaves (each scenario has its own /data
#: prefix, so isolate=False compositions of *different* names are safe).
LEAVES = ["flashcrowd", "mlscan", "oscillating", "static", "dynamic", "phaseshift"]

leaf_st = st.sampled_from(LEAVES)
seed_st = st.integers(min_value=0, max_value=50)


def leaf(name, seed=1, scale=0.05):
    return scenario(name, seed=seed, scale=scale)


def signature(stream):
    return [repr(event) for event in stream.events()]


def masked(stream):
    """Event multiset signature with job ids masked (order-insensitive)."""
    out = []
    for event in stream.events():
        if isinstance(event, TraceJob):
            out.append(
                ("job", event.submit_time, tuple(event.input_paths), event.input_size)
            )
        elif isinstance(event, FileCreation):
            out.append(("create", event.time, event.path, event.size))
        else:
            out.append(("delete", event.time, event.path))
    return sorted(out)


# -- determinism --------------------------------------------------------------
@given(name=leaf_st, seed=seed_st)
@settings(max_examples=10, deadline=None)
def test_composed_streams_deterministic_under_seed(name, seed):
    other = LEAVES[(LEAVES.index(name) + 1) % len(LEAVES)]
    stream = overlay(leaf(name, seed), leaf(other, seed + 1))
    first = signature(stream)
    assert first == signature(stream), "re-iteration must reproduce the stream"
    rebuilt = build_compose(json.loads(json.dumps(stream.spec)))
    assert first == signature(rebuilt), "the spec must rebuild the stream"


@given(name=leaf_st, seed=seed_st)
@settings(max_examples=6, deadline=None)
def test_different_seeds_decorrelate(name, seed):
    assert signature(leaf(name, seed)) != signature(leaf(name, seed + 1))


# -- associativity up to event order ------------------------------------------
@given(seed=seed_st)
@settings(max_examples=5, deadline=None)
def test_overlay_associative_up_to_event_order(seed):
    a, b, c = (leaf(n, seed) for n in ("flashcrowd", "mlscan", "static"))
    flat = overlay(a, b, c, isolate=False)
    a2, b2, c2 = (leaf(n, seed) for n in ("flashcrowd", "mlscan", "static"))
    nested = overlay(overlay(a2, b2, isolate=False), c2, isolate=False)
    assert masked(flat) == masked(nested)


@given(seed=seed_st)
@settings(max_examples=5, deadline=None)
def test_concat_associative_up_to_event_order(seed):
    a, b, c = (leaf(n, seed) for n in ("static", "phaseshift", "dynamic"))
    flat = concat(a, b, c, isolate=False)
    a2, b2, c2 = (leaf(n, seed) for n in ("static", "phaseshift", "dynamic"))
    nested = concat(concat(a2, b2, isolate=False), c2, isolate=False)
    assert masked(flat) == masked(nested)
    assert flat.duration == pytest.approx(nested.duration)


# -- timescale ----------------------------------------------------------------
def test_timescale_one_is_identity():
    base = leaf("oscillating")
    scaled = timescale(base, 1.0)
    assert scaled.spec == base.spec, "canonical spec collapses timescale(1)"
    assert signature(scaled) == signature(leaf("oscillating"))


@given(name=leaf_st, factor=st.sampled_from([0.25, 0.5, 2.0, 3.0]))
@settings(max_examples=6, deadline=None)
def test_timescale_maps_times_by_factor(name, factor):
    base, scaled = leaf(name), timescale(leaf(name), factor)
    base_times = [event_time(e) for e in base.events()]
    scaled_times = [event_time(e) for e in scaled.events()]
    assert scaled_times == pytest.approx([t * factor for t in base_times])
    assert scaled.duration == pytest.approx(base.duration * factor)


# -- conservation -------------------------------------------------------------
@given(seed=seed_st)
@settings(max_examples=6, deadline=None)
def test_overlay_and_concat_conserve_events_and_bytes(seed):
    a, b = leaf("flashcrowd", seed), leaf("mlscan", seed + 1)
    sa, sb = a.stats(), b.stats()
    for composed in (
        overlay(leaf("flashcrowd", seed), leaf("mlscan", seed + 1)),
        concat(leaf("flashcrowd", seed), leaf("mlscan", seed + 1)),
    ):
        sc = composed.stats()
        assert sc.events == sa.events + sb.events
        assert sc.jobs == sa.jobs + sb.jobs
        assert sc.bytes_read == sa.bytes_read + sb.bytes_read
        assert sc.bytes_created == sa.bytes_created + sb.bytes_created


# -- numbering / ordering guards ----------------------------------------------
@given(seed=seed_st)
@settings(max_examples=6, deadline=None)
def test_composed_jobs_numbered_sequentially_in_order(seed):
    stream = overlay(leaf("static", seed), leaf("dynamic", seed))
    job_ids = [e.job_id for e in stream.events() if isinstance(e, TraceJob)]
    assert job_ids == list(range(len(job_ids)))
    keys = [event_sort_key(e) for e in stream.events()]
    assert keys == sorted(keys), "composed events must be time-ordered"


def test_composition_does_not_mutate_source_numbering():
    base = leaf("static")
    outer = overlay(base, leaf("dynamic"))
    list(outer.events())
    job_ids = [e.job_id for e in base.events() if isinstance(e, TraceJob)]
    assert job_ids == list(range(len(job_ids)))


# -- windowing ----------------------------------------------------------------
def test_take_and_until_window_the_stream():
    base = overlay(leaf("flashcrowd"), leaf("mlscan"))
    assert sum(1 for _ in take(base, 7).events()) == 7
    bound = base.duration / 3
    clipped = until(base, bound)
    times = [event_time(e) for e in clipped.events()]
    assert times and max(times) <= bound
    assert clipped.duration == pytest.approx(bound)


def test_windowed_composition_is_lazy():
    # A scale-100 overlay holds millions of events; pulling ten must not
    # generate them all (merge admits sources lazily, transforms are
    # per-event).  islice on the raw iterator proves O(window) pulls.
    big = overlay(
        scenario("flashcrowd", seed=1, scale=100.0),
        scenario("oscillating", seed=2, scale=100.0),
    )
    events = list(itertools.islice(big.events(), 10))
    assert len(events) == 10


def test_tenant_tag_prefixes_every_path():
    tagged = tenant_tag(leaf("mlscan"), "/acme")
    for event in tagged.events():
        if isinstance(event, TraceJob):
            assert all(p.startswith("/acme/") for p in event.input_paths)
            assert all(o.path.startswith("/acme/") for o in event.outputs)
        else:
            assert event.path.startswith("/acme/")
    assert tenant_prefixes(tagged.spec) == ["/acme"]


# -- spec canonicalization ----------------------------------------------------
def test_canonical_spec_is_hash_stable():
    verbose = {
        "op": "overlay",
        "isolate": True,
        "sources": [
            {"op": "scenario", "name": "static", "seed": 42, "scale": 1.0,
             "params": {"hot_files": 32}},  # the registered default
            {"op": "timescale", "factor": 1.0,
             "source": {"op": "scenario", "name": "mlscan"}},
        ],
    }
    terse = {
        "op": "overlay",
        "sources": [
            {"op": "scenario", "name": "static"},
            {"op": "scenario", "name": "mlscan"},
        ],
    }
    assert canonical_spec(verbose) == canonical_spec(terse)
    assert spec_hash(verbose) == spec_hash(terse)
    # int/float coercion: 4 and 4.0 describe the same parameter value.
    a = {"op": "scenario", "name": "static", "params": {"hot_files": 4}}
    b = {"op": "scenario", "name": "static", "params": {"hot_files": 4.0}}
    assert spec_hash(a) == spec_hash(b)


def test_parse_spec_accepts_json_text_file_and_frozen_case(tmp_path):
    spec = {"op": "scenario", "name": "static", "seed": 3}
    assert parse_spec(json.dumps(spec)) == canonical_spec(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert parse_spec(str(path)) == canonical_spec(spec)
    frozen = tmp_path / "case.json"
    frozen.write_text(json.dumps({"pathology": "churn", "spec": spec}))
    assert parse_spec(str(frozen)) == canonical_spec(spec)


@pytest.mark.parametrize(
    "bad",
    [
        {"op": "nope"},
        {"op": "scenario"},
        {"op": "scenario", "name": "no-such-scenario"},
        {"op": "scenario", "name": "static", "params": {"bogus": 1}},
        {"op": "scenario", "name": "static", "bogus_field": 1},
        {"op": "overlay", "sources": []},
        {"op": "timescale", "source": {"op": "scenario", "name": "static"},
         "factor": 0.0},
        {"op": "tenant_tag", "source": {"op": "scenario", "name": "static"},
         "prefix": "acme/"},
        {"op": "take", "source": {"op": "scenario", "name": "static"},
         "count": 0},
        {"op": "until", "source": {"op": "scenario", "name": "static"},
         "time": -5},
        {"op": "concat", "sources": [{"op": "scenario", "name": "static"}],
         "gap": -1},
    ],
)
def test_malformed_specs_rejected(bad):
    with pytest.raises(ComposeSpecError):
        build_compose(bad)


def test_compose_name_and_prefixes():
    stream = overlay(leaf("flashcrowd"), concat(leaf("static"), leaf("mlscan")))
    assert compose_name(stream.spec) == "overlay(flashcrowd,concat(static,mlscan))"
    assert tenant_prefixes(stream.spec) == ["/t0", "/t1/c0", "/t1/c1"]


# -- deletion-ordering regression (the overlay-isolation bugfix) --------------
def test_merge_and_writer_roundtrip_preserve_deletion_ordering(tmp_path):
    """merge_timed_sources + EventWriter keep FileDeletion order intact.

    Two sources share the namespace ``/shared``: one retires ``/shared/a``
    at t=100, the other re-creates it at t=100.  The merge's (time, kind)
    tie rule forcibly orders the creation *before* the deletion —
    correct for single-stream lifecycles, but it silently inverts an
    intended delete→re-create handoff between independent sources.
    This test pins both halves of the story: the serialization
    round-trip is exactly order-preserving (no reordering hides in the
    writer), and the tie rule is why ``overlay`` namespace-isolates by
    default.
    """
    from repro.workload.external import ExternalTraceStream
    from repro.workload.serialize import save_events

    source_a = [
        FileCreation("/shared/a", 10, 0.0),
        TraceJob(-1, 50.0, ["/shared/a"], 10),
        FileDeletion("/shared/a", 100.0),
    ]
    source_b = [FileCreation("/shared/a", 99, 100.0)]
    merged = list(merge_timed_sources([(0.0, source_a), (0.0, source_b)]))
    kinds = [type(e).__name__ for e in merged]
    # The tie rule puts the re-creation before the deletion: a consumer
    # applying this order drops the *new* file, not the old one.
    assert kinds == ["FileCreation", "TraceJob", "FileCreation", "FileDeletion"]

    path = str(tmp_path / "merged.jsonl")
    save_events(merged, path, name="merged", duration=200.0)
    replayed = list(ExternalTraceStream(path).events())
    # Reading numbers the jobs (they were written with id -1).
    assert [repr(e) for e in replayed] == [repr(e) for e in number_jobs(merged)], (
        "the EventWriter round-trip must preserve event order exactly, "
        "deletions included"
    )


def test_overlay_isolation_prevents_namespace_collisions():
    # Two *identical* pipeline leaves (same seed) delete and re-create
    # the very same paths; without isolation their lifecycles interleave
    # in one namespace and the tie rule rewrites history.  The default
    # overlay keeps every source in its own /t{i} namespace: no shared
    # paths, and each file's deletion stays after its every read.
    a = scenario("pipeline", seed=5, scale=0.5)
    b = scenario("pipeline", seed=5, scale=0.5)
    composed = overlay(a, b)
    paths_by_tenant = {"/t0": set(), "/t1": set()}
    last_read = {}
    deleted_at = {}
    for event in composed.events():
        if isinstance(event, FileCreation):
            prefix = "/t0" if event.path.startswith("/t0/") else "/t1"
            paths_by_tenant[prefix].add(event.path)
        elif isinstance(event, TraceJob):
            for p in event.input_paths:
                last_read[p] = event.submit_time
        else:
            deleted_at[event.path] = event.time
    assert not (paths_by_tenant["/t0"] & paths_by_tenant["/t1"])
    assert deleted_at, "pipeline scenarios must exercise deletions"
    for path, t_delete in deleted_at.items():
        assert last_read.get(path, 0.0) <= t_delete
    # Without isolation the two identical sources do collide — the
    # hazard the default guards against.
    collided = overlay(
        scenario("pipeline", seed=5, scale=0.5),
        scenario("pipeline", seed=5, scale=0.5),
        isolate=False,
    )
    creations = [e.path for e in collided.events() if isinstance(e, FileCreation)]
    assert len(creations) != len(set(creations))


def test_ordering_guard_trips_on_decreasing_times():
    with pytest.raises(StreamOrderError):
        list(
            merge_timed_sources(
                [(100.0, [FileCreation("/x", 1, 50.0)])]
            )
        )


class TestFoldedSums:
    """A concat's duration folds its parts left to right, whatever
    ``sum()`` does."""

    #: A left-to-right fold gives 3.3636363636363633; a compensated sum
    #: (Python >= 3.12 ``sum()``) rounds it to 3.3636363636363638.
    TRIPLE = (1.0, 1.1818181818181819, 1.1818181818181819)

    def test_concat_duration_is_a_left_to_right_fold(self, monkeypatch):
        durations = dict(zip(("static", "mlscan", "flashcrowd"), self.TRIPLE))
        # Shadow the builtin inside the module, as Python 3.12 would.
        monkeypatch.setattr(compose_module, "sum", math.fsum, raising=False)
        monkeypatch.setattr(
            compose_module, "_leaf_duration", lambda spec: durations[spec["name"]]
        )
        stream = concat(*(scenario(name) for name in durations), gap=0.0)
        assert stream.duration == 3.3636363636363633
