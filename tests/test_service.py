"""Tests for service mode: the multi-tenant daemon, mux, and pacing."""

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.engine.runner import SystemConfig, WorkloadRunner
from repro.service import (
    ServiceClosed,
    ServiceEngine,
    TenantMux,
    TenantRegistry,
    TieringService,
    json_safe,
    result_to_dict,
)
from repro.workload.external import ExternalTraceStream
from repro.workload.jobs import FileCreation, FileDeletion, TraceJob, event_time
from repro.workload.live import (
    MAX_RECORD_LENGTH,
    LiveStream,
    paced_events,
    parse_endpoint,
)
from repro.workload.scenarios import build_scenario
from repro.workload.serialize import event_to_dict

REPO_ROOT = Path(__file__).resolve().parent.parent


def jsonl(*records, header=True, end=True, name=None, duration=None):
    lines = []
    if header:
        head = {"kind": "header", "format_version": 1}
        if name is not None:
            head["name"] = name
        if duration is not None:
            head["duration"] = duration
        lines.append(json.dumps(head))
    lines.extend(json.dumps(r) for r in records)
    if end:
        lines.append(json.dumps({"kind": "end"}))
    return "\n".join(lines) + "\n"


def create(t, path="/data/a", size=1024):
    return {"kind": "create", "time": t, "path": path, "bytes": size}


def job(t, paths=("/data/a",)):
    return {"kind": "job", "time": t, "inputs": list(paths)}


END = {"kind": "end"}


def scenario_jsonl(name="fb", scale=0.03, seed=11, duration=None):
    """A serialized scenario as JSONL text (headerless duration unless set)."""
    stream = build_scenario(name, scale=scale, seed=seed)
    head = {"kind": "header", "format_version": 1, "name": f"{name}-{seed}"}
    if duration is not None:
        head["duration"] = duration
    lines = [json.dumps(head)]
    lines += [json.dumps(event_to_dict(ev)) for ev in stream.events()]
    lines.append(json.dumps({"kind": "end"}))
    return "\n".join(lines) + "\n"


def wire(*lines):
    """Wire bytes from JSON-able records (str lines are sent verbatim)."""
    return b"".join(
        (line if isinstance(line, str) else json.dumps(line)).encode() + b"\n"
        for line in lines
    )


HEADER = {"kind": "header", "format_version": 1}

#: Wire inputs every JSONL entry point must treat alike: the bytes, and
#: the line the reader must reject (None for a valid stream).
WIRE_CASES = {
    "valid": (
        wire(HEADER, create(1.0), "", job(2.0), "   ", create(3.0, "/b"), END),
        None,
    ),
    "corrupt line": (wire(HEADER, create(1.0), '{"kind": "job", "ti'), 3),
    "oversized record": (
        wire(HEADER, create(1.0), {**create(2.0), "pad": "x" * MAX_RECORD_LENGTH}),
        3,
    ),
    "misplaced header": (wire(create(1.0), HEADER), 2),
    "bad version": (wire({**HEADER, "format_version": 99}, create(1.0)), 1),
    "bad duration": (wire({**HEADER, "duration": "soon"}, create(1.0)), 1),
    "missing field": (wire(HEADER, {"kind": "create", "time": 1.0, "bytes": 5}), 2),
    "null inputs": (wire(HEADER, create(1.0), {**job(2.0), "inputs": None}), 3),
    "non-object line": (wire(HEADER, create(1.0), "[1, 2]"), 3),
    "null line": (wire(HEADER, "null", create(1.0)), 2),
}


def event_signature(event):
    """Comparable view of a stream event (ignores service tags)."""
    if isinstance(event, FileCreation):
        return ("create", event.time, event.path, event.size)
    if isinstance(event, FileDeletion):
        return ("delete", event.time, event.path)
    return (
        "job",
        event.submit_time,
        event.job_id,
        tuple(event.input_paths),
        event.input_size,
        tuple((o.path, o.size) for o in event.outputs),
    )


def capture_applied(runner):
    """Record every event the runner applies, in order."""
    applied = []
    original = runner._apply_event

    def recording(event):
        applied.append(event_signature(event))
        original(event)

    runner._apply_event = recording
    return applied


# -- pacing -------------------------------------------------------------------
class TestPacing:
    def test_paced_events_sleeps_to_deadlines(self):
        clock_now = [100.0]
        sleeps = []

        def clock():
            return clock_now[0]

        def sleep(seconds):
            sleeps.append(seconds)
            clock_now[0] += seconds

        events = [
            FileCreation(path="/a", size=1, time=0.0),
            FileCreation(path="/b", size=1, time=10.0),
            FileCreation(path="/c", size=1, time=30.0),
        ]
        out = list(paced_events(iter(events), pace=10.0, clock=clock, sleep=sleep))
        assert [e.path for e in out] == ["/a", "/b", "/c"]
        # t0=100; deadlines at 100+1 and 100+3 wall seconds.
        assert sleeps == [1.0, 2.0]

    def test_paced_events_never_sleeps_when_behind(self):
        sleeps = []
        events = [FileCreation(path="/a", size=1, time=0.0)] * 3
        list(
            paced_events(
                iter(events), pace=1.0, clock=lambda: 1e9, sleep=sleeps.append
            )
        )
        assert sleeps == []

    def test_paced_events_rejects_bad_pace(self):
        with pytest.raises(ValueError):
            list(paced_events(iter([]), pace=0.0))

    def test_live_stream_pace_validation(self):
        with pytest.raises(ValueError):
            LiveStream(io.StringIO(jsonl()), pace=-1.0)

    def test_live_pace_wall_clock_bounds(self):
        # Three events over 2 simulated seconds at pace 20 should take
        # roughly 0.1 wall seconds — and certainly between the ideal
        # time and a generous ceiling.
        text = jsonl(create(0.0), job(1.0), job(2.0))
        stream = LiveStream(io.StringIO(text), pace=20.0)
        start = time.monotonic()
        events = list(stream.events())
        wall = time.monotonic() - start
        assert len(events) == 3
        assert wall >= 2.0 / 20.0 * 0.5  # at least half the ideal pacing
        assert wall < 5.0  # and nowhere near unpaced-blocking territory


class TestEndpoints:
    def test_parse_endpoint_forms(self):
        assert parse_endpoint("listen://9000", "listen") == ("", 9000)
        assert parse_endpoint("listen://0.0.0.0:9000", "listen") == (
            "0.0.0.0",
            9000,
        )
        assert parse_endpoint("tcp://[::1]:9000", "tcp") == ("::1", 9000)
        with pytest.raises(ValueError):
            parse_endpoint("listen://nope", "listen")
        with pytest.raises(ValueError):
            parse_endpoint("tcp://host:port", "listen")

    def test_listen_source_accepts_one_producer(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # free the port; the stream rebinds it
        text = jsonl(create(1.0), job(2.0))
        result = {}

        def consume():
            stream = LiveStream(f"listen://127.0.0.1:{port}")
            result["events"] = list(stream.events())
            stream.close()

        consumer = threading.Thread(target=consume)
        consumer.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                conn = socket.create_connection(("127.0.0.1", port), timeout=0.2)
                break
            except OSError:
                time.sleep(0.05)
        with conn:
            conn.sendall(text.encode())
        consumer.join(timeout=10.0)
        assert [event_time(e) for e in result["events"]] == [1.0, 2.0]


# -- the mux ------------------------------------------------------------------
class TestTenantMux:
    def make(self, clock=lambda: 0.0):
        registry = TenantRegistry()
        mux = TenantMux(registry, clock=clock)
        return registry, mux

    def test_single_tenant_passthrough(self):
        registry, mux = self.make()
        tenant = registry.create("a", "inline", isolate=False)
        session = mux.attach(tenant)
        events = [
            FileCreation(path="/a", size=1, time=1.0),
            TraceJob(job_id=0, submit_time=2.0, input_paths=["/a"], input_size=1),
        ]
        for ev in events:
            mux.feed(session, ev)
        mux.end(session)
        mux.close_admissions()
        out = list(mux.events())
        assert [event_signature(e) for e in out] == [event_signature(e) for e in events]
        assert tenant.events_emitted == 2
        assert tenant.jobs_submitted == 1

    def test_interleaves_two_tenants_in_time_order(self):
        registry, mux = self.make()
        ta = registry.create("a", "inline", isolate=False)
        tb = registry.create("b", "inline", isolate=False)
        sa, sb = mux.attach(ta), mux.attach(tb)
        mux.feed(sa, FileCreation(path="/a", size=1, time=1.0))
        mux.feed(sa, FileCreation(path="/a2", size=1, time=5.0))
        mux.feed(sb, FileCreation(path="/b", size=1, time=2.0))
        mux.feed(sb, FileCreation(path="/b2", size=1, time=6.0))
        mux.end(sa)
        mux.end(sb)
        mux.close_admissions()
        assert [e.path for e in mux.events()] == ["/a", "/b", "/a2", "/b2"]

    def test_offset_shifts_later_tenant(self):
        now = [0.0]
        registry, mux = self.make(clock=lambda: now[0])
        ta = registry.create("a", "inline", isolate=False)
        sa = mux.attach(ta)
        now[0] = 100.0
        tb = registry.create("b", "inline", isolate=False)
        sb = mux.attach(tb)
        assert tb.offset == 100.0
        mux.feed(sa, FileCreation(path="/a", size=1, time=0.0))
        mux.feed(sb, FileCreation(path="/b", size=1, time=0.0))
        mux.end(sa)
        mux.end(sb)
        mux.close_admissions()
        out = list(mux.events())
        assert [(e.path, e.time) for e in out] == [("/a", 0.0), ("/b", 100.0)]

    def test_waits_for_open_empty_session(self):
        # An open tenant that has sent nothing blocks emission of later
        # events until it sends or closes (the deterministic-merge price).
        registry, mux = self.make()
        ta = registry.create("a", "inline", isolate=False)
        tb = registry.create("b", "inline", isolate=False)
        sa, sb = mux.attach(ta), mux.attach(tb)
        mux.feed(sa, FileCreation(path="/a", size=1, time=5.0))
        mux.end(sa)
        mux.close_admissions()
        got = []

        def consume():
            got.extend(mux.events())

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.2)
        assert got == []  # blocked on tenant b
        mux.feed(sb, FileCreation(path="/b", size=1, time=1.0))
        mux.end(sb)
        consumer.join(timeout=5.0)
        assert [e.path for e in got] == ["/b", "/a"]

    def test_prefix_isolates_paths(self):
        registry, mux = self.make()
        tenant = registry.create("a", "inline")  # isolate defaults on
        session = mux.attach(tenant)
        assert tenant.prefix == f"/{tenant.tenant_id}"
        mux.feed(session, FileCreation(path="/data/x", size=1, time=0.0))
        mux.feed(
            session,
            TraceJob(
                job_id=0, submit_time=1.0, input_paths=["/data/x"], input_size=1
            ),
        )
        mux.feed(session, FileDeletion(path="/data/x", time=2.0))
        mux.end(session)
        mux.close_admissions()
        out = list(mux.events())
        prefix = tenant.prefix
        assert out[0].path == f"{prefix}/data/x"
        assert out[1].input_paths == [f"{prefix}/data/x"]
        assert out[2].path == f"{prefix}/data/x"

    def test_attach_after_close_raises(self):
        registry, mux = self.make()
        mux.close_admissions()
        with pytest.raises(ServiceClosed):
            mux.attach(registry.create("late", "inline"))

    def test_force_close_replays_buffered_events(self):
        registry, mux = self.make()
        tenant = registry.create("a", "inline", isolate=False)
        session = mux.attach(tenant)
        mux.feed(session, FileCreation(path="/a", size=1, time=1.0))
        mux.force_close()  # session never ended cleanly
        assert tenant.state == "closed"
        assert [e.path for e in mux.events()] == ["/a"]

    def test_failed_tenant_does_not_stop_merge(self):
        registry, mux = self.make()
        ta = registry.create("a", "inline", isolate=False)
        tb = registry.create("b", "inline", isolate=False)
        sa, sb = mux.attach(ta), mux.attach(tb)
        mux.feed(sb, FileCreation(path="/b", size=1, time=1.0))
        mux.fail(sa, ValueError("corrupt stream"))
        mux.end(sb)
        mux.close_admissions()
        assert [e.path for e in mux.events()] == ["/b"]
        assert ta.state == "failed"
        assert "corrupt" in ta.error

    def test_single_shot(self):
        _, mux = self.make()
        mux.close_admissions()
        list(mux.events())
        with pytest.raises(ValueError):
            mux.events()


# -- JSON safety (the duration=inf bugfix) ------------------------------------
class TestJsonSafety:
    def test_json_safe_scrubs_nonfinite(self):
        value = {
            "inf": float("inf"),
            "nan": float("nan"),
            "ok": 1.5,
            "nested": [float("-inf"), {"deep": float("inf")}],
        }
        safe = json_safe(value)
        assert safe["inf"] is None
        assert safe["nan"] is None
        assert safe["ok"] == 1.5
        assert safe["nested"] == [None, {"deep": None}]
        json.loads(json.dumps(safe))  # strictly valid JSON

    def test_json_safe_stringifies_tier_keys(self):
        class Tier:
            name = "MEMORY"

        assert json_safe({Tier(): 1.0}) == {"MEMORY": 1.0}

    def test_headerless_run_result_duration_is_none_mid_flight(self):
        text = jsonl(create(1.0), job(2.0), header=False)
        runner = WorkloadRunner(LiveStream(io.StringIO(text)), SystemConfig(label="x"))
        # Before the stream is exhausted, duration is open-ended.
        snap = runner.snapshot()
        assert snap.duration is None
        result = runner.run()
        assert result.duration is not None
        payload = json.dumps(result_to_dict(result))
        assert "Infinity" not in payload

    def test_result_to_dict_is_json_clean(self):
        result = WorkloadRunner(
            LiveStream(io.StringIO(jsonl(create(1.0), job(2.0)))),
            SystemConfig(label="x"),
        ).run()
        payload = json.dumps(result_to_dict(result))
        assert "Infinity" not in payload and "NaN" not in payload


# -- the engine and daemon ----------------------------------------------------
def drain_and_wait(service, timeout=120.0):
    service.begin_drain(mode="drain")
    result = service.wait(timeout=timeout)
    assert result is not None, "engine did not finish in time"
    return result


class TestServiceEngine:
    def test_two_identical_tenants_isolated(self):
        text = scenario_jsonl(scale=0.02, seed=7)
        engine = ServiceEngine(SystemConfig(label="iso"))
        engine.start()
        t1 = engine.attach_jsonl(text)
        t2 = engine.attach_jsonl(text)
        deadline = time.time() + 60.0
        while time.time() < deadline:
            if all(t.state == "finished" for t in engine.registry.list()):
                break
            time.sleep(0.05)
        engine.begin_drain(grace=5.0)
        result = engine.join(timeout=120.0)
        assert result is not None
        # Same stream, isolated namespaces: both tenants finish every job,
        # and the shared run is the sum.
        assert t1.collector.jobs_completed == t2.collector.jobs_completed > 0
        assert (
            result.metrics.jobs_completed
            == t1.collector.jobs_completed + t2.collector.jobs_completed
        )
        assert t1.collector.bytes_read == t2.collector.bytes_read > 0
        assert (
            result.metrics.bytes_read
            == t1.collector.bytes_read + t2.collector.bytes_read
        )

    def test_single_tenant_matches_offline_replay(self):
        # The acceptance property: a single-tenant served run (isolation
        # off) is event-for-event identical to the offline `repro live`
        # replay of the same stream, and its per-tenant projection equals
        # the offline metrics.
        text = scenario_jsonl(scale=0.03, seed=11)
        offline_runner = WorkloadRunner(
            LiveStream(io.StringIO(text)), SystemConfig(label="x")
        )
        offline_applied = capture_applied(offline_runner)
        offline = offline_runner.run()

        engine = ServiceEngine(SystemConfig(label="x"))
        served_applied = capture_applied(engine.runner)
        engine.start()
        tenant = engine.attach_jsonl(text, isolate=False)
        deadline = time.time() + 60.0
        while tenant.state != "finished" and time.time() < deadline:
            time.sleep(0.05)
        engine.begin_drain(grace=5.0)
        served = engine.join(timeout=120.0)

        assert served_applied == offline_applied  # event-for-event
        for attr in (
            "task_reads",
            "task_reads_memory",
            "bytes_read",
            "bytes_read_memory",
            "file_accesses",
            "file_accesses_memory_located",
            "bytes_written",
            "jobs_completed",
        ):
            assert getattr(tenant.collector, attr) == getattr(
                offline.metrics, attr
            ), attr
        assert (
            tenant.collector.mean_completion_times()
            == offline.metrics.mean_completion_times()
        )
        assert served.duration == offline.duration
        assert served.fingerprint() == offline.fingerprint()

    def test_results_log_survives_restart(self, tmp_path):
        log_path = str(tmp_path / "results.jsonl")
        text = scenario_jsonl(scale=0.02, seed=7)
        engine = ServiceEngine(SystemConfig(label="rlog"), results_log=log_path)
        assert engine.past_tenants == []
        engine.start()
        tenant = engine.attach_jsonl(text)
        deadline = time.time() + 60.0
        while tenant.state != "finished" and time.time() < deadline:
            time.sleep(0.05)
        engine.begin_drain(grace=5.0)
        engine.join(timeout=120.0)

        # The final (post-drain) record carries complete metrics and
        # collapses with the stream-end record on load.
        restarted = ServiceEngine(SystemConfig(label="rlog2"), results_log=log_path)
        assert len(restarted.past_tenants) == 1
        record = restarted.past_tenants[0]
        assert record["final"] is True
        assert record["tenant"]["id"] == tenant.tenant_id
        assert record["tenant"]["jobs_finished"] == tenant.collector.jobs_completed
        assert record["metrics"]["bytes_read"] == tenant.collector.bytes_read

    def test_drain_completes_in_flight_jobs(self):
        # A session force-closed by drain must not strand its jobs: the
        # engine finishes everything already admitted.
        engine = ServiceEngine(SystemConfig(label="drain"))
        engine.start()
        text = jsonl(
            create(0.0, "/d/a", 64 << 20),
            job(1.0, ["/d/a"]),
            job(2.0, ["/d/a"]),
            end=False,  # producer never closes: drain must force it
        )
        stream = LiveStream(io.StringIO(text))
        tenant = engine.attach_events(stream.events(), name="inflight", source="inline")
        deadline = time.time() + 30.0
        while tenant.jobs_submitted < 2 and time.time() < deadline:
            time.sleep(0.05)
        engine.begin_drain(grace=0.2)
        result = engine.join(timeout=120.0)
        assert result.jobs_submitted == 2
        assert result.jobs_finished == 2
        assert tenant.collector.jobs_completed == 2


class TestDaemon:
    @pytest.fixture()
    def service(self):
        service = TieringService(SystemConfig(label="daemon"), drain_grace=5.0)
        service.start()
        yield service
        service.stop()

    def control(self, service, path, payload=None, method=None):
        url = f"http://127.0.0.1:{service.control_port}{path}"
        if payload is not None:
            request = urllib.request.Request(
                url,
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method=method or "POST",
            )
        else:
            request = urllib.request.Request(url, method=method or "GET")
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_concurrent_socket_tenants(self, service):
        texts = {
            seed: scenario_jsonl(scale=0.02, seed=seed).encode()
            for seed in (21, 22)
        }

        def produce(seed):
            with socket.create_connection(("127.0.0.1", service.data_port)) as conn:
                conn.sendall(texts[seed])

        producers = [threading.Thread(target=produce, args=(seed,)) for seed in texts]
        for producer in producers:
            producer.start()
        for producer in producers:
            producer.join(timeout=30.0)
        # sendall returns before the daemon has necessarily accepted;
        # wait for both sessions to stream to completion.
        deadline = time.time() + 30.0
        while time.time() < deadline:
            tenants = service.engine.registry.list()
            if len(tenants) == 2 and all(t.state == "finished" for t in tenants):
                break
            time.sleep(0.05)
        result = drain_and_wait(service)
        tenants = service.engine.registry.list()
        assert len(tenants) == 2
        assert all(t.state == "finished" for t in tenants)
        assert all(t.collector.jobs_completed > 0 for t in tenants)
        assert result.jobs_finished == sum(t.collector.jobs_completed for t in tenants)
        # Per-tenant projections are served over the control plane.
        for tenant in tenants:
            status, body = self.control(service, f"/tenants/{tenant.tenant_id}/metrics")
            assert status == 200
            assert body["jobs_finished"] == tenant.collector.jobs_completed

    def send_tenant(self, service, payload, state):
        """Stream ``payload`` as one socket tenant; wait for ``state``."""
        known = {t.tenant_id for t in service.engine.registry.list()}
        with socket.create_connection(("127.0.0.1", service.data_port)) as conn:
            try:
                conn.sendall(payload)
            except OSError:
                pass  # the daemon may hang up on a tenant it failed
        deadline = time.time() + 30.0
        while time.time() < deadline:
            fresh = [
                t
                for t in service.engine.registry.list()
                if t.tenant_id not in known
            ]
            if fresh and fresh[0].state == state:
                return fresh[0]
            time.sleep(0.05)
        raise AssertionError(f"no tenant reached {state!r}")

    def test_oversized_record_fails_only_its_tenant(self, service):
        good = scenario_jsonl(scale=0.02, seed=21).encode()
        head = json.dumps({"kind": "header", "format_version": 1})
        huge = json.dumps({**create(1.0), "pad": "x" * MAX_RECORD_LENGTH})
        bad = self.send_tenant(service, f"{head}\n{huge}\n".encode(), "failed")
        assert "oversized record" in bad.error
        status, health = self.control(service, "/healthz")
        assert status == 200 and health["status"] == "serving"
        tenant = self.send_tenant(service, good, "finished")
        _, metrics = self.control(service, f"/tenants/{tenant.tenant_id}/metrics")
        drain_and_wait(service)

        alone = TieringService(SystemConfig(label="daemon"), drain_grace=5.0)
        alone.start()
        try:
            solo = self.send_tenant(alone, good, "finished")
            _, solo_metrics = self.control(alone, f"/tenants/{solo.tenant_id}/metrics")
            drain_and_wait(alone)
        finally:
            alone.stop()
        assert metrics["jobs_finished"] > 0
        # Everything but the tenant's identity (id, path prefix, peer).
        identity = ("id", "prefix", "source")
        for body in (metrics, solo_metrics):
            for key in identity:
                body["tenant"].pop(key)
        assert json.dumps(metrics, sort_keys=True) == json.dumps(
            solo_metrics, sort_keys=True
        )

    @pytest.mark.parametrize(
        "case", sorted(WIRE_CASES), ids=lambda case: case.replace(" ", "-")
    )
    def test_one_reader_for_files_streams_and_tenants(self, tmp_path, case):
        # The same bytes as a trace file, a LiveStream and a served
        # tenant: equal events when valid, else the same error (only the
        # source prefix differs for the file).
        data, line = WIRE_CASES[case]
        path = tmp_path / "wire.jsonl"
        path.write_bytes(data)
        engine = ServiceEngine(SystemConfig(label="wire"))
        applied = capture_applied(engine.runner)
        engine.start()
        ours, theirs = socket.socketpair()
        tenant = engine.attach_socket(ours, "peer", isolate=False)
        try:
            theirs.sendall(data)
        except OSError:
            pass  # the feeder may hang up on a record it rejects
        theirs.close()
        deadline = time.time() + 30.0
        while tenant.state not in ("finished", "failed") and time.time() < deadline:
            time.sleep(0.02)
        engine.begin_drain(grace=5.0)
        engine.join(timeout=60.0)

        if line is None:
            file_events = list(ExternalTraceStream(str(path)).events())
            live_events = list(LiveStream(io.BytesIO(data)).events())
            assert tenant.state == "finished"
            assert [event_signature(e) for e in file_events] == applied
            assert [event_signature(e) for e in live_events] == applied
            return
        with pytest.raises(ValueError, match=f"at line {line}\\b") as live:
            list(LiveStream(io.BytesIO(data)).events())
        with pytest.raises(ValueError) as offline:
            list(ExternalTraceStream(str(path)).events())
        assert str(live.value).startswith("live: ")
        assert str(offline.value) == str(live.value).replace("live", str(path), 1)
        assert tenant.state == "failed"
        assert tenant.error == str(live.value)

    def test_healthz_and_metrics_endpoints(self, service):
        status, health = self.control(service, "/healthz")
        assert status == 200
        assert health["status"] == "serving"
        assert health["data_port"] == service.data_port
        status, metrics = self.control(service, "/metrics")
        assert status == 200
        assert metrics["run"]["duration"] is None  # open-ended, never inf
        assert {"events_processed", "pending_events", "heap_peak"} <= set(
            metrics["engine"]
        )
        assert "queue_delay_by_tier" in metrics["run"]

    def test_prometheus_endpoint(self, service):
        url = f"http://127.0.0.1:{service.control_port}/metrics?format=prometheus"
        with urllib.request.urlopen(url) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        assert 'repro_service_up{status="serving"} 1' in text
        assert "repro_engine_events_processed" in text
        assert "repro_engine_pending_events" in text

    def test_post_tenants_inline_and_scenario(self, service):
        status, body = self.control(
            service,
            "/tenants",
            {"events": jsonl(create(0.0), job(1.0)), "name": "inline-1"},
        )
        assert status == 201
        assert body["tenant"]["name"] == "inline-1"
        status, body = self.control(
            service,
            "/tenants",
            {"scenario": "fb", "params": {"scale": 0.02, "seed": 5}},
        )
        assert status == 201
        assert body["tenant"]["source"] == "scenario:fb"
        status, listing = self.control(service, "/tenants")
        assert status == 200
        assert len(listing["tenants"]) == 2

    def test_control_plane_errors(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            self.control(service, "/tenants/t99/metrics")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            self.control(service, "/tenants", {"neither": 1})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            self.control(service, "/shutdown", {"mode": "explode"})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            self.control(service, "/nope")
        assert err.value.code == 404

    def test_shutdown_endpoint_drains(self, service):
        self.control(service, "/tenants", {"events": jsonl(create(0.0), job(1.0))})
        status, body = self.control(service, "/shutdown", {"mode": "drain"})
        assert status == 202
        result = service.wait(timeout=120.0)
        assert result is not None
        assert result.jobs_finished == 1
        # Admissions are closed once draining.
        with pytest.raises(urllib.error.HTTPError) as err:
            self.control(service, "/tenants", {"events": jsonl(create(0.0), job(1.0))})
        assert err.value.code == 409


class TestServeCommand:
    def test_sigterm_drains_and_reports(self, tmp_path):
        # The child imports repro from the checkout's ``src``, whatever
        # the parent's PYTHONPATH (pytest's own ``pythonpath`` setting
        # does not reach a subprocess).
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--drain-grace",
                "5",
                "--workers",
                "4",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving data=tcp://")
            control_port = int(line.rsplit(":", 1)[1])
            request = urllib.request.Request(
                f"http://127.0.0.1:{control_port}/tenants",
                data=json.dumps(
                    {"scenario": "fb", "params": {"scale": 0.02, "seed": 5}}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 201
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        summary = json.loads(output[output.index("{") :])
        assert summary["jobs_finished"] == summary["jobs_submitted"] > 0
        assert "Infinity" not in output
