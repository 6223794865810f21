"""Tests for live stream replay (pipes, sockets, reorder handling)."""

import gc
import gzip
import json
import os
import socket
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.runner import SystemConfig, WorkloadRunner
from repro.workload.external import ExternalTraceStream
from repro.workload.jobs import FileCreation, TraceJob, event_time
from repro.workload.live import MAX_RECORD_LENGTH, LiveStream, open_live_source
from repro.workload.scenarios import build_scenario
from repro.workload.serialize import event_to_dict, save_events
from repro.workload.streams import StreamOrderError


def jsonl(*records, header=True, end=False, trailing_newline=True):
    lines = []
    if header:
        lines.append(json.dumps({"kind": "header", "format_version": 1}))
    lines.extend(json.dumps(r) for r in records)
    if end:
        lines.append(json.dumps({"kind": "end"}))
    text = "\n".join(lines)
    return text + "\n" if trailing_newline and lines else text


def create(t, path="/data/a", size=1024):
    return {"kind": "create", "time": t, "path": path, "bytes": size}


def job(t, paths=("/data/a",)):
    return {"kind": "job", "time": t, "inputs": list(paths)}


def write(tmp_path, text, name="live.jsonl"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDecoding:
    def test_header_picked_up(self, tmp_path):
        text = jsonl(create(1.0), header=False)
        header = json.dumps(
            {"kind": "header", "format_version": 1, "name": "x", "duration": 9.0}
        )
        stream = LiveStream(write(tmp_path, header + "\n" + text))
        assert stream.name == "x"
        assert stream.duration == 9.0
        assert len(list(stream.events())) == 1

    def test_headerless_stream_infinite_duration(self, tmp_path):
        stream = LiveStream(write(tmp_path, jsonl(create(1.0), header=False)))
        assert stream.duration == float("inf")
        assert len(list(stream.events())) == 1

    def test_empty_stream(self, tmp_path):
        stream = LiveStream(write(tmp_path, ""))
        assert list(stream.events()) == []
        assert stream.live_stats.events_received == 0

    def test_header_only_stream(self, tmp_path):
        stream = LiveStream(write(tmp_path, jsonl()))
        assert list(stream.events()) == []

    def test_blank_line_keepalives_skipped(self, tmp_path):
        # Long runs of blank lines (producer keepalives) must not
        # recurse; 5000 of them would blow the default recursion limit.
        text = jsonl(create(1.0)) + "\n" * 5000 + json.dumps(job(2.0)) + "\n"
        stream = LiveStream(write(tmp_path, text))
        assert len(list(stream.events())) == 2

    def test_end_sentinel_stops_stream(self, tmp_path):
        # Records after the sentinel must not be consumed.
        text = jsonl(create(1.0), end=True) + jsonl(create(99.0), header=False)
        stream = LiveStream(write(tmp_path, text))
        events = list(stream.events())
        assert [event_time(e) for e in events] == [1.0]
        assert stream.live_stats.end_sentinel_seen

    @staticmethod
    def pipe_stream(text):
        """A LiveStream fed the exact bytes of ``text`` through a pipe."""
        read_fd, write_fd = os.pipe()

        def produce():
            with os.fdopen(write_fd, "w") as sink:
                sink.write(text)

        producer = threading.Thread(target=produce)
        producer.start()
        return LiveStream(os.fdopen(read_fd, "r")), producer

    def test_truncated_pipe_mid_record_rejected(self):
        # The producer died mid-record: final line has no newline.
        text = jsonl(create(1.0)) + '{"kind": "job", "time": 2.0, "inp'
        stream, producer = self.pipe_stream(text)
        try:
            with pytest.raises(ValueError, match="truncated"):
                list(stream.events())
        finally:
            producer.join()

    def test_complete_but_unterminated_pipe_record_rejected(self):
        # Even valid JSON without its newline cannot be trusted complete
        # on a pipe — the producer may have died mid-write.
        text = jsonl(create(1.0)) + json.dumps(create(2.0))
        stream, producer = self.pipe_stream(text)
        try:
            with pytest.raises(ValueError, match="truncated"):
                list(stream.events())
        finally:
            producer.join()

    def test_unterminated_final_record_accepted_from_file(self, tmp_path):
        # On a seekable regular file EOF is unambiguous: a missing final
        # newline (printf/echo -n producers) is not a truncation.
        text = jsonl(create(1.0)) + json.dumps(create(2.0))
        stream = LiveStream(write(tmp_path, text))
        assert len(list(stream.events())) == 2

    def test_corrupt_final_record_in_file_rejected(self, tmp_path):
        # Seekable leniency covers the newline, not broken JSON.
        text = jsonl(create(1.0)) + '{"kind": "job", "time": 2.0, "inp'
        stream = LiveStream(write(tmp_path, text))
        with pytest.raises(ValueError, match="corrupt"):
            list(stream.events())

    def test_oversized_pipe_record_rejected(self):
        huge = json.dumps({**create(2.0), "pad": "x" * MAX_RECORD_LENGTH})
        text = jsonl(create(1.0)) + huge + "\n" + json.dumps(create(3.0)) + "\n"
        read_fd, write_fd = os.pipe()

        def produce():
            # The reader gives up mid-record and closes its end.
            try:
                with os.fdopen(write_fd, "w") as sink:
                    sink.write(text)
            except BrokenPipeError:
                pass

        producer = threading.Thread(target=produce)
        producer.start()
        source = os.fdopen(read_fd, "r")
        try:
            with pytest.raises(ValueError, match="oversized record at line 3"):
                list(LiveStream(source).events())
        finally:
            source.close()
            producer.join()

    def test_oversized_header_rejected(self, tmp_path):
        text = json.dumps({"kind": "header", "pad": "x" * MAX_RECORD_LENGTH})
        with pytest.raises(ValueError, match="oversized record at line 1"):
            LiveStream(write(tmp_path, text + "\n"))

    def test_oversized_whitespace_prefix_rejected(self, tmp_path):
        # The first chunk of this line is only spaces; it must not pass
        # for a keepalive and let the rest of the line through.
        line = " " * (MAX_RECORD_LENGTH + 1) + json.dumps(create(2.0))
        text = jsonl(create(1.0)) + line + "\n" + json.dumps(create(3.0)) + "\n"
        stream = LiveStream(write(tmp_path, text))
        with pytest.raises(ValueError, match="oversized record at line 3"):
            list(stream.events())

    def test_record_at_the_limit_accepted(self, tmp_path):
        record = json.dumps(create(2.0))
        padded = record + " " * (MAX_RECORD_LENGTH - len(record))
        stream = LiveStream(write(tmp_path, jsonl(create(1.0)) + padded + "\n"))
        assert len(list(stream.events())) == 2

    def test_corrupt_record_rejected(self, tmp_path):
        text = jsonl(create(1.0)) + "not json at all\n"
        stream = LiveStream(write(tmp_path, text))
        with pytest.raises(ValueError, match="corrupt"):
            list(stream.events())

    def test_single_shot(self, tmp_path):
        stream = LiveStream(write(tmp_path, jsonl(create(1.0))))
        list(stream.events())
        with pytest.raises(ValueError, match="single-shot"):
            stream.events()

    def test_bad_late_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="late policy"):
            LiveStream(write(tmp_path, ""), late="ignore")


class TestReordering:
    def out_of_order(self):
        return jsonl(
            create(0.0, "/data/a"),
            job(5.0),
            create(3.0, "/data/b"),  # out of order, within any sane bound
            job(8.0),
        )

    def test_within_bound_resorted(self, tmp_path):
        stream = LiveStream(write(tmp_path, self.out_of_order()))
        times = [event_time(e) for e in stream.events()]
        assert times == sorted(times) == [0.0, 3.0, 5.0, 8.0]
        stats = stream.live_stats
        assert stats.events_late == 0
        # The t=3 creation arrived after t=5 had been seen: one genuine
        # disorder of 2 simulated seconds, absorbed by the buffer.
        assert stats.events_reordered == 1
        assert stats.max_disorder_seconds == 2.0

    def test_in_order_stream_reports_no_disorder(self, tmp_path):
        records = [create(float(i), f"/data/f{i}") for i in range(10)]
        stream = LiveStream(write(tmp_path, jsonl(*records)), reorder_depth=4)
        list(stream.events())
        assert stream.live_stats.events_reordered == 0
        assert stream.live_stats.max_disorder_seconds == 0.0

    def test_beyond_bound_clamped(self, tmp_path):
        # Depth 0: nothing is buffered, so the t=3 creation arrives
        # after t=5 was emitted and gets clamped onto the output clock.
        stream = LiveStream(write(tmp_path, self.out_of_order()), reorder_depth=0)
        events = list(stream.events())
        times = [event_time(e) for e in events]
        assert times == [0.0, 5.0, 5.0, 8.0]
        assert isinstance(events[2], FileCreation)
        stats = stream.live_stats
        assert stats.events_late == stats.events_clamped == 1
        assert stats.events_dropped == 0

    def test_beyond_bound_dropped(self, tmp_path):
        stream = LiveStream(
            write(tmp_path, self.out_of_order()), reorder_depth=0, late="drop"
        )
        events = list(stream.events())
        assert [event_time(e) for e in events] == [0.0, 5.0, 8.0]
        assert stream.live_stats.events_dropped == 1

    def test_beyond_bound_error(self, tmp_path):
        stream = LiveStream(
            write(tmp_path, self.out_of_order()), reorder_depth=0, late="error"
        )
        with pytest.raises(StreamOrderError, match="reorder bound"):
            list(stream.events())

    def test_clamped_job_keeps_identity(self, tmp_path):
        text = jsonl(create(0.0), job(9.0), job(4.0, ("/data/a",)))
        stream = LiveStream(write(tmp_path, text), reorder_depth=0)
        jobs = [e for e in stream.events() if isinstance(e, TraceJob)]
        assert [j.submit_time for j in jobs] == [9.0, 9.0]
        assert [j.job_id for j in jobs] == [0, 1]

    def test_buffer_depth_tracked(self, tmp_path):
        records = [create(float(i), f"/data/f{i}") for i in range(10)]
        stream = LiveStream(write(tmp_path, jsonl(*records)), reorder_depth=4)
        list(stream.events())
        assert stream.live_stats.max_buffer_depth == 4


class TestTransports:
    def test_gzip_path(self, tmp_path):
        path = tmp_path / "live.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(jsonl(create(1.0), job(2.0)))
        stream = LiveStream(str(path))
        assert len(list(stream.events())) == 2

    def test_gzip_over_pipe(self, tmp_path):
        # gunzip-on-the-fly from a non-seekable pipe, as a socket or
        # FIFO would deliver it.
        payload = gzip.compress(jsonl(create(1.0), job(2.0), end=True).encode())
        read_fd, write_fd = os.pipe()

        def produce():
            with os.fdopen(write_fd, "wb") as sink:
                sink.write(payload)

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            stream = LiveStream(os.fdopen(read_fd, "rb"), compression="gzip")
            assert len(list(stream.events())) == 2
        finally:
            producer.join()

    def test_pipe_incremental_delivery(self):
        # The producer writes one record at a time; the consumer sees
        # them without waiting for EOF (the sentinel ends the stream).
        read_fd, write_fd = os.pipe()

        def produce():
            with os.fdopen(write_fd, "w") as sink:
                sink.write(jsonl())
                sink.flush()
                for i in range(5):
                    sink.write(json.dumps(create(float(i), f"/d/f{i}")) + "\n")
                    sink.flush()
                sink.write(json.dumps({"kind": "end"}) + "\n")

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            stream = LiveStream(os.fdopen(read_fd, "r"))
            assert len(list(stream.events())) == 5
            assert stream.live_stats.end_sentinel_seen
        finally:
            producer.join()

    def test_socket_source(self):
        server, client = socket.socketpair()

        def produce():
            with server.makefile("w") as sink:
                sink.write(jsonl(create(1.0), job(2.0), end=True))
            server.close()

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            stream = LiveStream(client.makefile("rb"))
            assert len(list(stream.events())) == 2
        finally:
            producer.join()
            client.close()

    def test_bad_tcp_spec_rejected(self):
        with pytest.raises(ValueError, match="tcp://host:port"):
            open_live_source("tcp://missing-a-port")

    def test_gzip_over_pipe_truncation_detected(self):
        # seekability must come from the raw transport: GzipFile fakes
        # forward seeks, which would silently disable the truncation
        # guard on compressed pipes.
        payload = gzip.compress(
            jsonl(create(1.0)).encode() + json.dumps(create(2.0)).encode()
        )
        read_fd, write_fd = os.pipe()

        def produce():
            with os.fdopen(write_fd, "wb") as sink:
                sink.write(payload)

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            stream = LiveStream(os.fdopen(read_fd, "rb"), compression="gzip")
            with pytest.raises(ValueError, match="truncated"):
                list(stream.events())
        finally:
            producer.join()

    def test_caller_supplied_handle_not_closed(self, tmp_path):
        # The stream only closes transports it opened itself.
        handle = open(write(tmp_path, jsonl(create(1.0))), "r")
        try:
            with LiveStream(handle) as stream:
                assert len(list(stream.events())) == 1
            assert not handle.closed
        finally:
            handle.close()

    @pytest.mark.parametrize("compression", [None, "gzip"])
    def test_dropping_a_stream_leaves_a_caller_handle_open(self, tmp_path, compression):
        # A binary handle gets a text (or gunzipping) view; neither the
        # view's close nor its finalizer may close the caller's handle.
        text = jsonl(create(1.0))
        payload = gzip.compress(text.encode()) if compression else text.encode()
        path = tmp_path / "t.jsonl"
        path.write_bytes(payload)
        with open(path, "rb") as handle:
            stream = LiveStream(handle, compression=compression)
            assert len(list(stream.events())) == 1
            stream.close()
            del stream
            gc.collect()
            assert not handle.closed

    def test_owned_gzip_path_closes_its_file(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(gzip.compress(jsonl(create(1.0)).encode()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            stream = LiveStream(str(path))
            list(stream.events())
            stream.close()
            del stream
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_owned_path_handle_closed(self, tmp_path):
        stream = LiveStream(write(tmp_path, jsonl(create(1.0))))
        list(stream.events())
        stream.close()
        assert stream._handle.closed


class TestRunnerIntegration:
    def config(self, label="live"):
        return SystemConfig(
            label=label,
            placement="octopus",
            downgrade="lru",
            upgrade="osa",
            workers=4,
        )

    def test_live_run_matches_offline_run(self, tmp_path):
        path = str(tmp_path / "fb.jsonl")
        save_events(build_scenario("fb", seed=11, scale=0.05), path)
        offline = WorkloadRunner(ExternalTraceStream(path), self.config()).run()
        live = WorkloadRunner(LiveStream(path), self.config()).run()
        assert live.fingerprint() == offline.fingerprint()

    def test_live_run_through_real_pipe(self, tmp_path):
        # The canonical demo, in-process: generator thread feeding a
        # pipe while the runner consumes it.
        stream = build_scenario("oscillating", seed=3, scale=0.1)
        path = str(tmp_path / "osc.jsonl")
        save_events(stream, path)
        offline = WorkloadRunner(ExternalTraceStream(path), self.config()).run()

        read_fd, write_fd = os.pipe()

        # Write the serialized events through the pipe, line by line.
        def produce():
            source = build_scenario("oscillating", seed=3, scale=0.1)
            with os.fdopen(write_fd, "w") as sink:
                sink.write(
                    json.dumps(
                        {
                            "kind": "header",
                            "format_version": 1,
                            "name": source.name,
                            "duration": source.duration,
                        }
                    )
                    + "\n"
                )
                for event in source.events():
                    sink.write(json.dumps(event_to_dict(event)) + "\n")
                sink.write(json.dumps({"kind": "end"}) + "\n")

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            live = WorkloadRunner(
                LiveStream(os.fdopen(read_fd, "r")), self.config()
            ).run()
        finally:
            producer.join()
        assert live.fingerprint() == offline.fingerprint()
        assert live.live_stats is not None
        assert live.live_stats["events_received"] > 0

    def test_headerless_live_run_ends_at_exhaustion(self, tmp_path):
        # No header → unknown duration → the submission window ends
        # when the stream is exhausted instead of at a nominal end.
        source = build_scenario("fb", seed=11, scale=0.05)
        path = str(tmp_path / "fb_headerless.jsonl")
        with open(path, "w") as sink:
            for event in source.events():
                sink.write(json.dumps(event_to_dict(event)) + "\n")
        runner = WorkloadRunner(LiveStream(path), self.config())
        result = runner.run()
        assert result.jobs_finished == result.jobs_submitted > 0
        assert runner.duration < float("inf")

    def test_empty_live_run(self, tmp_path):
        result = WorkloadRunner(
            LiveStream(write(tmp_path, jsonl())), self.config()
        ).run()
        assert result.jobs_submitted == 0
        assert result.jobs_finished == 0
        # Only the fixed post-run transfer-drain window elapses.
        assert result.elapsed <= 600.0

    def test_pump_counters_populated(self, tmp_path):
        path = str(tmp_path / "fb.jsonl")
        save_events(build_scenario("fb", seed=11, scale=0.05), path)
        result = WorkloadRunner(LiveStream(path), self.config()).run()
        assert result.pump_events > 0
        assert result.pump_lead_max_seconds >= result.pump_lead_mean_seconds >= 0.0


class TestLiveEqualsOfflineProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        scale=st.sampled_from([0.05, 0.1]),
        name=st.sampled_from(["fb", "oscillating", "pipeline"]),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_live_replay_equals_offline_replay(self, tmp_path, seed, scale, name):
        """Live replay of a serialized scenario is event-for-event equal
        to offline (file) replay of the same serialization."""
        path = str(tmp_path / f"{name}-{seed}-{scale}.jsonl")
        save_events(build_scenario(name, seed=seed, scale=scale), path)
        offline = [repr(e) for e in ExternalTraceStream(path).events()]
        live = LiveStream(path)
        assert [repr(e) for e in live.events()] == offline
        assert live.live_stats.events_emitted == len(offline)
        assert live.live_stats.events_late == 0
