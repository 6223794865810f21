"""Tests for external trace ingestion (CSV/JSONL adapters)."""

import gzip
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.runner import SystemConfig, run_workload
from repro.workload.external import (
    ExternalTraceStream,
    detect_format,
    iter_csv_events,
)
from repro.workload.jobs import FileCreation, FileDeletion, TraceJob
from repro.workload.profiles import FB_PROFILE, scaled_profile
from repro.workload.serialize import save_events
from repro.workload.streams import StreamOrderError
from repro.workload.synthesis import synthesize_trace

REPO_ROOT = Path(__file__).resolve().parent.parent

CSV_TEXT = """\
kind,time,path,bytes,inputs,output_path,output_bytes,cpu_seconds_per_byte
create,0.0,/data/a,134217728,,,,
create,10.0,/data/b,268435456,,,,
job,63.5,,,/data/a;/data/b,/out/j0,1048576,2.0e-8
job,120.0,,402653184,/data/a,,,
delete,7200.0,/data/a,,,,,
"""


def write_csv(tmp_path, text=CSV_TEXT, name="trace.csv"):
    path = tmp_path / name
    if name.endswith(".gz"):
        with gzip.open(path, "wt") as handle:
            handle.write(text)
    else:
        path.write_text(text)
    return str(path)


class TestFormatDetection:
    def test_known_extensions(self):
        assert detect_format("a.jsonl") == "jsonl"
        assert detect_format("a.jsonl.gz") == "jsonl"
        assert detect_format("b.csv") == "csv"
        assert detect_format("b.csv.gz") == "csv"

    def test_unknown_extension_rejected(self):
        with pytest.raises(ValueError, match="cannot infer"):
            detect_format("trace.parquet")


class TestCsvIngestion:
    def test_events_decoded(self, tmp_path):
        events = list(iter_csv_events(write_csv(tmp_path)))
        assert isinstance(events[0], FileCreation)
        assert events[0].size == 134217728
        job = events[2]
        assert isinstance(job, TraceJob)
        assert job.input_paths == ["/data/a", "/data/b"]
        assert job.outputs[0].path == "/out/j0"
        assert isinstance(events[4], FileDeletion)

    def test_stream_infers_missing_input_bytes(self, tmp_path):
        stream = ExternalTraceStream(write_csv(tmp_path))
        jobs = [e for e in stream if isinstance(e, TraceJob)]
        # First job omitted bytes: inferred from the created files.
        assert jobs[0].input_size == 134217728 + 268435456
        # Second job carried an explicit size: kept.
        assert jobs[1].input_size == 402653184

    def test_jobs_renumbered(self, tmp_path):
        stream = ExternalTraceStream(write_csv(tmp_path))
        assert [e.job_id for e in stream if isinstance(e, TraceJob)] == [0, 1]

    def test_gzip_round_trip(self, tmp_path):
        stream = ExternalTraceStream(write_csv(tmp_path, name="trace.csv.gz"))
        assert stream.stats().jobs == 2

    def test_duration_scanned(self, tmp_path):
        stream = ExternalTraceStream(write_csv(tmp_path))
        assert stream.duration == 7200.0

    def test_duration_scan_is_lazy(self, tmp_path):
        stream = ExternalTraceStream(write_csv(tmp_path))
        assert stream._duration is None, "no scan until duration is read"
        bounded = stream.stats(max_events=2)
        assert bounded.events == 2
        assert stream._duration is None, "bounded stats must not scan"
        full = stream.stats()
        assert stream._duration == full.last_time == 7200.0
        assert stream.duration == 7200.0

    def test_name_from_stem(self, tmp_path):
        assert ExternalTraceStream(write_csv(tmp_path)).name == "trace"

    def test_bad_kind_rejected(self, tmp_path):
        path = write_csv(tmp_path, "kind,time,path,bytes\nmunge,1.0,/a,5\n", "bad.csv")
        with pytest.raises(ValueError, match="bad.csv:2"):
            list(iter_csv_events(path))

    def test_out_of_order_rejected(self, tmp_path):
        text = "kind,time,path,bytes\ncreate,10.0,/a,5\ncreate,1.0,/b,5\n"
        stream = ExternalTraceStream(write_csv(tmp_path, text, "ooo.csv"))
        with pytest.raises(StreamOrderError):
            list(stream)
        # As JSONL the error names the file and the line, like every
        # other error of the wire format.
        lines = (
            '{"kind": "create", "time": 10.0, "path": "/a", "bytes": 5}\n'
            '{"kind": "create", "time": 1.0, "path": "/b", "bytes": 5}\n'
        )
        path = tmp_path / "ooo.jsonl"
        path.write_text(lines)
        expected = f"{path}: event at t=1.0 after t=10.0 (FileCreation) at line 2"
        with pytest.raises(StreamOrderError) as caught:
            list(ExternalTraceStream(str(path)))
        assert str(caught.value) == expected


class TestJsonlIngestion:
    def test_round_trips_synthesized_trace(self, tmp_path):
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=6)
        path = str(tmp_path / "fb.jsonl.gz")
        save_events(trace, path)
        stream = ExternalTraceStream(path)
        assert stream.name == "FB"
        assert stream.duration == trace.duration
        assert list(stream.events()) == list(trace.events())

    def test_replay_matches_in_memory_trace(self, tmp_path):
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=6)
        path = str(tmp_path / "fb.jsonl")
        save_events(trace, path)

        def config():
            return SystemConfig(
                label="ext",
                placement="octopus",
                downgrade="lru",
                upgrade="osa",
                workers=4,
            )

        direct = run_workload(trace, config())
        ingested = run_workload(ExternalTraceStream(path), config())
        assert ingested.fingerprint() == direct.fingerprint()

    def test_explicit_format_and_duration(self, tmp_path):
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=6)
        path = str(tmp_path / "fb.jsonl")
        save_events(trace, path)
        stream = ExternalTraceStream(path, fmt="jsonl", duration=123.0, name="x")
        assert stream.duration == 123.0
        assert stream.name == "x"

    def test_unknown_format_rejected(self, tmp_path):
        path = str(tmp_path / "fb.jsonl")
        save_events([], path)
        with pytest.raises(ValueError, match="unknown trace format"):
            ExternalTraceStream(path, fmt="xml")


UTF8_CHILD = """
import sys
from repro.workload.external import ExternalTraceStream
from repro.workload.live import LiveStream

jsonl, csv = sys.argv[1:]
streams = [ExternalTraceStream(jsonl), ExternalTraceStream(csv)]
with open(jsonl, "rb") as handle:
    streams.append(LiveStream(handle))
    print(ascii([[event.path for event in s.events()] for s in streams]))
"""


def test_wire_format_is_utf8_whatever_the_locale(tmp_path):
    # Under the C locale without UTF-8 mode, Python's default text
    # encoding is ASCII; trace files must still decode as UTF-8.
    path = "/données/é"
    jsonl = tmp_path / "trace.jsonl"
    jsonl.write_bytes(
        f'{{"kind": "create", "time": 1.0, "path": "{path}", "bytes": 5}}\n'.encode()
    )
    csv = tmp_path / "trace.csv"
    csv.write_bytes(f"kind,time,path,bytes\ncreate,1.0,{path},5\n".encode())
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", UTF8_CHILD, str(jsonl), str(csv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ascii([[path]] * 3)
