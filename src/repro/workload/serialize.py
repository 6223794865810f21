"""The streaming JSONL format: event codec and writer.

:func:`event_to_dict` / :func:`event_from_dict` map one event to and
from its line schema; :func:`save_events` and :class:`EventWriter`
write events one line at a time, UTF-8, gzip-compressed for ``*.gz``
paths.  An optional header line carries the workload name and duration;
an optional ``{"kind": "end"}`` sentinel line marks a clean end of
stream (pipes and sockets cannot always rely on EOF).  This is the
on-disk *and* on-the-wire form of the stream protocol
(:mod:`repro.workload.streams`).  Every reader of it — trace files
(:mod:`repro.workload.external`), pipes, sockets and service tenants —
goes through the one record reader of :mod:`repro.workload.live`.  The
full line schema and the framing rules are specified in
``docs/stream-protocol.md``.

Synthesized workloads are deterministic given a seed, but exporting a
trace pins the exact event sequence for sharing, regression baselines,
or replaying through external systems.
"""

from __future__ import annotations

import gzip
import json
import sys
from typing import Any, Dict, IO, Iterable, Optional, Union

from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    OutputSpec,
    StreamEvent,
    Trace,
    TraceJob,
)

#: Streaming JSONL format version (header line ``kind: "header"``).
EVENT_FORMAT_VERSION = 1

#: ``kind`` of the optional end-of-stream sentinel line.
END_KIND = "end"


def _open_text(path: str, mode: str) -> IO[str]:
    """Open ``path`` for UTF-8 text I/O, transparently gzipped for ``*.gz``."""
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def event_to_dict(event: StreamEvent) -> Dict[str, Any]:
    """One stream event as a JSON-able dict (the JSONL line schema)."""
    if isinstance(event, FileCreation):
        return {
            "kind": "create",
            "time": event.time,
            "path": event.path,
            "bytes": event.size,
        }
    if isinstance(event, FileDeletion):
        return {"kind": "delete", "time": event.time, "path": event.path}
    if isinstance(event, TraceJob):
        record: Dict[str, Any] = {
            "kind": "job",
            "time": event.submit_time,
            "job_id": event.job_id,
            "inputs": list(event.input_paths),
            "input_bytes": event.input_size,
            "cpu_seconds_per_byte": event.cpu_seconds_per_byte,
        }
        if event.outputs:
            record["outputs"] = [
                {"path": o.path, "bytes": o.size} for o in event.outputs
            ]
        return record
    raise TypeError(f"not a stream event: {event!r}")


def event_from_dict(data: Dict[str, Any]) -> StreamEvent:
    """Inverse of :func:`event_to_dict` (tolerates omitted job fields)."""
    kind = data.get("kind")
    if kind == "create":
        return FileCreation(data["path"], int(data["bytes"]), float(data["time"]))
    if kind == "delete":
        return FileDeletion(data["path"], float(data["time"]))
    if kind == "job":
        return TraceJob(
            job_id=int(data.get("job_id", -1)),
            submit_time=float(data["time"]),
            input_paths=[str(p) for p in data["inputs"]],
            input_size=int(data.get("input_bytes", 0)),
            outputs=[
                OutputSpec(o["path"], int(o["bytes"]))
                for o in data.get("outputs", ())
            ],
            cpu_seconds_per_byte=float(data.get("cpu_seconds_per_byte", 0.0)),
        )
    raise ValueError(f"unknown event kind {kind!r}")


class EventWriter:
    """Incremental writer for the streaming JSONL trace format.

    Events are appended one line at a time — a generator can be drained
    to disk without ever materializing it.  Opening with ``append=True``
    continues an existing file (no header is written); otherwise a
    header line records the workload name, duration, and format version.

    ``path`` may be ``"-"`` for standard output, which turns the writer
    into the producing end of a pipe (``repro scenario run --out -``):
    every line is flushed as it is written (``auto_flush`` defaults to
    True for stdout) so a live consumer sees events as they are
    generated, and a consumer that hangs up early (``SIGPIPE`` →
    :class:`BrokenPipeError`) is treated as a clean stop — :meth:`close`
    and context exit flush what the pipe will still take and swallow the
    broken-pipe error instead of losing buffered events silently.

    Usable as a context manager::

        with EventWriter("trace.jsonl.gz", name="FB", duration=21600) as w:
            for event in stream:
                w.write(event)
            w.write_end()
    """

    def __init__(
        self,
        path: str,
        name: Optional[str] = None,
        duration: Optional[float] = None,
        append: bool = False,
        auto_flush: Optional[bool] = None,
    ) -> None:
        self.path = path
        self._stdout = path == "-"
        if self._stdout:
            self._handle: Optional[IO[str]] = sys.stdout
        else:
            self._handle = _open_text(path, "a" if append else "w")
        self.auto_flush = self._stdout if auto_flush is None else auto_flush
        self.events_written = 0
        self._ended = False
        if not append:
            header = {
                "kind": "header",
                "format_version": EVENT_FORMAT_VERSION,
            }
            if name is not None:
                header["name"] = name
            if duration is not None:
                header["duration"] = duration
            self._write_line(header)

    def _write_line(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise ValueError(f"writer for {self.path} is closed")
        self._handle.write(json.dumps(record) + "\n")
        if self.auto_flush:
            self._handle.flush()

    def write(self, event: StreamEvent) -> None:
        """Append one event as a line."""
        self._write_line(event_to_dict(event))
        self.events_written += 1

    def write_all(self, events: Iterable[StreamEvent]) -> int:
        """Append every event; returns the writer's running event count."""
        for event in events:
            self.write(event)
        return self.events_written

    def write_end(self) -> None:
        """Write the end-of-stream sentinel line (idempotent)."""
        if not self._ended:
            self._write_line({"kind": END_KIND})
            self._ended = True

    def close(self) -> None:
        """Flush and release the underlying handle (stdout stays open)."""
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            handle.flush()
        except BrokenPipeError:
            # The consumer hung up (e.g. `| head`); everything it was
            # willing to read has been delivered — not a data loss.
            pass
        finally:
            if not self._stdout:
                try:
                    handle.close()
                except BrokenPipeError:
                    pass

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def save_events(
    workload: Union[Trace, Iterable[StreamEvent]],
    path: str,
    name: Optional[str] = None,
    duration: Optional[float] = None,
    end_sentinel: bool = False,
) -> int:
    """Stream ``workload`` (a trace or any event iterable) to JSONL.

    Returns the number of events written.  Traces and
    :class:`~repro.workload.streams.WorkloadStream` objects supply their
    own name/duration unless overridden.  ``end_sentinel`` appends the
    end-of-stream line — recommended when the output is a pipe
    (``path="-"``) so the consumer need not rely on EOF.
    """
    if name is None:
        name = getattr(workload, "name", None)
    if duration is None:
        duration = getattr(workload, "duration", None)
    events = workload.events() if isinstance(workload, Trace) else iter(workload)
    with EventWriter(path, name=name, duration=duration) as writer:
        written = writer.write_all(events)
        if end_sentinel:
            writer.write_end()
        return written
