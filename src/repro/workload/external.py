"""External trace ingestion: CSV/JSONL files behind the stream protocol.

Real cluster traces (HDFS audit logs, job-history dumps, cache-simulator
exports) can be replayed through the full system by converting them to
one of two formats and wrapping the file in
:class:`ExternalTraceStream`.  Ingestion is lazy — lines are decoded one
at a time — so trace length is bounded by disk, not memory.  Both
formats are UTF-8, gzip-decompressed for ``*.gz`` paths.

The normative schemas live in ``docs/stream-protocol.md``:

* **JSONL** (``*.jsonl`` / ``*.jsonl.gz``) — one event object per line,
  the wire format of :func:`repro.workload.serialize.event_to_dict`,
  with an optional header and end-sentinel line, decoded by the record
  reader of :class:`~repro.workload.live.LiveStream` (the same framing
  rules and errors as a live transport);
* **CSV** (``*.csv`` / ``*.csv.gz``) — a header row naming the columns,
  one event per row, at most one output per job.

Conveniences applied during ingestion, for both formats (shared with
live replay, :mod:`repro.workload.live`):

* events must be time-ordered (a decreasing timestamp raises
  :class:`~repro.workload.streams.StreamOrderError`, naming the file and,
  for JSONL, the line);
* job ids are assigned sequentially when omitted;
* a job's ``input_bytes``, when omitted or zero, is inferred from the
  sizes of previously created files it reads (O(files) state).
"""

from __future__ import annotations

import csv
import itertools
from typing import Iterator, Optional

from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    OutputSpec,
    StreamEvent,
    TraceJob,
)
from repro.workload.serialize import _open_text
from repro.workload.streams import (
    StreamStats,
    WorkloadStream,
    fill_input_sizes,
    number_jobs,
    ordered,
)

#: Recognized extensions per format (longest match wins).
_FORMATS = {
    ".jsonl": "jsonl",
    ".jsonl.gz": "jsonl",
    ".csv": "csv",
    ".csv.gz": "csv",
}


def detect_format(path: str) -> str:
    """The trace format implied by ``path``'s extension."""
    for suffix, fmt in _FORMATS.items():
        if path.endswith(suffix):
            return fmt
    raise ValueError(
        f"cannot infer trace format from {path!r}; expected one of "
        f"{sorted(set(_FORMATS))} (or pass fmt= explicitly)"
    )


def iter_csv_events(path: str) -> Iterator[StreamEvent]:
    """Lazily decode the CSV trace schema (see module docstring)."""
    with _open_text(path, "r") as handle:
        yield from _csv_events(csv.DictReader(handle), path)


def _csv_events(reader: csv.DictReader, path: str) -> Iterator[StreamEvent]:
    """Decode the rows of ``reader``; bad rows are named ``path:row``."""
    for row_no, row in enumerate(reader, start=2):
        kind = (row.get("kind") or "").strip()
        try:
            time = float(row["time"])
            if kind == "create":
                yield FileCreation(row["path"], int(float(row["bytes"])), time)
            elif kind == "delete":
                yield FileDeletion(row["path"], time)
            elif kind == "job":
                inputs = [
                    p.strip()
                    for p in (row.get("inputs") or "").split(";")
                    if p.strip()
                ]
                outputs = []
                if (row.get("output_path") or "").strip():
                    outputs.append(
                        OutputSpec(
                            row["output_path"].strip(),
                            int(float(row.get("output_bytes") or 0)),
                        )
                    )
                yield TraceJob(
                    job_id=-1,
                    submit_time=time,
                    input_paths=inputs,
                    input_size=int(float(row.get("bytes") or 0)),
                    outputs=outputs,
                    cpu_seconds_per_byte=float(row.get("cpu_seconds_per_byte") or 0.0),
                )
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{row_no}: bad trace row: {exc}") from exc


class ExternalTraceStream(WorkloadStream):
    """A CSV/JSONL trace file as a :class:`WorkloadStream`.

    ``fmt`` defaults to extension detection; ``name`` and ``duration``
    default to the JSONL header when present, then to the file stem and
    a one-pass scan for the last event time.  The scan is O(1) memory
    and **lazy** — it runs only when ``duration`` is first read (the
    runner needs it; a bounded ``stats(max_events=...)`` pass does not)
    — and is skipped entirely when ``duration`` is passed explicitly.

    The duration scan doubles as the statistics walk: whichever of
    ``duration``/``stats()`` runs first caches a full
    :class:`~repro.workload.streams.StreamStats`, so reading both costs
    one decode pass over the file, not two.
    """

    def __init__(
        self,
        path: str,
        fmt: Optional[str] = None,
        name: Optional[str] = None,
        duration: Optional[float] = None,
    ) -> None:
        self.path = path
        self.fmt = fmt or detect_format(path)
        if self.fmt not in ("jsonl", "csv"):
            raise ValueError(f"unknown trace format {self.fmt!r}")
        header = {}
        if self.fmt == "jsonl":
            with open(path, "rb") as handle:
                header = self._reader(handle).header
        if name is None:
            name = header.get("name") or _stem(path)
        self.name = name
        if duration is None:
            duration = header.get("duration")
        self._duration = None if duration is None else float(duration)
        #: Cached unbounded statistics pass (see class docstring).
        self._stats: Optional[StreamStats] = None

    @property
    def duration(self) -> float:
        """The header or explicit duration, else the last event time."""
        if self._duration is None:
            # The duration scan has to decode every event anyway, so run
            # it as the full statistics walk and cache that too — a
            # later stats() call costs nothing extra.
            self._duration = self.stats().last_time
        return self._duration

    def _reader(self, handle):
        """The JSONL reader over ``handle``: header read, errors name the file."""
        # Imported on use: runs that read no trace file skip the transports.
        from repro.workload.live import LiveStream

        compression = "gzip" if self.path.endswith(".gz") else None
        return LiveStream(handle, name=self.path, compression=compression)

    def _ordered_events(self) -> Iterator[StreamEvent]:
        if self.fmt == "csv":
            with _open_text(self.path, "r") as handle:
                reader = csv.DictReader(handle)
                # The physical line, so a quoted newline counts.
                yield from ordered(
                    _csv_events(reader, self.path), self.path, lambda: reader.line_num
                )
            return
        with open(self.path, "rb") as handle:
            reader = self._reader(handle)
            # Named like the reader's own errors: the file and the line.
            yield from ordered(reader._raw_events(), self.path, lambda: reader._line_no)

    def events(self) -> Iterator[StreamEvent]:
        """Decode the file afresh: ordered, sizes filled, jobs numbered."""
        return number_jobs(fill_input_sizes(self._ordered_events()))

    def stats(self, max_events: Optional[int] = None) -> StreamStats:
        """One decode pass of statistics; the unbounded pass is cached."""
        # Not via super(): the base implementation reads self.duration,
        # which would force the full-file scan a bounded pass avoids.
        if max_events is None and self._stats is not None:
            return self._stats
        stats = StreamStats(name=self.name, duration=self._duration or 0.0)
        for event in itertools.islice(self.events(), max_events):
            stats.add(event)
        if self._duration is None:
            # An unbounded pass visits every event, so its last time IS
            # the scan result — cache it and skip the separate read.
            if max_events is None:
                self._duration = stats.last_time
            stats.duration = stats.last_time
        if max_events is None:
            self._stats = stats
        return stats


def _stem(path: str) -> str:
    base = path.rsplit("/", 1)[-1]
    for suffix in sorted(_FORMATS, key=len, reverse=True):
        if base.endswith(suffix):
            return base[: -len(suffix)]
    return base
