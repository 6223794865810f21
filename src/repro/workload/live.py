"""Live workload replay: the stream protocol over pipes and sockets.

:class:`LiveStream` turns a *running* event producer into a
:class:`~repro.workload.streams.WorkloadStream`: it decodes the
streaming JSONL wire schema (the line format
:mod:`repro.workload.serialize` writes — see ``docs/stream-protocol.md``)
line by line from a pipe, FIFO, socket, or any file-like object, and the
runner's one-event-lookahead pump drives it exactly like an offline
stream.  This is the online half of the paper's claim: policies adapt
*while* the workload arrives, not after it has been materialized.

The canonical demo pipes a scenario generator straight into the system::

    python -m repro scenario run fb --out - | python -m repro live -

Differences from offline streams, all of which come from the source
being a live transport rather than a seekable file:

* **Single-shot** — a pipe cannot be rewound, so :meth:`events` may be
  consumed once; a second iteration raises.
* **Out-of-order tolerance** — real producers (multiple appenders, UDP
  relays, clock skew) deliver events slightly out of order.  A bounded
  reorder buffer of ``reorder_depth`` events re-sorts within the bound;
  an event arriving *behind* what has already been emitted is **late**
  and handled by the ``late`` policy: ``"clamp"`` (default) rewrites its
  timestamp to the last emitted time, ``"drop"`` discards it, ``"error"``
  raises :class:`~repro.workload.streams.StreamOrderError`.
* **Truncation** — on a non-seekable source a final line without its
  newline means the producer died mid-record, and the stream fails;
  a ``{"kind": "end"}`` sentinel ends such a stream cleanly.
* **Unknown duration** — when the header carries no duration the stream
  reports ``float("inf")`` and the runner ends the submission window
  when the stream is exhausted instead of at a nominal end time.
  (:class:`~repro.engine.runner.RunResult` serializes the open-ended
  case as ``duration=None``, never JSON ``Infinity``.)
* **Pacing** — ``pace`` meters replay against the wall clock
  (:func:`paced_events`): ``pace=1.0`` consumes a recorded file in real
  time, turning any offline trace into a live-looking producer.  The
  long-lived multi-tenant daemon built on top of this module lives in
  :mod:`repro.service` (``repro serve``).

Its record reader is the package's only JSONL decoder: trace files
(:class:`~repro.workload.external.ExternalTraceStream`) and service
tenants use it too, so every entry point shares its framing rules and
its ``<source>: <problem> at line N`` errors, and live replay of a
serialized scenario is event-for-event identical to replaying the file
offline (property-tested in ``tests/test_live.py``).
"""

from __future__ import annotations

import gzip
import heapq
import io
import json
import socket as socket_module
import sys
import time as time_module
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, IO, Iterator, List, Optional, Tuple, Union

from repro.workload.jobs import (
    StreamEvent,
    TraceJob,
    event_sort_key,
    event_time,
)
from repro.workload.serialize import (
    END_KIND,
    EVENT_FORMAT_VERSION,
    event_from_dict,
)
from repro.workload.streams import (
    StreamOrderError,
    WorkloadStream,
    fill_input_sizes,
    number_jobs,
)

LATE_POLICIES = ("clamp", "drop", "error")

#: Source kinds :func:`open_live_source` understands (the ``repro list
#: live-transports`` catalog dimension).  ``stdin`` is ``-``; ``file``
#: covers regular files and FIFOs (``.gz`` aware); ``tcp`` dials out to
#: a producer; ``listen`` binds a port and waits for one producer to
#: connect (the single-session half of the service's data plane — the
#: daemon in :mod:`repro.service` accepts many).
LIVE_TRANSPORTS = ("stdin", "file", "fifo", "tcp", "listen")

#: Default reorder-buffer depth (events held back for re-sorting).
DEFAULT_REORDER_DEPTH = 64

#: Longest wire record accepted, in characters without its newline.  A
#: longer line fails the stream instead of being buffered whole.
MAX_RECORD_LENGTH = 1 << 20


@dataclass
class LiveStats:
    """Counters describing what the live transport delivered.

    The disorder signal is ``events_reordered`` (arrivals whose sort key
    was behind something already received — zero for an in-order
    producer) together with ``max_disorder_seconds`` (how far behind the
    newest-seen timestamp such an arrival was; compare it against the
    reorder bound's reach to judge whether ``reorder_depth`` is sized
    right).  ``max_buffer_depth`` is plain buffer occupancy — it
    saturates at the bound for any stream longer than the buffer, so it
    only says how much of the allowance was exercised.
    """

    events_received: int = 0
    events_emitted: int = 0
    events_reordered: int = 0
    max_disorder_seconds: float = 0.0
    events_late: int = 0
    events_dropped: int = 0
    events_clamped: int = 0
    max_buffer_depth: int = 0
    end_sentinel_seen: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """The counters as a flat JSON-ready mapping."""
        return asdict(self)


def open_live_source(
    spec: Union[str, IO[str]], compression: Optional[str] = None
) -> Tuple[IO[str], bool, bool]:
    """Resolve a source spec into ``(handle, owned, raw_seekable)``.

    ``spec`` may be an open file-like object (used as-is unless
    ``compression`` asks for a gzip wrap), ``"-"`` for standard input, a
    ``tcp://host:port`` address to connect to, ``listen://[host:]port``
    to bind and wait for one producer to connect (host defaults to all
    interfaces; the accepted connection becomes the source and the
    listening socket closes — one session per listen, see
    :mod:`repro.service` for the many-session daemon), or a filesystem
    path (regular files and FIFOs both work; ``*.gz`` implies gzip).

    ``owned`` says whether closing is this module's job: True only for
    transports opened *here* (paths, tcp connections) — caller-supplied
    handles and the process's stdin are never closed out from under
    their owner.  ``raw_seekable`` reflects the underlying transport
    *before* any gzip wrapping (``GzipFile`` emulates forward seeks, so
    asking the wrapper would call a pipe seekable).
    """
    if not isinstance(spec, str):
        return _wrap_compression(spec, compression), False, _seekable(spec)
    if spec == "-":
        # Wrap the binary buffer so gzip-over-stdin works uniformly.
        raw = sys.stdin.buffer
        return _wrap_compression(raw, compression), False, _seekable(raw)
    if spec.startswith("tcp://"):
        host, port = parse_endpoint(spec, "tcp")
        if not host:
            raise ValueError(f"bad live source address {spec!r}; want tcp://host:port")
        sock = socket_module.create_connection((host, port))
        handle = sock.makefile("rb")
        # makefile() reference-counts the fd: dropping our socket handle
        # here means closing the file (LiveStream.close) closes the
        # connection instead of leaking it until garbage collection.
        sock.close()
        return _wrap_compression(handle, compression), True, False
    if spec.startswith("listen://"):
        handle = _accept_one(spec)
        return _wrap_compression(handle, compression), True, False
    if compression is None and spec.endswith(".gz"):
        compression = "gzip"
    raw = open(spec, "rb")
    return _wrap_compression(raw, compression), True, _seekable(raw)


def parse_endpoint(spec: str, scheme: str) -> Tuple[str, int]:
    """Split ``scheme://[host:]port`` into ``(host, port)``.

    ``host`` defaults to ``""`` (all interfaces) for ``listen://`` specs
    given as a bare port; bracketed IPv6 literals are unwrapped.  Raises
    :class:`ValueError` for anything that does not end in a numeric
    port.
    """
    prefix = f"{scheme}://"
    if not spec.startswith(prefix):
        raise ValueError(f"bad {scheme} source address {spec!r}")
    host, _, port = spec[len(prefix) :].rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]  # bracketed IPv6 literal, e.g. tcp://[::1]:9000
    if not port.isdigit():
        raise ValueError(
            f"bad live source address {spec!r}; want {scheme}://host:port"
        )
    return host, int(port)


def _accept_one(spec: str):
    """Bind ``listen://[host:]port``, accept one producer, return its
    binary read handle (the listening socket closes after the accept)."""
    host, port = parse_endpoint(spec, "listen")
    server = socket_module.create_server(
        (host, port), family=socket_module.AF_INET, reuse_port=False
    )
    try:
        conn, _addr = server.accept()
    finally:
        server.close()
    handle = conn.makefile("rb")
    # As for tcp://: makefile() reference-counts the fd, so dropping the
    # socket object means closing the file closes the connection.
    conn.close()
    return handle


def paced_events(
    events: Iterator["StreamEvent"],
    pace: float,
    clock: Callable[[], float] = time_module.monotonic,
    sleep: Callable[[float], None] = time_module.sleep,
) -> Iterator["StreamEvent"]:
    """Meter an event iterator against the wall clock.

    ``pace`` is the replay speed in simulated seconds per wall second:
    ``1.0`` replays in real time, ``60`` at a minute per second.  Each
    event is withheld until ``t0 + event_time / pace`` where ``t0`` is
    the wall time of the first ``next()`` call, so a consumer (the
    runner's pump, or a service feeder thread) sees events arrive as a
    live producer would emit them.  Events already past their deadline
    flow through without sleeping — pacing only ever delays, it never
    reorders or drops.  ``clock``/``sleep`` exist for deterministic
    tests.
    """
    if pace <= 0:
        raise ValueError(f"pace must be > 0 (sim seconds per wall second), got {pace}")
    start: Optional[float] = None
    for event in events:
        if start is None:
            start = clock()
        deadline = start + event_time(event) / pace
        delay = deadline - clock()
        if delay > 0:
            sleep(delay)
        yield event


def _seekable(handle) -> bool:
    """Whether the raw transport is seekable (False when undeterminable)."""
    try:
        return bool(handle.seekable())
    except (AttributeError, ValueError):
        return False


def _wrap_compression(handle, compression: Optional[str]) -> IO[str]:
    """Text-mode view of ``handle``, gunzipping on the fly if asked."""
    if compression not in (None, "gzip"):
        raise ValueError(f"unknown compression {compression!r}; want gzip or None")
    # JSON text is UTF-8 whatever the host locale says.
    if compression == "gzip":
        return gzip.open(getattr(handle, "buffer", handle), "rt", encoding="utf-8")
    if isinstance(handle, io.TextIOBase) or hasattr(handle, "encoding"):
        return handle
    return io.TextIOWrapper(handle, encoding="utf-8")


def _clamped(event: StreamEvent, time: float) -> StreamEvent:
    """A copy of ``event`` moved to ``time`` (jobs are mutated in place:
    they are per-stream objects, never shared)."""
    if isinstance(event, TraceJob):
        event.submit_time = time
        return event
    return replace(event, time=time)


class LiveStream(WorkloadStream):
    """A :class:`WorkloadStream` fed by a live JSONL transport.

    Constructing the stream reads (and blocks on) the first line to
    pick up the optional header — producers write it immediately, so in
    practice this returns as soon as the transport connects.  ``name``
    and ``duration`` default to the header values; without a header
    duration the stream reports ``inf`` and the runner treats stream
    exhaustion as the end of the submission window.
    """

    def __init__(
        self,
        source: Union[str, IO[str]],
        reorder_depth: int = DEFAULT_REORDER_DEPTH,
        late: str = "clamp",
        name: Optional[str] = None,
        duration: Optional[float] = None,
        compression: Optional[str] = None,
        pace: Optional[float] = None,
    ) -> None:
        if late not in LATE_POLICIES:
            raise ValueError(f"late policy {late!r} not in {LATE_POLICIES}")
        if reorder_depth < 0:
            raise ValueError(f"reorder_depth must be >= 0, got {reorder_depth}")
        if pace is not None and pace <= 0:
            raise ValueError(f"pace must be > 0 or None, got {pace}")
        #: Wall-clock replay speed in simulated seconds per wall second
        #: (None = as fast as the transport delivers); see
        #: :func:`paced_events`.
        self.pace = pace
        # On a seekable source (a finished regular file) EOF is
        # unambiguous, so a final line without its newline is accepted;
        # on pipes/sockets it means the producer died mid-record.
        self._handle, self._owned, self._seekable = open_live_source(
            source, compression
        )
        self.reorder_depth = int(reorder_depth)
        self.late = late
        self.live_stats = LiveStats()
        self._consumed = False
        self._line_no = 0
        self._pushback: Optional[Dict[str, Any]] = None
        # Until a header names the workload, errors name the source.
        self.name = name or (source if isinstance(source, str) else "live")
        try:
            #: The header record as read (``{}`` when the stream has none).
            self.header = self._read_header()
        except Exception:
            # No stream object reaches the caller, so a transport this
            # module opened would otherwise leak.
            self.close()
            raise
        if name is None:
            self.name = self.header.get("name") or "live"
        if duration is None:
            duration = self.header.get("duration")
        self.duration = float("inf") if duration is None else float(duration)

    # -- wire decoding -------------------------------------------------------
    def _read_record(self) -> Optional[Dict[str, Any]]:
        """The next JSONL record as a dict, or None at end of stream."""
        if self._pushback is not None:
            record, self._pushback = self._pushback, None
            return record
        line = ""
        # Loop (not recurse): producers may send blank-line keepalives.
        while not line.strip():
            line = self._handle.readline(MAX_RECORD_LENGTH + 1)
            if not line:
                return None
            self._line_no += 1
            # Checked before the keepalive test: a chunk that is only
            # whitespace is still part of an oversized line.
            if len(line) > MAX_RECORD_LENGTH and not line.endswith("\n"):
                raise ValueError(
                    f"{self.name}: oversized record at line {self._line_no} "
                    f"(longer than {MAX_RECORD_LENGTH} characters)"
                )
        stripped = line.strip()
        if not line.endswith("\n") and not self._seekable:
            # On a pipe/socket, a final line without its newline means
            # the producer died mid-record (truncated pipe); even if it
            # happens to parse, it must not be trusted as complete.
            raise ValueError(
                f"{self.name}: truncated record at line {self._line_no} "
                f"(no trailing newline): {stripped[:80]!r}"
            )
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{self.name}: corrupt record at line {self._line_no}: {exc}"
            ) from exc
        if type(record) is dict:
            return record
        # Rejected here so that a bare ``null`` line cannot pass for EOF.
        raise ValueError(
            f"{self.name}: bad record at line {self._line_no}: not an object"
        )

    def _read_header(self) -> Dict[str, Any]:
        """The leading header record, or ``{}`` (pushing back what it read)."""
        record = self._read_record()
        if record is None or record.get("kind") != "header":
            self._pushback = record
            return {}
        version = record.get("format_version")
        if version != EVENT_FORMAT_VERSION:
            raise ValueError(
                f"{self.name}: unsupported stream format version {version!r} "
                f"at line {self._line_no}"
            )
        try:
            float(record.get("duration") or 0)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{self.name}: bad header at line {self._line_no}: duration: {exc}"
            ) from exc
        return record

    def _raw_events(self) -> Iterator[StreamEvent]:
        """Decode records into events, in arrival order, until EOF or ``end``."""
        while True:
            record = self._read_record()
            if record is None:
                return
            kind = record.get("kind")
            if kind == END_KIND:
                self.live_stats.end_sentinel_seen = True
                return
            if kind == "header":
                raise ValueError(
                    f"{self.name}: misplaced header at line {self._line_no}"
                )
            try:
                event = event_from_dict(record)
            except Exception as exc:  # whatever the decode raises, it is the record
                raise ValueError(
                    f"{self.name}: bad record at line {self._line_no}: {exc!r}"
                ) from exc
            yield event

    # -- reorder buffer ------------------------------------------------------
    def _reordered(self) -> Iterator[StreamEvent]:
        """Re-sort events within the bounded buffer; apply the late policy.

        The buffer holds at most ``reorder_depth`` events keyed by
        :func:`event_sort_key` (arrival order breaks ties, so an already
        ordered stream passes through unchanged).  Whatever cannot be
        fixed within the bound is *late*: by construction emission times
        are non-decreasing, so downstream consumers see a well-formed
        stream whichever policy runs.
        """
        stats = self.live_stats
        heap: List[Tuple[Tuple[float, int], int, StreamEvent]] = []
        arrival = 0
        last_emitted = -float("inf")
        newest_key = (-float("inf"), 0)
        newest_time = -float("inf")

        def pop() -> StreamEvent:
            nonlocal last_emitted
            _, _, event = heapq.heappop(heap)
            last_emitted = event_time(event)
            stats.events_emitted += 1
            return event

        for event in self._raw_events():
            stats.events_received += 1
            key = event_sort_key(event)
            if key < newest_key:
                # Genuinely out of order relative to what has already
                # arrived (the buffer will resort it if within bound).
                stats.events_reordered += 1
                stats.max_disorder_seconds = max(
                    stats.max_disorder_seconds, newest_time - event_time(event)
                )
            else:
                newest_key = key
                newest_time = event_time(event)
            if event_time(event) < last_emitted:
                stats.events_late += 1
                if self.late == "error":
                    raise StreamOrderError(
                        f"{self.name}: event at t={event_time(event)} arrived "
                        f"after t={last_emitted} was emitted (beyond the "
                        f"reorder bound of {self.reorder_depth})"
                    )
                if self.late == "drop":
                    stats.events_dropped += 1
                    continue
                stats.events_clamped += 1
                event = _clamped(event, last_emitted)
            heapq.heappush(heap, (event_sort_key(event), arrival, event))
            arrival += 1
            while len(heap) > self.reorder_depth:
                yield pop()
            stats.max_buffer_depth = max(stats.max_buffer_depth, len(heap))
        while heap:
            yield pop()

    # -- WorkloadStream ------------------------------------------------------
    def events(self) -> Iterator[StreamEvent]:
        """Decode, re-sort and number the transport's events (once)."""
        if self._consumed:
            raise ValueError(
                f"live stream {self.name!r} is single-shot: a pipe or socket "
                "cannot be replayed (serialize it to a file to re-run)"
            )
        self._consumed = True
        events = number_jobs(fill_input_sizes(self._reordered()))
        if self.pace is not None:
            events = paced_events(events, self.pace)
        return events

    def close(self) -> None:
        """Close the transport if this stream opened it.

        Caller-supplied handles and stdin are the caller's to close —
        closing our text/gzip view of them would close the underlying
        stream out from under its owner.
        """
        if self._owned:
            self._handle.close()

    def __enter__(self) -> "LiveStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
