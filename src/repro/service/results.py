"""Durable tenant-results log for the long-lived daemon.

``repro serve --results-log PATH`` appends one JSON line per *done*
tenant (finished, failed, or force-closed), so a restarted daemon can
still report the tenants served by earlier incarnations: the control
plane's ``GET /tenants`` includes the loaded history under ``"past"``.

The format is append-only JSONL — one self-contained record per line,
written with :func:`repro.obs.export.trace_line` (sorted keys, compact
separators) and flushed immediately, so a crash mid-run loses at most
the line being written and the file is safe to tail.  Records carry the
wall-clock completion time, the tenant's control-plane projection, and
its per-tenant metrics.

Each tenant is logged twice on a clean run: once when its *stream* ends
(crash-durable, but the shared engine may still be replaying buffered
events, so metrics can be partial) and once more at engine shutdown
with ``"final": true`` and complete metrics.  :meth:`ResultsLog.load`
collapses the pair — keyed by tenant id plus admission wall time, so
records from different daemon incarnations never merge — keeping the
final record when both survived.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List

from repro.obs.export import trace_line
from repro.service.tenants import Tenant


class ResultsLog:
    """Append-only JSONL log of completed-tenant records."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()

    def load(self) -> List[Dict[str, Any]]:
        """One record per tenant from prior (and current) daemon runs.

        Stream-end and final records for the same admission collapse to
        the later one.  Tolerant of a missing file (first run) and of a
        trailing truncated line (crash mid-append): both simply shorten
        the list.
        """
        import json

        if not os.path.exists(self.path):
            return []
        records: Dict[Any, Dict[str, Any]] = {}
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                tenant = record.get("tenant") or {}
                key = (tenant.get("id"), record.get("admitted"))
                records[key] = record
        return list(records.values())

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record and flush it to disk."""
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(trace_line(record) + "\n")
                handle.flush()

    def record_tenant(self, tenant: Tenant, final: bool = False) -> Dict[str, Any]:
        """Append the done-tenant record for ``tenant`` and return it.

        ``final=True`` marks the engine-shutdown pass, whose metrics are
        complete (every buffered event has been replayed by then).
        """
        record = {
            "wall": time.time(),
            "admitted": tenant.admitted_wall,
            "final": final,
            "tenant": tenant.as_dict(),
            "metrics": tenant.collector.headline(),
        }
        self.append(record)
        return record
