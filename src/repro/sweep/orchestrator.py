"""Multi-core sweep execution: crash isolation, timeouts, retry, resume.

The orchestrator fans cells across **one worker process per cell**
(bounded to ``--jobs`` concurrent processes) rather than a long-lived
pool.  That choice buys the three properties a resumable sweep needs
and a shared ``ProcessPoolExecutor`` cannot give without heroics:

* **crash isolation** — a worker dying (segfault, OOM-kill, the test
  suite's SIGKILL hook) takes down exactly one cell; there is no shared
  pool to break, nothing to rebuild, and the remaining cells are
  untouched;
* **per-cell timeouts** — the parent SIGKILLs exactly the over-deadline
  process; a pooled future cannot be cancelled once running;
* **store-as-result-channel** — each child writes its payload to the
  on-disk store atomically and exits; the parent reads results from
  disk, so a severed pipe can never lose a completed cell, and resume
  comes for free (the store *is* the ledger).

Per-cell interpreter startup (~0.1–0.4 s) is the price; sweep cells are
whole-system simulations that run for seconds to minutes, so the
overhead is noise at exactly the scales where parallelism matters.

Determinism: a cell's simulated metrics are a pure function of its
canonical config (seeded RNG end to end), so parallel and serial runs
of the same spec produce bit-identical rows — the test suite and
``benchmarks/bench_sweep.py`` gate this via
:func:`repro.sweep.spec.fingerprint`, which strips only the
host-dependent wall/throughput/RSS fields.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sweep.spec import Cell, SweepSpec
from repro.sweep.store import SweepStore
from repro.sweep.worker import child_main, execute_cell

#: Parent poll interval while waiting on worker processes (seconds).
_POLL_SECONDS = 0.02

Progress = Optional[Callable[[str], None]]


def default_jobs() -> int:
    """The default worker count: every core the scheduler gives us."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _failed_payload(cell: Cell, attempts: int, error: str) -> Dict[str, Any]:
    """The payload recorded for a cell that exhausted its retry budget."""
    return {
        "cell_id": cell.cell_id,
        "cell": dict(cell.config),
        "status": "failed",
        "attempts": attempts,
        "error": error,
        "row": None,
    }


def _run_serial(
    cells: Sequence[Cell],
    store: SweepStore,
    retries: int,
    progress: Progress,
) -> None:
    """The in-process path (``--jobs 1``): the parallel reference point.

    Exceptions are caught and retried like any other cell failure, but
    there is no process boundary, so the SIGKILL/hang crash hooks and
    the per-cell timeout only apply to multi-process runs.
    """
    for cell in cells:
        for attempt in range(1, retries + 2):
            payload = execute_cell(cell, store)
            payload["attempts"] = attempt
            store.write_cell(payload)
            if payload["status"] == "ok":
                break
        if progress:
            progress(f"{payload['status']:>6} {cell.cell_id} {cell.label}")


def _run_parallel(
    cells: Sequence[Cell],
    store: SweepStore,
    jobs: int,
    timeout: Optional[float],
    retries: int,
    progress: Progress,
) -> None:
    """Fan cells across up to ``jobs`` worker processes."""
    ctx = multiprocessing.get_context()
    queue = deque((cell, 1) for cell in cells)
    live: Dict[Any, tuple] = {}

    def finish(cell: Cell, attempt: int, error: str) -> None:
        """Handle one worker exit: success, retry, or final failure."""
        payload = store.read_cell(cell.cell_id)
        if payload is not None and payload.get("status") == "ok":
            payload["attempts"] = attempt
            store.write_cell(payload)
            if progress:
                progress(f"    ok {cell.cell_id} {cell.label}")
            return
        if payload is not None and payload.get("error"):
            error = payload["error"]
        if attempt <= retries:
            queue.append((cell, attempt + 1))
            if progress:
                progress(
                    f" retry {cell.cell_id} {cell.label} "
                    f"(attempt {attempt} failed: {error})"
                )
            return
        store.write_cell(_failed_payload(cell, attempt, error))
        if progress:
            progress(f"failed {cell.cell_id} {cell.label} ({error})")

    while queue or live:
        while queue and len(live) < jobs:
            cell, attempt = queue.popleft()
            proc = ctx.Process(
                target=child_main,
                args=(dict(cell.config), str(store.root), store.name),
                daemon=True,
            )
            proc.start()
            live[proc] = (cell, attempt, time.monotonic())
        time.sleep(_POLL_SECONDS)
        for proc in list(live):
            cell, attempt, started = live[proc]
            if proc.is_alive():
                if timeout is not None and time.monotonic() - started > timeout:
                    proc.kill()
                    proc.join()
                    del live[proc]
                    finish(cell, attempt, f"timeout after {timeout:g}s")
                continue
            proc.join()
            del live[proc]
            exit_note = (
                "worker exited 1 (cell raised)"
                if proc.exitcode == 1
                else f"worker died (exit code {proc.exitcode})"
            )
            finish(cell, attempt, exit_note)
            proc.close()


def run_cells(
    cells: Sequence[Cell],
    store: SweepStore,
    *,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    resume: bool = False,
    progress: Progress = None,
) -> List[Dict[str, Any]]:
    """Execute ``cells`` into ``store``; returns their payloads in order.

    ``resume=True`` skips cells the store already holds as ``ok`` (the
    caller is responsible for having validated the manifest via
    ``store.init``).  ``retries`` bounds *re*-runs after a failure
    (``retries=1`` means at most two attempts per cell).
    """
    jobs = jobs or default_jobs()
    done = store.completed_ids() if resume else set()
    pending = [cell for cell in cells if cell.cell_id not in done]
    if progress:
        progress(
            f"sweep {store.name}: {len(cells)} cell(s), "
            f"reusing {len(cells) - len(pending)}, running {len(pending)} "
            f"(jobs={jobs})"
        )
    if pending:
        if jobs == 1:
            _run_serial(pending, store, retries, progress)
        else:
            _run_parallel(pending, store, jobs, timeout, retries, progress)
    payloads = []
    for cell in cells:
        payload = store.read_cell(cell.cell_id)
        if payload is None:
            payload = _failed_payload(cell, 0, "no payload recorded")
        payloads.append(payload)
    return payloads


def run_rows(cells: Sequence[Cell], jobs: int) -> List[Dict[str, Any]]:
    """Run ``cells`` in a throwaway store; returns their rows in order.

    Raises ``RuntimeError`` naming every cell that still failed after the
    bounded retry, so callers fail loudly rather than report a partial
    matrix.
    """
    with tempfile.TemporaryDirectory(prefix="repro-rows-") as tmp:
        payloads = run_cells(cells, SweepStore(tmp, "rows"), jobs=jobs)
    bad = [p for p in payloads if p["status"] != "ok"]
    if bad:
        raise RuntimeError(
            f"{len(bad)} cell(s) failed: "
            + "; ".join(f"{p['cell_id']}: {p['error']}" for p in bad)
        )
    return [p["row"] for p in payloads]


def run_sweep(
    spec: SweepSpec,
    *,
    store_root: Optional[str] = None,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    resume: bool = False,
    progress: Progress = None,
) -> Dict[str, Any]:
    """Expand ``spec``, execute every cell, and return the merged report.

    With ``store_root=None`` the run uses an ephemeral temporary store
    (no resume, nothing left behind; ``repro sweep run`` without
    ``--store``).  The merged report is also persisted as
    ``report.json`` inside persistent stores.
    """
    from repro.sweep.report import merge_report

    cells = spec.expand()
    wall_start = time.perf_counter()
    if store_root is None:
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            store = SweepStore(tmp, spec.name)
            store.init(spec, cells, resume=False)
            payloads = run_cells(
                cells,
                store,
                jobs=jobs,
                timeout=timeout,
                retries=retries,
                resume=False,
                progress=progress,
            )
            return merge_report(
                spec,
                payloads,
                jobs=jobs or default_jobs(),
                sweep_wall_seconds=time.perf_counter() - wall_start,
            )
    store = SweepStore(store_root, spec.name)
    store.init(spec, cells, resume=resume)
    payloads = run_cells(
        cells,
        store,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        resume=resume,
        progress=progress,
    )
    report = merge_report(
        spec,
        payloads,
        jobs=jobs or default_jobs(),
        sweep_wall_seconds=time.perf_counter() - wall_start,
    )
    store.write_report(report)
    return report
