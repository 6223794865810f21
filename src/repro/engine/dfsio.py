"""DFSIO benchmark runner (paper Sec 3.1, Fig 2).

One sequential writer per worker node writes 1GB files round-robin until
the total volume is reached, then one reader per node reads them back.
Per-file completion records yield the throughput-vs-data-volume curves:
average per-node throughput within consecutive data windows, exposing the
drop when the memory tier fills (~42-44GB aggregate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import InsufficientSpaceError
from repro.common.units import GB
from repro.engine.iomodel import WriteLeg
from repro.engine.runner import SystemConfig, WorkloadRunner
from repro.workload.dfsio import DfsioSpec
from repro.workload.jobs import Trace


@dataclass
class DfsioResult:
    """Per-file I/O records of one DFSIO phase."""

    label: str
    #: (cumulative bytes at completion, file bytes, duration seconds)
    write_records: List[Tuple[int, int, float]] = field(default_factory=list)
    read_records: List[Tuple[int, int, float]] = field(default_factory=list)

    def throughput_curve(
        self,
        records: List[Tuple[int, int, float]],
        num_nodes: int,
        window: int = 6 * GB,
    ) -> List[Tuple[float, float]]:
        """Windowed average throughput per node: (GB so far, MB/s/node)."""
        curve: List[Tuple[float, float]] = []
        window_bytes = 0
        window_time = 0.0
        cumulative = 0
        for _, size, duration in records:
            cumulative += size
            window_bytes += size
            window_time += duration
            if window_bytes >= window:
                # Writers run in parallel: per-node rate is a single
                # writer's rate, which equals bytes/duration of its files.
                mbps = window_bytes / window_time / (1024 * 1024)
                curve.append((cumulative / GB, mbps))
                window_bytes = 0
                window_time = 0.0
        if window_bytes > 0 and window_time > 0:
            mbps = window_bytes / window_time / (1024 * 1024)
            curve.append((cumulative / GB, mbps))
        return curve

    def write_curve(self, num_nodes: int) -> List[Tuple[float, float]]:
        return self.throughput_curve(self.write_records, num_nodes)

    def read_curve(self, num_nodes: int) -> List[Tuple[float, float]]:
        return self.throughput_curve(self.read_records, num_nodes)


class DfsioRunner:
    """Drives the write and read phases on a :class:`WorkloadRunner` stack."""

    def __init__(
        self,
        config: SystemConfig,
        spec: Optional[DfsioSpec] = None,
    ) -> None:
        self.spec = spec or DfsioSpec()
        # Reuse the runner's system assembly with an empty trace.
        self.runner = WorkloadRunner(Trace(name="dfsio", duration=0.0), config)
        self.result = DfsioResult(label=config.label)

    # -- write phase ------------------------------------------------------------
    def run(self) -> DfsioResult:
        self._run_writes()
        self._run_reads()
        if self.runner.manager is not None:
            self.runner.manager.stop()
        return self.result

    def _drain(self, active: List[int]) -> None:
        """Step the simulator until the phase's workers all finish.

        ``sim.run()`` cannot be used: the tiering framework's periodic
        timers reschedule forever, so the loop is bounded by the phase's
        own completion counter instead.
        """
        sim = self.runner.sim
        guard = 0
        while active[0] > 0 and sim.step():
            guard += 1
            if guard > 50_000_000:  # pragma: no cover - safety valve
                raise RuntimeError("DFSIO phase failed to converge")

    def _run_writes(self) -> None:
        sim = self.runner.sim
        nodes = [n.node_id for n in self.runner.topology.nodes]
        paths = self.spec.file_paths()
        cumulative = [0]  # closed over; bytes completed so far
        assignments: List[List[str]] = [[] for _ in nodes]
        for i, path in enumerate(paths):
            assignments[i % len(nodes)].append(path)
        active = [sum(1 for queue in assignments if queue)]

        def start_writer(node_id: str, queue: List[str]) -> None:
            if not queue:
                active[0] -= 1
                return
            path = queue.pop(0)
            start = sim.now()
            try:
                file = self.runner.master.create_file(
                    path, self.spec.file_size, writer_node=node_id
                )
            except InsufficientSpaceError:
                active[0] -= 1
                return
            legs = []
            size = 0
            for block in self.runner.master.blocks.blocks_of(file):
                size += block.size
                for replica in block.replica_list():
                    legs.append(
                        WriteLeg(
                            device=self.runner.iomodel.device(replica.device_id),
                            remote=replica.node_id != node_id,
                            node_id=replica.node_id,
                        )
                    )

            def finish() -> None:
                cumulative[0] += size
                self.result.write_records.append(
                    (cumulative[0], size, sim.now() - start)
                )
                start_writer(node_id, queue)

            self.runner.iomodel.write(
                size, legs, node_id, finish, name=f"dfsio-write-{path}"
            )

        for node_id, queue in zip(nodes, assignments):
            if queue:
                start_writer(node_id, queue)
        self._drain(active)

    # -- read phase --------------------------------------------------------------
    def _run_reads(self) -> None:
        sim = self.runner.sim
        nodes = [n.node_id for n in self.runner.topology.nodes]
        paths = [p for p in self.spec.file_paths() if self.runner.master.exists(p)]
        cumulative = [0]
        assignments: List[List[str]] = [[] for _ in nodes]
        for i, path in enumerate(paths):
            assignments[i % len(nodes)].append(path)
        active = [sum(1 for queue in assignments if queue)]

        def start_reader(node_id: str, queue: List[str]) -> None:
            if not queue:
                active[0] -= 1
                return
            path = queue.pop(0)
            start = sim.now()
            plan = self.runner.master.plan_read(path, reader_node=node_id)
            remaining = [len(plan.reads)]
            size = plan.total_bytes

            def block_done() -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    cumulative[0] += size
                    self.result.read_records.append(
                        (cumulative[0], size, sim.now() - start)
                    )
                    start_reader(node_id, queue)

            if not plan.reads:
                start_reader(node_id, queue)
                return
            # The one caller that still tells the pricing models apart.
            # Snapshot prices every block of the file when the file is
            # opened and schedules them back to back, so the file's open
            # streams share its devices; fair share starts each block's
            # flow when the previous one drains.  Pricing snapshot blocks
            # one by one through ``IoModel.read`` would move Fig 2.
            if self.runner.iomodel.fairshare:
                # Blocks are read strictly one after another: each flow
                # starts when the previous one drains, so the client
                # only ever contends with one in-flight block.
                def start_block(index: int) -> None:
                    read = plan.reads[index]
                    remote = read.replica.node_id != node_id

                    def done() -> None:
                        block_done()
                        if index + 1 < len(plan.reads):
                            start_block(index + 1)

                    self.runner.iomodel.read(
                        read.block.size,
                        read.replica.device_id,
                        remote,
                        node_id,
                        read.replica.node_id,
                        on_complete=done,
                        name=f"dfsio-read-{path}",
                    )

                start_block(0)
                return
            # Blocks of one file are read sequentially by the client.
            delay = 0.0
            for read in plan.reads:
                remote = read.replica.node_id != node_id
                duration, release = self.runner.iomodel.start_read(
                    read.block.size,
                    read.replica.device_id,
                    remote,
                    node_id,
                    read.replica.node_id,
                )
                delay += duration

                def make_finish(rel):
                    def finish() -> None:
                        rel()
                        block_done()

                    return finish

                sim.after(delay, make_finish(release), name=f"dfsio-read-{path}")

        for node_id, queue in zip(nodes, assignments):
            if queue:
                start_reader(node_id, queue)
        self._drain(active)
