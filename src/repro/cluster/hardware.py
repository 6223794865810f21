"""Storage tiers, media performance profiles, and devices.

The tier model is data-driven: a :class:`TierSpec` describes one tier
(name, ordering level, media performance, provisioning defaults) and a
:class:`TierHierarchy` is an ordered, immutable registry of specs built
per cluster.  Built-in presets cover the paper's 3-tier testbed
(``default3``), a degenerate 2-tier setup (``mem-hdd``), a 4-tier NVMe
hierarchy (``nvme4``), and a 5-tier hierarchy with a rack-remote cold
tier (``remote5``).  Custom hierarchies can be registered with
:func:`register_hierarchy`.

Bandwidth numbers for the default tiers are calibrated so the DFSIO
experiment (Fig 2) produces paper-shaped throughput ratios: an HDD-only
pipeline bottlenecks writes around ~90 MB/s per node, while serving
reads from memory/SSD replicas yields the ~2-4x read speedups reported
for HDFS-with-cache and OctopusFS.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.common.errors import InsufficientSpaceError
from repro.common.units import GB, MB, TB


@dataclass(frozen=True)
class MediaProfile:
    """Performance characteristics of one storage medium.

    ``read_bw``/``write_bw`` are sustained sequential bandwidths in
    bytes/second for a single stream; ``seek_latency`` is the fixed
    per-request cost in seconds.
    """

    read_bw: float
    write_bw: float
    seek_latency: float

    def read_time(self, num_bytes: int) -> float:
        """Seconds to read ``num_bytes`` sequentially from this medium."""
        return self.seek_latency + num_bytes / self.read_bw

    def write_time(self, num_bytes: int) -> float:
        """Seconds to write ``num_bytes`` sequentially to this medium."""
        return self.seek_latency + num_bytes / self.write_bw


@dataclass(frozen=True, eq=False)
class TierSpec:
    """One tier of a storage hierarchy.

    Identity semantics: two specs are equal only if they are the same
    object, which holds because hierarchies are built once and shared
    (see :func:`get_hierarchy`).  Ordering is by ``level``: lower level =
    faster tier, so ``min()`` over tiers picks the fastest and
    comparisons read naturally (``memory < ssd < hdd``).

    ``default_capacity``/``default_devices`` are per-node provisioning
    defaults used by the cluster builders; ``score`` is the relative
    throughput attractiveness consumed by the multi-objective placement;
    ``remote`` marks network-attached tiers (e.g. a rack-remote cold
    store) that baseline HDFS-style placement must not use.
    """

    name: str
    media: MediaProfile
    default_capacity: int
    default_devices: int = 1
    score: float = 0.0
    remote: bool = False
    #: Position in the owning hierarchy, assigned by TierHierarchy
    #: (0 = highest/fastest).  A spec outside a hierarchy has level -1.
    level: int = -1

    # -- hierarchy navigation ------------------------------------------------
    @property
    def hierarchy(self) -> "TierHierarchy":
        """The hierarchy that owns this spec (raises if unbound)."""
        owner = getattr(self, "_hierarchy", None)
        if owner is None:
            raise ValueError(f"tier {self.name!r} is not bound to a TierHierarchy yet")
        return owner

    @property
    def is_highest(self) -> bool:
        """True for the fastest tier of the owning hierarchy."""
        return self.hierarchy.tiers[0] is self

    @property
    def is_lowest(self) -> bool:
        """True for the slowest tier of the owning hierarchy."""
        return self.hierarchy.tiers[-1] is self

    @property
    def higher(self) -> Optional["TierSpec"]:
        """The next faster tier, or None at the top."""
        return None if self.is_highest else self.hierarchy.tiers[self.level - 1]

    @property
    def lower(self) -> Optional["TierSpec"]:
        """The next slower tier, or None at the bottom."""
        return None if self.is_lowest else self.hierarchy.tiers[self.level + 1]

    def higher_tiers(self) -> Tuple["TierSpec", ...]:
        """Tiers strictly faster than this one, fastest first."""
        return self.hierarchy.tiers[: self.level]

    def lower_tiers(self) -> Tuple["TierSpec", ...]:
        """Tiers strictly slower than this one, fastest first."""
        return self.hierarchy.tiers[self.level + 1 :]

    # -- ordering (by level; only within one hierarchy) -----------------------
    def __lt__(self, other: "TierSpec") -> bool:
        return self.level < other.level

    def __le__(self, other: "TierSpec") -> bool:
        return self.level <= other.level

    def __gt__(self, other: "TierSpec") -> bool:
        return self.level > other.level

    def __ge__(self, other: "TierSpec") -> bool:
        return self.level >= other.level

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TierSpec({self.name}, level={self.level})"


class TierHierarchy:
    """An ordered, immutable set of tiers, fastest first.

    The constructor re-binds the given specs: each is copied with its
    ``level`` set to its position and its name upper-cased, so the
    hierarchy fully owns its specs and identity comparisons are safe.
    """

    def __init__(self, name: str, specs: Sequence[TierSpec]) -> None:
        if not specs:
            raise ValueError("a hierarchy needs at least one tier")
        names = [s.name.upper() for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in hierarchy {name!r}")
        self.name = name
        # Tiers without an explicit placement score get one derived from
        # their media bandwidth relative to the fastest tier, so custom
        # hierarchies never silently zero the placement throughput term.
        top_bw = max(s.media.read_bw for s in specs)
        bound: List[TierSpec] = []
        for level, spec in enumerate(specs):
            score = spec.score if spec.score > 0 else spec.media.read_bw / top_bw
            copy = dataclasses.replace(
                spec, name=spec.name.upper(), level=level, score=score
            )
            object.__setattr__(copy, "_hierarchy", self)
            bound.append(copy)
        self.tiers: Tuple[TierSpec, ...] = tuple(bound)
        self._by_name: Dict[str, TierSpec] = {s.name: s for s in bound}
        self._local_tiers: Tuple[TierSpec, ...] = tuple(
            t for t in bound if not t.remote
        )

    # -- lookups --------------------------------------------------------------
    @property
    def highest(self) -> TierSpec:
        """The fastest tier (level 0)."""
        return self.tiers[0]

    @property
    def lowest(self) -> TierSpec:
        """The slowest tier."""
        return self.tiers[-1]

    @property
    def local_tiers(self) -> Tuple[TierSpec, ...]:
        """Tiers backed by node-local media (non-remote), fastest first."""
        return self._local_tiers

    @property
    def lowest_local(self) -> TierSpec:
        """The slowest node-local tier (HDFS-style baseline placement)."""
        local = self.local_tiers
        if not local:
            raise ValueError(f"hierarchy {self.name!r} has no local tiers")
        return local[-1]

    def tier(self, name: Union[str, TierSpec]) -> TierSpec:
        """Look a tier up by (case-insensitive) name."""
        if isinstance(name, TierSpec):
            return name
        key = str(name).upper()
        try:
            return self._by_name[key]
        except KeyError:
            raise KeyError(
                f"hierarchy {self.name!r} has no tier {name!r}; "
                f"tiers are {[t.name for t in self.tiers]}"
            ) from None

    def adjacent_pairs(self) -> List[Tuple[TierSpec, TierSpec]]:
        """(higher, lower) pairs for every adjacent tier boundary."""
        return list(zip(self.tiers, self.tiers[1:]))

    # -- container protocol ----------------------------------------------------
    def __iter__(self) -> Iterator[TierSpec]:
        return iter(self.tiers)

    def __len__(self) -> int:
        return len(self.tiers)

    def __getitem__(self, index: int) -> TierSpec:
        return self.tiers[index]

    def __contains__(self, item: object) -> bool:
        if isinstance(item, TierSpec):
            return item in self.tiers
        if isinstance(item, str):
            return item.upper() in self._by_name
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TierHierarchy({self.name}, {[t.name for t in self.tiers]})"


# ---------------------------------------------------------------------------
# Media profiles for the built-in tiers.
# ---------------------------------------------------------------------------

#: Node-to-node network bandwidth: 10GbE (Fig 2 read throughputs require
#: more than 1GbE).  The I/O model's default for ``io.network_bandwidth``,
#: the one network knob: it caps task I/O and tier transfers alike.
DEFAULT_NETWORK_BANDWIDTH = 1250 * MB

#: Aggregate bandwidth of the shared endpoint in front of a rack-remote
#: cold store (one 10GbE ingress link): the cluster-wide cap the
#: fair-share I/O model enforces on the REMOTE tier, so cold-tier
#: throughput no longer scales with worker count.
DEFAULT_REMOTE_ENDPOINT_BANDWIDTH = 1250 * MB

#: Calibrated against the paper's Fig 2 throughputs.
MEMORY_MEDIA = MediaProfile(read_bw=3000 * MB, write_bw=2000 * MB, seek_latency=0.0001)
NVME_MEDIA = MediaProfile(read_bw=2000 * MB, write_bw=1500 * MB, seek_latency=0.0002)
SSD_MEDIA = MediaProfile(read_bw=450 * MB, write_bw=350 * MB, seek_latency=0.0005)
HDD_MEDIA = MediaProfile(read_bw=130 * MB, write_bw=110 * MB, seek_latency=0.008)
#: A rack-remote cold store: every request crosses the network, so the
#: sustained bandwidth is below HDD and the fixed cost is dominated by
#: round trips rather than seeks.
REMOTE_MEDIA = MediaProfile(read_bw=110 * MB, write_bw=90 * MB, seek_latency=0.04)


def _memory_spec() -> TierSpec:
    return TierSpec(
        name="MEMORY", media=MEMORY_MEDIA, default_capacity=4 * GB, score=1.0
    )


def _nvme_spec() -> TierSpec:
    return TierSpec(name="NVME", media=NVME_MEDIA, default_capacity=32 * GB, score=0.8)


def _ssd_spec() -> TierSpec:
    return TierSpec(name="SSD", media=SSD_MEDIA, default_capacity=64 * GB, score=0.55)


def _hdd_spec() -> TierSpec:
    return TierSpec(
        name="HDD",
        media=HDD_MEDIA,
        default_capacity=400 * GB,
        default_devices=3,
        score=0.25,
    )


def _remote_spec() -> TierSpec:
    return TierSpec(
        name="REMOTE",
        media=REMOTE_MEDIA,
        default_capacity=4 * TB,
        score=0.1,
        remote=True,
    )


# ---------------------------------------------------------------------------
# Hierarchy presets.
# ---------------------------------------------------------------------------

_PRESET_FACTORIES: Dict[str, Callable[[], TierHierarchy]] = {}
_PRESET_CACHE: Dict[str, TierHierarchy] = {}


def register_hierarchy(
    name: str, factory: Callable[[], TierHierarchy], replace: bool = False
) -> None:
    """Register a named hierarchy preset (built lazily, cached forever).

    Caching matters beyond speed: every cluster built from the same
    preset shares the same :class:`TierSpec` objects, so identity-based
    tier comparisons hold across runs.
    """
    if name in _PRESET_FACTORIES:
        if not replace:
            raise ValueError(f"hierarchy preset {name!r} already registered")
        if name in _PRESET_CACHE:
            # The preset was already materialized: clusters (and, for
            # default3, DEFAULT_HIERARCHY) hold its TierSpec objects,
            # whose equality is identity-based.  Replacing it would
            # orphan them, so presets are replaceable only before first
            # use.
            raise ValueError(
                f"hierarchy preset {name!r} is already in use and cannot "
                "be replaced; register a new preset name instead"
            )
    _PRESET_FACTORIES[name] = factory


def hierarchy_names() -> Tuple[str, ...]:
    """Names of all registered hierarchy presets, sorted."""
    return tuple(sorted(_PRESET_FACTORIES))


def get_hierarchy(name: Union[str, TierHierarchy]) -> TierHierarchy:
    """Resolve a preset name (or pass a hierarchy through unchanged)."""
    if isinstance(name, TierHierarchy):
        return name
    if name not in _PRESET_FACTORIES:
        raise KeyError(
            f"unknown tier hierarchy {name!r}; "
            f"available: {', '.join(hierarchy_names())}"
        )
    if name not in _PRESET_CACHE:
        _PRESET_CACHE[name] = _PRESET_FACTORIES[name]()
    return _PRESET_CACHE[name]


register_hierarchy(
    "default3",
    lambda: TierHierarchy("default3", [_memory_spec(), _ssd_spec(), _hdd_spec()]),
)
register_hierarchy(
    "mem-hdd",
    lambda: TierHierarchy("mem-hdd", [_memory_spec(), _hdd_spec()]),
)
register_hierarchy(
    "nvme4",
    lambda: TierHierarchy(
        "nvme4", [_memory_spec(), _nvme_spec(), _ssd_spec(), _hdd_spec()]
    ),
)
#: The REMOTE tier is provisioned as a per-node device (each node's
#: mover slice of the cold store), but under ``--io-model fairshare``
#: every REMOTE access additionally crosses the cluster-wide shared
#: endpoint resource (see :mod:`repro.engine.iomodel`), so aggregate
#: cold-tier bandwidth is capped regardless of worker count.
register_hierarchy(
    "remote5",
    lambda: TierHierarchy(
        "remote5",
        [_memory_spec(), _nvme_spec(), _ssd_spec(), _hdd_spec(), _remote_spec()],
    ),
)

#: The paper's 3-tier hierarchy; the default everywhere a hierarchy is
#: not given explicitly.
DEFAULT_HIERARCHY: TierHierarchy = get_hierarchy("default3")


def transfer_seconds(
    num_bytes: int,
    from_tier: TierSpec,
    to_tier: TierSpec,
    cross_node: bool,
    network_bandwidth: float = DEFAULT_NETWORK_BANDWIDTH,
) -> float:
    """Uncontended duration of a replica transfer between two media: how
    the snapshot I/O model times a transfer, and every transfer's ideal."""
    src = from_tier.media
    dst = to_tier.media
    bandwidth = min(src.read_bw, dst.write_bw)
    if cross_node:
        bandwidth = min(bandwidth, network_bandwidth)
    return src.seek_latency + dst.seek_latency + num_bytes / bandwidth


class StorageDevice:
    """One storage device (a memory slice, an SSD, an HDD, ...).

    Tracks byte-level capacity and the set of replica ids it stores.
    Capacity accounting is exact: ``allocate`` raises
    :class:`InsufficientSpaceError` rather than over-committing.
    """

    def __init__(
        self,
        device_id: str,
        tier: TierSpec,
        capacity: int,
        profile: Optional[MediaProfile] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.device_id = device_id
        self.tier = tier
        self.profile = profile if profile is not None else tier.media
        self.capacity = int(capacity)
        self.used = 0
        self._replicas: Set[int] = set()
        #: Installed by ClusterTopology.add_node: called with the signed
        #: byte delta on every allocate/release so the topology can keep
        #: aggregate per-tier usage without rescanning every device.
        self.usage_listener: Optional[Callable[["StorageDevice", int], None]] = None

    @property
    def free(self) -> int:
        """Unallocated bytes."""
        return self.capacity - self.used

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use, in [0, 1]."""
        return self.used / self.capacity

    @property
    def replica_count(self) -> int:
        """Number of replicas stored on this device."""
        return len(self._replicas)

    def has_space(self, num_bytes: int) -> bool:
        """True if ``num_bytes`` more fit on this device."""
        return self.free >= num_bytes

    def allocate(self, replica_id: int, num_bytes: int) -> None:
        """Reserve space for a replica.  Raises if full or duplicate."""
        if replica_id in self._replicas:
            raise ValueError(f"replica {replica_id} already on {self.device_id}")
        if not self.has_space(num_bytes):
            raise InsufficientSpaceError(
                f"{self.device_id}: need {num_bytes}, free {self.free}"
            )
        self._replicas.add(replica_id)
        delta = int(num_bytes)
        self.used += delta
        if self.usage_listener is not None:
            self.usage_listener(self, delta)

    def release(self, replica_id: int, num_bytes: int) -> None:
        """Free the space held by a replica.  Raises if unknown."""
        if replica_id not in self._replicas:
            raise ValueError(f"replica {replica_id} not on {self.device_id}")
        self._replicas.discard(replica_id)
        delta = int(num_bytes)
        self.used -= delta
        if self.used < 0:  # defensive: accounting must never go negative
            raise InsufficientSpaceError(f"{self.device_id}: negative usage")
        if self.usage_listener is not None:
            self.usage_listener(self, -delta)

    def holds(self, replica_id: int) -> bool:
        """True if the replica is stored on this device."""
        return replica_id in self._replicas

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StorageDevice({self.device_id}, {self.tier.name}, "
            f"{self.used}/{self.capacity})"
        )
