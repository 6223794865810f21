"""Workload substrate: FB/CMU trace synthesis and DFSIO.

The original Facebook and CMU OpenCloud traces are proprietary;
:mod:`repro.workload.synthesis` regenerates workloads from every
statistic the paper publishes about them (see DESIGN.md for the
substitution rationale).
"""

from repro.workload.bins import BINS, BIN_NAMES, SizeBin, bin_for_size
from repro.workload.dfsio import DfsioSpec
from repro.workload.external import ExternalTraceStream
from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    OutputSpec,
    StreamEvent,
    Trace,
    TraceJob,
    event_sort_key,
    event_time,
)
from repro.workload.profiles import (
    CMU_PROFILE,
    FB_PROFILE,
    PROFILES,
    WorkloadProfile,
    scaled_profile,
)
from repro.workload.scenarios import (
    SCENARIOS,
    Scenario,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.workload.streams import (
    GeneratedStream,
    StreamStats,
    SynthesizedStream,
    TraceStream,
    WorkloadStream,
    merge_events,
    merge_timed_sources,
)
from repro.workload.synthesis import TraceSynthesizer, synthesize_trace

__all__ = [
    "BINS",
    "BIN_NAMES",
    "SizeBin",
    "bin_for_size",
    "FileCreation",
    "FileDeletion",
    "OutputSpec",
    "StreamEvent",
    "TraceJob",
    "Trace",
    "event_sort_key",
    "event_time",
    "WorkloadProfile",
    "FB_PROFILE",
    "CMU_PROFILE",
    "PROFILES",
    "scaled_profile",
    "TraceSynthesizer",
    "synthesize_trace",
    "DfsioSpec",
    "WorkloadStream",
    "TraceStream",
    "SynthesizedStream",
    "GeneratedStream",
    "StreamStats",
    "merge_events",
    "merge_timed_sources",
    "Scenario",
    "SCENARIOS",
    "register_scenario",
    "scenario_names",
    "get_scenario",
    "build_scenario",
    "ExternalTraceStream",
]
