"""Core library: DLS techniques, hierarchical composition, metrics, traces.

This package holds the paper's primary contribution in reusable form:

* :mod:`repro.core.chunking` — chunks, the columnar chunk log and
  schedule-verification helpers.
* :mod:`repro.core.technique_base` — the :class:`Technique` /
  :class:`ChunkCalculator` abstractions implementing the *distributed
  chunk-calculation* approach (chunk sizes derivable from the scheduling
  step alone for non-adaptive techniques).
* :mod:`repro.core.techniques` — the full DLS roster: STATIC, SS, FSC,
  mFSC, GSS, TAP, TSS, TFSS, FAC, FAC2, WF, AWF, AWF-B/C/D/E, AF, RND.
* :mod:`repro.core.adaptive` — the ADAPT meta-technique: runtime
  selection of the chunk calculator (SS/FAC2/GSS) per scheduling tier
  from observed chunk-fetch wait and iteration-time CoV.
* :mod:`repro.core.hierarchy` — two-level (inter-node x intra-node)
  scheduling composition used by the execution models.
* :mod:`repro.core.metrics` — parallel time, load-imbalance and
  overhead metrics.
* :mod:`repro.core.trace` — execution traces and ASCII Gantt charts
  (regenerates the paper's Figures 2 and 3).

Conventions: times are seconds; a calculator's PEs are numbered
``0 .. p-1`` within their scheduling level (a node index at the
inter-node level, a node-local rank below it).
"""

from repro.core.chunking import (
    Chunk,
    ChunkLog,
    ScheduleError,
    unroll,
    verify_schedule,
)
from repro.core.hierarchy import HierarchicalSpec
from repro.core.metrics import LoadMetrics, compute_metrics
from repro.core.technique_base import (
    ChunkCalculator,
    IterationProfile,
    Technique,
    TechniqueError,
    clear_sequence_cache,
)
from repro.core.techniques import TECHNIQUES, get_technique, list_techniques

__all__ = [
    "Chunk",
    "ChunkCalculator",
    "ChunkLog",
    "HierarchicalSpec",
    "IterationProfile",
    "LoadMetrics",
    "ScheduleError",
    "TECHNIQUES",
    "Technique",
    "TechniqueError",
    "clear_sequence_cache",
    "compute_metrics",
    "get_technique",
    "list_techniques",
    "unroll",
    "verify_schedule",
]
