"""OpenMP loop-schedule specifications.

Parses ``schedule(...)`` clause strings and maps DLS technique names to
their OpenMP equivalents (paper Table 1).  The *Intel* OpenMP runtime
only implements ``static``/``dynamic``/``guided``; TSS/FAC2/WF/RANDOM
exist only in the research LaPeSD-libGOMP runtime [31] — which is
exactly why the paper's Figures 4-7 have no MPI+OpenMP series for
``X+TSS`` and ``X+FAC2``.  The ``extensions`` flag reproduces that
restriction.

A schedule carves one MPI rank's chunk among that rank's OpenMP
threads; chunk sizes count loop iterations and thread ids index the
team (0 is the rank process itself).  Nothing here is priced: the
seconds a schedule costs come from
:class:`repro.cluster.costs.OmpCosts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: schedules in the (Intel) OpenMP standard runtime
STANDARD_KINDS = ("static", "dynamic", "guided")
#: additional schedules available via LaPeSD-libGOMP [31]
EXTENSION_KINDS = ("tss", "fac2", "wf", "random", "tfss")

#: DLS technique name -> OpenMP schedule clause string
TECHNIQUE_TO_CLAUSE = {
    "STATIC": "static",
    "SS": "dynamic,1",
    "GSS": "guided,1",
    "TSS": "tss",
    "FAC2": "fac2",
    "TFSS": "tfss",
    "WF": "wf",
    "RND": "random",
}


class UnsupportedScheduleError(ValueError):
    """Requested schedule is not available in the selected runtime."""


@dataclass(frozen=True)
class ScheduleSpec:
    """A parsed ``schedule(kind[,chunk])`` clause."""

    kind: str
    chunk: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in STANDARD_KINDS + EXTENSION_KINDS:
            raise UnsupportedScheduleError(f"unknown schedule kind {self.kind!r}")
        if self.chunk is not None and self.chunk < 1:
            raise UnsupportedScheduleError(f"chunk must be >= 1, got {self.chunk}")

    @property
    def is_extension(self) -> bool:
        """Only the LaPeSD-libGOMP runtime provides this schedule kind."""
        return self.kind in EXTENSION_KINDS

    @property
    def pinned(self) -> bool:
        """Static schedules pre-assign iterations to threads (no grabs)."""
        return self.kind == "static"

    @classmethod
    def parse(cls, text: str) -> "ScheduleSpec":
        """Parse ``"guided,4"`` / ``"schedule(dynamic,1)"`` style strings."""
        body = text.strip().lower()
        if body.startswith("schedule(") and body.endswith(")"):
            body = body[len("schedule(") : -1]
        parts = [p.strip() for p in body.split(",")]
        kind = parts[0]
        chunk = None
        if len(parts) > 1 and parts[1]:
            try:
                chunk = int(parts[1])
            except ValueError as exc:
                raise UnsupportedScheduleError(f"bad chunk in {text!r}") from exc
        if len(parts) > 2:
            raise UnsupportedScheduleError(f"malformed schedule {text!r}")
        return cls(kind=kind, chunk=chunk)

    @classmethod
    def from_technique(cls, name: str, extensions: bool = True) -> "ScheduleSpec":
        """Map a DLS technique name onto an OpenMP schedule.

        With ``extensions=False`` (Intel runtime), only STATIC/SS/GSS
        resolve; TSS/FAC2/... raise :class:`UnsupportedScheduleError`
        with the paper's explanation.
        """
        key = name.strip().upper()
        if key == "MFSC":
            key = "mFSC"
        clause = TECHNIQUE_TO_CLAUSE.get(key)
        if clause is None:
            raise UnsupportedScheduleError(
                f"DLS technique {name!r} has no OpenMP schedule equivalent"
            )
        spec = cls.parse(clause)
        if spec.is_extension and not extensions:
            raise UnsupportedScheduleError(
                f"technique {name!r} needs schedule kind {spec.kind!r}, which the "
                "Intel OpenMP runtime does not provide (only static/dynamic/"
                "guided; cf. paper Sec. 5 — enable extensions for the "
                "LaPeSD-libGOMP behaviour)"
            )
        return spec

    def __str__(self) -> str:
        if self.chunk is None:
            return f"schedule({self.kind})"
        return f"schedule({self.kind},{self.chunk})"
