"""Simulated OpenMP runtime (substrate S4).

Models what the paper's MPI+OpenMP baseline needs from OpenMP:

* a persistent **thread team** per MPI process (hot teams: fork paid
  once, later parallel regions reuse the threads);
* **worksharing loops** with the standard schedules —
  ``static[,k]``, ``dynamic[,k]``, ``guided[,k]`` — plus the
  LaPeSD-libGOMP research extensions (``tss``, ``fac2``, ``wf``,
  ``random``) the paper cites [31];
* the **implicit barrier** at the end of every worksharing loop — the
  synchronisation the MPI+MPI approach eliminates (paper Fig. 2);
* an optional **nowait** execution mode in which threads skip the
  barrier and fetch new chunks themselves (the paper's Section 6
  future-work variant), at the cost of serialised MPI calls.

Costs (atomic chunk grabs, barriers, fork) come from
:class:`repro.cluster.costs.OmpCosts`.

Conventions: costs are simulated seconds; threads are numbered ``0 ..
T-1`` within their team (thread 0 is the rank's own process).
"""

from repro.somp.schedule import ScheduleSpec, UnsupportedScheduleError
from repro.somp.team import OmpTeam

__all__ = ["OmpTeam", "ScheduleSpec", "UnsupportedScheduleError"]
