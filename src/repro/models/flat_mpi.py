"""Non-hierarchical baseline: flat distributed chunk calculation.

Every MPI process obtains its chunks directly from the global RMA work
queue using the *inter*-level technique with ``P = total workers`` — the
approach of Eleliemy & Ciorba (PDP 2019 [15]) that the paper's
hierarchical scheme extends.  There is no local queue, so every chunk
request crosses the network (except for ranks co-located with the
window host), and fine-grained techniques hammer the single atomic
unit at the host — the scalability gap that motivates the hierarchy
(ablation A-2).

Only the root level of the spec is used (there is only one scheduling
level); any deeper levels of the stack are ignored, exactly as the
``intra`` half of a two-level pair always was.  The rank loop and the
crash recovery are :class:`~repro.models.mpi_mpi.MpiMpiModel`'s depth-1
path, so ``flat-mpi`` on ``X+Y`` runs exactly like ``mpi+mpi`` on
``X`` — except that a listening root calculator (ADAPT) hears only the
compute feedback, never the fetch wait.

Conventions: times are simulated seconds.  The one scheduling level
hands chunks to MPI ranks (``rank = node * ppn + core``): a chunk is
recorded as a root chunk when a rank grabs it and as a sub-chunk once
that rank has executed it, both with ``pe`` = the rank.
"""

from __future__ import annotations

from repro.models.base import _Run
from repro.models.mpi_mpi import MpiMpiModel


class FlatMpiModel(MpiMpiModel):
    """Flat (single-level) distributed chunk calculation."""

    name = "flat-mpi"
    supports_placement = False
    feeds_fetch_wait = False

    def inter_pe_count(self, cluster, ppn: int) -> int:
        """Every rank is a PE of the single scheduling level."""
        return cluster.n_nodes * ppn

    def _levels(self, run: _Run) -> int:
        """Only the root level of the stack is scheduled."""
        return 1

    def _tiers(self, run: _Run) -> int:
        """Every rank fetches straight from the global queue."""
        return 1

    def _collect_counters(self, run: _Run, queue, local_queues, plan) -> None:
        """The global window's atomics; there are no tier windows."""
        run.counters["global_atomics"] = queue.window.n_atomics
        run.counters["remote_atomics"] = queue.window.n_remote_atomics
