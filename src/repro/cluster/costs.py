"""Cost tables for the simulated MPI and OpenMP runtimes.

Every latency that shapes the paper's results is an explicit, documented
parameter here, and **every value is in seconds**.  Cost tables are
pure lookup: they take locality *tiers* (integers, see
:class:`repro.cluster.interconnect.Tier`), never ranks or node indices —
classifying a rank pair into a tier is the
:class:`~repro.cluster.interconnect.Interconnect`'s job.  Defaults are
calibrated so that full-scale runs land on the magnitudes reported in
the paper (Section 5); ``repro intext`` (:mod:`repro.experiments.intext`)
prints those numbers beside the simulated ones, and docs/PLACEMENT.md
derives the ``CALIBRATED_COSTS`` locality preset.

The two decisive knobs (paper Sections 5-6):

* ``shm_poll_interval`` — MPI passive-target ``MPI_Win_lock`` uses *lock
  polling* (Zhao et al. [38]): a process that fails to get the lock
  re-issues a lock-attempt message after this interval.  Under 16-way
  intra-node contention this makes every lock handoff cost a large
  fraction of the polling interval, which is why ``X+SS`` is the worst
  combination for the MPI+MPI approach.
* ``omp_barrier_base``/``omp_barrier_log`` — the implicit barrier at the
  end of each OpenMP worksharing loop.  The barrier itself is cheap; the
  *idle time it induces* (waiting for the slowest thread) is what the
  MPI+MPI approach eliminates for ``X+STATIC``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict


@dataclass(frozen=True)
class MpiCosts:
    """Latency model for the simulated MPI runtime (seconds)."""

    # --- two-sided ----------------------------------------------------
    #: software overhead added by sender/receiver per message
    p2p_overhead: float = 0.4e-6
    #: messages larger than this use the rendezvous protocol (extra RTT)
    eager_limit: int = 64 * 1024

    # --- one-sided (RMA) over the network ------------------------------
    #: remote atomic (fetch_and_op / compare_and_swap) processing time at
    #: the target, excluding network latency
    rma_atomic: float = 0.9e-6
    #: get/put processing overhead, excluding latency + payload/bandwidth
    rma_transfer_overhead: float = 0.6e-6

    # --- MPI-3 shared-memory windows -----------------------------------
    #: issuing one lock-attempt message for MPI_Win_lock (passive-target
    #: epoch open: progress-engine round trip, not just a CAS)
    shm_lock_attempt: float = 1.4e-6
    #: lock-polling retry interval when the lock is busy (the key knob)
    shm_poll_interval: float = 60e-6
    #: MPI_Win_unlock (epoch close + flush)
    shm_unlock: float = 1.1e-6
    #: MPI_Win_sync memory barrier
    shm_win_sync: float = 1.0e-6
    #: load/store/read-modify-write on a shared window, per access
    shm_access: float = 0.12e-6
    #: remote atomics on a *local* (same-node) window — cheaper than
    #: network RMA but dearer than plain shared loads
    shm_atomic: float = 0.5e-6

    # --- locality-tier penalties (NUMA/socket distance) ----------------
    #
    # Each knob prices *leaving* one machine boundary, and applies to
    # every operation at that distance **or farther** (crossing a
    # socket implies leaving the home NUMA domain; leaving the node
    # implies both — the data still exits the home domain on its way
    # to the NIC).  This accumulate-outward rule is what guarantees
    # cost monotonicity in distance (same-NUMA <= same-socket <=
    # same-node <= network) for *any* non-negative knob values, which
    # the property suite pins.  All default to 0, keeping the seed's
    # distance-blind model bit-exact.
    #
    #: extra cost of a load/store whose target memory lives outside the
    #: accessing core's NUMA domain (on-die mesh / remote-NUMA access).
    remote_numa_load_penalty: float = 0.0
    #: extra cost of an atomic / lock-attempt message targeting memory
    #: outside the accessing core's NUMA domain (cache-line transfer +
    #: directory hop).
    remote_numa_atomic_penalty: float = 0.0
    #: *additional* cost (on top of the remote-NUMA penalties) when the
    #: access also leaves the socket (UPI/QPI link).  Applies to loads
    #: and atomics alike.
    cross_socket_penalty: float = 0.0

    # --- collectives ----------------------------------------------------
    #: per-stage cost of log-tree collectives (barrier/bcast/reduce)
    collective_stage: float = 0.7e-6

    def tier_load_penalty(self, tier: int) -> float:
        """Per-access load/store penalty for a :class:`~repro.cluster.interconnect.Tier`.

        Penalties accumulate outward: crossing a socket implies crossing
        a NUMA boundary, so with non-negative knobs the penalty is
        monotonically non-decreasing in distance — the property the
        tier-monotonicity tests pin.  ``tier`` is compared numerically
        to avoid a circular import with :mod:`repro.cluster.interconnect`
        (SAME_NUMA=0 < SAME_SOCKET=1 < SAME_NODE=2 <= NETWORK=3).
        """
        penalty = 0.0
        if tier >= 1:  # leaves the home NUMA domain
            penalty += self.remote_numa_load_penalty
        if tier >= 2:  # additionally leaves the home socket
            penalty += self.cross_socket_penalty
        return penalty

    def tier_atomic_penalty(self, tier: int) -> float:
        """Per-op atomic/lock-message penalty for a tier (see
        :meth:`tier_load_penalty` for the accumulation rule)."""
        penalty = 0.0
        if tier >= 1:
            penalty += self.remote_numa_atomic_penalty
        if tier >= 2:
            penalty += self.cross_socket_penalty
        return penalty

    def p2p_time(self, nbytes: int, same_node: bool, network_latency: float,
                 network_bandwidth: float) -> float:
        """End-to-end time for one two-sided message of ``nbytes``."""
        if same_node:
            latency = 0.25e-6  # shared-memory transport
            bandwidth = 40e9
        else:
            latency = network_latency
            bandwidth = network_bandwidth
        time = self.p2p_overhead + latency + nbytes / bandwidth
        if nbytes > self.eager_limit:
            time += latency + self.p2p_overhead  # rendezvous handshake RTT
        return time

    def rma_atomic_time(self, same_node: bool, network_latency: float) -> float:
        """One remote atomic op (fetch&op / CAS), round trip."""
        if same_node:
            return self.shm_atomic
        return self.rma_atomic + 2.0 * network_latency


@dataclass(frozen=True)
class OmpCosts:
    """Latency model for the simulated OpenMP runtime (seconds)."""

    #: one-time team fork for a parallel region
    fork: float = 4.0e-6
    #: join/implicit barrier at region end uses barrier model below
    #: atomic capture used by schedule(dynamic)/(guided) chunk grabs
    atomic: float = 0.18e-6
    #: entering/leaving a worksharing loop (bookkeeping, no barrier)
    worksharing_init: float = 0.25e-6
    #: barrier cost model: base + log * ceil(log2(threads))
    barrier_base: float = 0.9e-6
    barrier_log: float = 0.35e-6

    def barrier_time(self, n_threads: int) -> float:
        """Seconds one OpenMP barrier costs for a team of ``n_threads``."""
        if n_threads <= 1:
            return 0.0
        return self.barrier_base + self.barrier_log * math.ceil(
            math.log2(max(2, n_threads))
        )


@dataclass(frozen=True)
class CostModel:
    """Bundle of all runtime cost tables plus chunk-calculation cost."""

    mpi: MpiCosts = MpiCosts()
    omp: OmpCosts = OmpCosts()
    #: evaluating a DLS closed form (a handful of flops) on any CPU
    chunk_calc: float = 0.08e-6

    def with_overrides(self, **kwargs: Any) -> "CostModel":
        """Functional update helper: dotted keys reach into sub-tables.

        >>> CostModel().with_overrides(**{"mpi.shm_poll_interval": 1e-4})
        """
        mpi_kw: Dict[str, Any] = {}
        omp_kw: Dict[str, Any] = {}
        top_kw: Dict[str, Any] = {}
        for key, value in kwargs.items():
            if key.startswith("mpi."):
                mpi_kw[key[4:]] = value
            elif key.startswith("omp."):
                omp_kw[key[4:]] = value
            else:
                top_kw[key] = value
        out = self
        if mpi_kw:
            out = replace(out, mpi=replace(out.mpi, **mpi_kw))
        if omp_kw:
            out = replace(out, omp=replace(out.omp, **omp_kw))
        if top_kw:
            out = replace(out, **top_kw)
        return out


DEFAULT_COSTS = CostModel()

#: Documented non-zero locality preset (used by ``BENCH_PR4.json`` and
#: the ``repro run --costs numa`` CLI preset): remote-NUMA loads cost
#: about two thirds of a local shared access extra, remote-NUMA atomics
#: roughly double, and crossing the socket adds a UPI-link hop on top.
#: Magnitudes follow published Xeon remote-NUMA/QPI latency ratios
#: (~1.6x remote-NUMA, ~2-3x cross-socket for coherent RMW traffic).
NUMA_PENALTY_COSTS = DEFAULT_COSTS.with_overrides(
    **{
        "mpi.remote_numa_load_penalty": 0.08e-6,
        "mpi.remote_numa_atomic_penalty": 0.4e-6,
        "mpi.cross_socket_penalty": 0.6e-6,
    }
)

#: Calibrated locality preset: the same three knobs, but set from
#: published latency measurements instead of round stress-test numbers
#: (the full derivation, with sources, lives in ``docs/PLACEMENT.md``):
#:
#: * ``remote_numa_load_penalty = 10 ns`` — the far-domain load surcharge
#:   inside one socket under sub-NUMA clustering (Intel MLC on SNC-2
#:   Xeon-SP parts: ~81 ns near-domain vs ~91 ns far-domain DRAM).
#: * ``remote_numa_atomic_penalty = 50 ns`` — same-socket cross-domain
#:   cache-line transfer for an RMW (core-to-core latency measurements
#:   on mesh Xeons: ~45-55 ns across the die).
#: * ``cross_socket_penalty = 200 ns`` — the QPI/UPI hop.  Loads pay
#:   ~50-60 ns extra across sockets (MLC remote-DRAM on Broadwell-EP,
#:   the miniHPC CPU: ~85 ns local vs ~140 ns remote) while coherent
#:   RMW traffic pays ~250-350 ns; the single shared knob is set to the
#:   traffic-weighted compromise of 200 ns, biased toward the atomic
#:   side because lock messages dominate the queues' cross-socket
#:   traffic.
CALIBRATED_COSTS = DEFAULT_COSTS.with_overrides(
    **{
        "mpi.remote_numa_load_penalty": 0.01e-6,
        "mpi.remote_numa_atomic_penalty": 0.05e-6,
        "mpi.cross_socket_penalty": 0.2e-6,
    }
)

#: Named cost presets, the single lookup behind the CLI's ``--costs``
#: flag and the sweep helpers.  All values are :class:`CostModel`
#: bundles (every latency in seconds).
COST_PRESETS: Dict[str, CostModel] = {
    "default": DEFAULT_COSTS,
    "numa": NUMA_PENALTY_COSTS,
    "calibrated": CALIBRATED_COSTS,
}
