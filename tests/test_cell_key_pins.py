"""Pinned cell-cache keys: the exact digests :func:`cell_key` must produce.

Every entry of ``VECTOR`` is one representative ``cell_key`` call and
``PINNED`` holds its SHA-256 hex digest, computed once and frozen.  A
change that moves any digest silently orphans every on-disk cache entry
of that shape, so it must bump ``CACHE_FORMAT_VERSION`` and re-pin here
on purpose.  The memo tests check that the serialised-once fragments
behind ``cell_key`` track the values they were built from.
"""

import pytest

from repro.cluster.costs import (
    CALIBRATED_COSTS,
    DEFAULT_COSTS,
    NUMA_PENALTY_COSTS,
)
from repro.cluster.faults import NO_FAULTS, FaultModel
from repro.cluster.machine import minihpc
from repro.experiments import parallel
from repro.experiments.parallel import cell_key

#: a fixed workload fingerprint (the key pins cell_key, not the hash of
#: any particular cost vector)
FP = "5eed" * 16

CRASH = FaultModel.parse("crash:1@0.001")
MIXED_FAULTS = FaultModel.parse("slow:0@0.002:0.5,stall:3@0.001:0.0005")

#: (name, positional args after the fingerprint, keyword args)
VECTOR = [
    ("default", (minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0), {}),
    ("openmp-16x16-seed7",
     (minihpc(16, 16), "mpi+openmp", "FAC2", "STATIC", 16, 16, 7), {}),
    ("costs-default-override",
     (minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0),
     {"costs": DEFAULT_COSTS}),
    ("costs-numa",
     (minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0),
     {"costs": NUMA_PENALTY_COSTS}),
    ("costs-calibrated",
     (minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0),
     {"costs": CALIBRATED_COSTS}),
    ("placement-leader",
     (minihpc(4, 4), "mpi+mpi", "TSS", "GSS", 4, 4, 0),
     {"placement": "leader"}),
    ("placement-optimized",
     (minihpc(4, 4), "mpi+mpi", "TSS", "GSS", 4, 4, 0),
     {"placement": "optimized"}),
    ("placement-map",
     (minihpc(4, 4), "mpi+mpi", "TSS", "GSS", 4, 4, 0),
     {"placement": {"global": 3, ("node", 1): 5}}),
    ("faults-inactive",
     (minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0),
     {"faults": NO_FAULTS}),
    ("faults-crash",
     (minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0),
     {"faults": CRASH}),
    ("faults-slow-stall",
     (minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0),
     {"faults": MIXED_FAULTS}),
    ("adapt-ladder",
     (minihpc(2, 4), "mpi+mpi", "GSS", "ADAPT[ss,fac2,tss]", 2, 4, 0), {}),
    ("depth3-sockets",
     (minihpc(2, 8, sockets_per_node=2), "mpi+mpi", "GSS", "FAC2+STATIC",
      2, 8, 0), {}),
    ("depth4-numa",
     (minihpc(4, 8, sockets_per_node=2, numa_per_socket=2), "mpi+mpi",
      "FAC2", "FAC2+FAC2+STATIC", 4, 8, 3), {}),
    ("everything",
     (minihpc(4, 8, sockets_per_node=2, numa_per_socket=2), "mpi+mpi",
      "ADAPT[ss,fac2,tss]", "GSS+SS", 4, 8, 1),
     {"costs": CALIBRATED_COSTS, "placement": "optimized", "faults": CRASH}),
]

PINNED = {
    "default": "981c7578ea775e184bd21333cb3861af8ac38d2b69c75ba4d7d59360d9d60611",
    "openmp-16x16-seed7": "8ea88068692a3e24c75941ed25670a66007dca0e8c59ed2bd2558233f3c5a448",
    "costs-default-override": "f3bcab3ccf9c36a521770ea93f532ecc82cd26be334587b070c0f3954896aa7f",
    "costs-numa": "8a720ff4b3063a20117687d995634bb618010753bd4737ec8c794a7684f8e314",
    "costs-calibrated": "1dbe78bfe49beceec8bddd1a6a8f303a487fb7a869578cb1fcd6fb0c1ae620cb",
    "placement-leader": "cc552023b5e6d4a53210308455246496a87ab4e9b17babd8dd3c45b665201492",
    "placement-optimized": "b57c2792be6e1ba1a83e9bd41c4b5e87f7f233d75144bd78978cae3ac4554401",
    "placement-map": "0de17290516af218a02d9d15f04614511fb4636ff2a50fbae2dcc896509ffb45",
    "faults-inactive": "981c7578ea775e184bd21333cb3861af8ac38d2b69c75ba4d7d59360d9d60611",
    "faults-crash": "fb92a74def0c3b94a95885aee2f9d0f651d3ec781e7c2fc3c7cd889136f1ce10",
    "faults-slow-stall": "7bb4befcffbe9496aaa8343d87fec027dde61a81c86f5beae5a83e966c5e6210",
    "adapt-ladder": "a974da0a9eef0c8056c1e3bd8cefddaf9acdbbd275d1a2b5fe2271ec63a084d3",
    "depth3-sockets": "433e51282b6910c29ed6b36fd7ca67ad68b412cb57ee0b0e005260b97b7cd77a",
    "depth4-numa": "205328be0d6f2fde7539218d2e87034bb95b9cc1bcb5c9cc48f92aa7acb1dd93",
    "everything": "7ba63b3fdce543530ca559fdc89c7350feb9db928356945f5c278cbd32a06bdf",
}


def _key(args, kwargs):
    return cell_key(FP, *args, **kwargs)


@pytest.mark.parametrize("name,args,kwargs", VECTOR, ids=[v[0] for v in VECTOR])
def test_cell_key_matches_pinned_digest(name, args, kwargs):
    assert _key(args, kwargs) == PINNED[name]


def test_retuned_default_costs_change_the_key(monkeypatch):
    """The memo keys on the default models' values, so tuning a cost
    constant after keys were computed still misses the cache."""
    args, kwargs = VECTOR[0][1], VECTOR[0][2]
    assert _key(args, kwargs) == PINNED["default"]
    monkeypatch.setattr(
        parallel, "DEFAULT_COSTS",
        DEFAULT_COSTS.with_overrides(**{"mpi.shm_poll_interval": 1.2e-4}),
    )
    retuned = _key(args, kwargs)
    assert retuned != PINNED["default"]
    monkeypatch.undo()
    assert _key(args, kwargs) == PINNED["default"]


def test_distinct_sweep_inputs_never_share_a_key():
    """Interleaved calls with different costs / faults / placements in
    one process each get their own key, and repeats reproduce them."""
    args = (minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0)
    variants = [
        {"costs": costs, "faults": faults, "placement": placement}
        for costs in (None, NUMA_PENALTY_COSTS, CALIBRATED_COSTS)
        for faults in (None, CRASH, MIXED_FAULTS)
        for placement in ("leader", "optimized", {"global": 1}, {"global": 2})
    ]
    first = [_key(args, kwargs) for kwargs in variants]
    assert len(set(first)) == len(variants)
    assert [_key(args, kwargs) for kwargs in reversed(variants)] == first[::-1]


def test_equal_clusters_share_a_key_regardless_of_name():
    """Cluster memo entries are keyed by value; the name is not part of
    the identity, so a renamed equal cluster keys identically."""
    from dataclasses import replace

    cluster = minihpc(2, 4)
    renamed = replace(cluster, name="other")
    base = cell_key(FP, cluster, "mpi+mpi", "GSS", "SS", 2, 4, 0)
    assert cell_key(FP, renamed, "mpi+mpi", "GSS", "SS", 2, 4, 0) == base
    assert cell_key(FP, minihpc(2, 4), "mpi+mpi", "GSS", "SS", 2, 4, 0) == base
    assert cell_key(FP, minihpc(2, 8), "mpi+mpi", "GSS", "SS", 2, 4, 0) != base
