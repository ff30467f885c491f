"""The scalar engine's per-chunk path calls only the hooks a run uses.

Two kinds of per-chunk call do nothing in most runs: the feedback
hooks ``record``/``record_wait`` on a calculator that does not listen
(its class keeps :class:`~repro.core.technique_base.ChunkCalculator`'s
no-op bodies), and the claims-ledger calls ``_Run.claim`` /
``_Run.release_claim`` of a fault-free run.  This suite counts them.
Fault-free runs of every model make none of either.  Runs with
listening calculators (AWF-B and ADAPT at depths 2 and 3) give each
listening calculator, in creation order, exactly the number of
``record``/``record_wait`` calls pinned below; dropping the idle calls
must not drop a single call that feeds an adaptive technique.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.api import run_hierarchical
from repro.cluster.machine import minihpc
from repro.core.technique_base import ChunkCalculator
from repro.models.base import _Run
from repro.workloads import uniform_workload

HOOKS = ("record", "record_wait")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _listening_class(cls):
    """Whether a class below ChunkCalculator in ``cls``'s MRO defines a hook."""
    below = cls.__mro__[: cls.__mro__.index(ChunkCalculator)]
    return any(hook in klass.__dict__ for klass in below for hook in HOOKS)


class HookCounter:
    """Count feedback-hook and claims-ledger calls during one test."""

    def __init__(self, monkeypatch):
        #: every calculator constructed, in creation order
        self.calcs = []
        #: (id(calc), hook) -> calls reaching an overriding hook
        self.listened = Counter()
        #: hook -> calls reaching ChunkCalculator's no-op body
        self.idle = Counter()
        #: ledger method -> calls
        self.ledger = Counter()

        init = ChunkCalculator.__init__

        def tracked_init(calc, *args, **kwargs):
            init(calc, *args, **kwargs)
            self.calcs.append(calc)

        monkeypatch.setattr(ChunkCalculator, "__init__", tracked_init)
        for hook in HOOKS:
            monkeypatch.setattr(ChunkCalculator, hook, self._idle_hook(hook))
            for cls in list(_subclasses(ChunkCalculator)):
                if hook in cls.__dict__:
                    monkeypatch.setattr(
                        cls, hook, self._listening_hook(hook, cls.__dict__[hook])
                    )
        for name in ("claim", "release_claim"):
            monkeypatch.setattr(
                _Run, name, self._ledger_call(name, getattr(_Run, name))
            )

    def _idle_hook(self, hook):
        def idle(calc, *args, **kwargs):
            self.idle[hook] += 1

        return idle

    def _listening_hook(self, hook, body):
        def listened(calc, *args, **kwargs):
            self.listened[(id(calc), hook)] += 1
            return body(calc, *args, **kwargs)

        return listened

    def _ledger_call(self, name, body):
        def call(run, *args, **kwargs):
            self.ledger[name] += 1
            return body(run, *args, **kwargs)

        return call

    def listening_counts(self):
        """``[class, n, p, record calls, record_wait calls]`` per listening
        calculator, in creation order."""
        return [
            [
                type(calc).__name__,
                calc.n,
                calc.p,
                self.listened[(id(calc), "record")],
                self.listened[(id(calc), "record_wait")],
            ]
            for calc in self.calcs
            if _listening_class(type(calc))
        ]


def _run(approach, stack):
    workload = uniform_workload(480, low=5e-5, high=2e-3, seed=5)
    cluster = minihpc(2, 8, sockets_per_node=2, numa_per_socket=2)
    return run_hierarchical(
        workload, cluster, inter=stack, approach=approach, seed=3
    )


#: fault-free runs whose calculators all keep the no-op hooks
IDLE_CASES = [
    ("mpi+mpi", "GSS+SS"),
    ("dcc", "SS+SS"),
    ("mpi+mpi", "GSS"),
    ("mpi+mpi", "GSS+FAC2+FAC2+SS"),
    ("mpi+openmp", "GSS+SS"),
    ("flat-mpi", "GSS"),
    ("master-worker", "SS"),
]


@pytest.mark.parametrize("approach,stack", IDLE_CASES)
def test_fault_free_run_makes_no_idle_hook_or_ledger_call(
    monkeypatch, approach, stack
):
    counter = HookCounter(monkeypatch)
    result = _run(approach, stack)
    assert result.metrics.parallel_time > 0
    assert counter.idle == Counter()
    assert counter.ledger == Counter()


#: (approach, stack) -> (listening calculators, record calls,
#: record_wait calls, sha256 of the per-calculator counts); captured
#: before the idle hooks left the per-chunk path
LISTENING_PINS = {
    ("mpi+mpi", "AWF-B+ADAPT"): (
        20, 960, 480,
        "4a1f814d033631c4537211f42759d8b7e4f384ffcca8ad00637f9dbbefa134e5",
    ),
    ("mpi+mpi", "GSS+AWF-B+ADAPT"): (
        79, 960, 480,
        "a56ec25055021676e3c5b7ba2b4d8e988f02f2ca7ec0831df096a51e5c7f09e7",
    ),
}


@pytest.mark.parametrize("approach,stack", sorted(LISTENING_PINS))
def test_listening_calculators_get_every_feedback_call(
    monkeypatch, approach, stack
):
    counter = HookCounter(monkeypatch)
    _run(approach, stack)
    counts = counter.listening_counts()
    digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
    observed = (
        len(counts),
        sum(row[3] for row in counts),
        sum(row[4] for row in counts),
        digest,
    )
    assert observed == LISTENING_PINS[(approach, stack)]
