"""Two-sided point-to-point transport: mailboxes with tag matching.

Each rank owns a :class:`Mailbox`.  Senders hand a message plus its
modelled transfer time to :meth:`Mailbox.deliver_after`; the mailbox
spawns a tiny delivery process that makes the message visible after
that delay.  Receivers block until a message matching ``(source, tag)``
(or ``ANY_SOURCE``) is present.  Matching follows MPI semantics:
per-(source, tag) FIFO ordering (non-overtaking).

Conventions: transfer delays are simulated seconds; sources and owners
are ranks of the world (``ANY_SOURCE`` matches every rank); sizes are
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent, Timeout

ANY_SOURCE = -1


@dataclass
class Message:
    """A payload in flight from rank ``source``, matched on ``tag``;
    ``nbytes`` sizes its modelled transfer."""

    source: int
    tag: int
    payload: Any
    nbytes: int = 64


class Mailbox:
    """Incoming-message store for one rank, with MPI-style matching."""

    def __init__(self, sim: Simulator, owner_rank: int):
        self.sim = sim
        self.owner_rank = owner_rank
        self._queue: List[Message] = []
        # Pending receives: (source filter, tag, gate event)
        self._pending: List[Tuple[int, int, SimEvent]] = []
        self.n_delivered = 0

    # -- sender side -----------------------------------------------------
    def deliver_after(self, delay: float, message: Message) -> None:
        """Schedule delivery of ``message`` after the transfer delay."""

        def _delivery():
            if delay > 0:
                yield Timeout(delay)
            self._deposit(message)

        self.sim.spawn(
            _delivery(), name=f"msg->{self.owner_rank}:{message.tag}"
        )

    def _deposit(self, message: Message) -> None:
        self.n_delivered += 1
        # Try to match a pending receive first (FIFO among matching ones).
        for index, (source, tag, gate) in enumerate(self._pending):
            if tag == message.tag and source in (ANY_SOURCE, message.source):
                del self._pending[index]
                gate.trigger(message)
                return
        self._queue.append(message)

    # -- receiver side -----------------------------------------------------
    def _match(self, source: int, tag: int) -> Optional[Message]:
        for index, message in enumerate(self._queue):
            if message.tag == tag and source in (ANY_SOURCE, message.source):
                return self._queue.pop(index)
        return None

    def get(self, source: int, tag: int):
        """Blocking matched receive (generator)."""
        message = self._match(source, tag)
        if message is not None:
            return message
        gate = self.sim.event(f"recv@{self.owner_rank}")
        self._pending.append((source, tag, gate))
        message = yield gate
        return message

    def get_any(self, tag: int):
        """Blocking receive from any source (generator)."""
        message = yield from self.get(ANY_SOURCE, tag)
        return message
