"""Multi-level scheduling composition.

A hierarchical DLS configuration is a **stack of scheduling levels** of
any depth >= 1.  Level 0 carves the global iteration space into
top-level *chunks*; every deeper level carves its parent's current
chunk into *sub-chunks* (the level schedules *within the parent chunk*,
with ``n = len(chunk)`` and ``p =`` the number of child units at that
level).  The paper's MPI+MPI approach is the depth-2 instance — an
**inter-node** technique paired with an **intra-node** technique,
written ``X+Y`` (e.g. ``GSS+STATIC``: GSS across nodes, STATIC within
a node) — but the same composition extends to the socket and NUMA
tiers sitting between node and core on modern clusters:
``GSS+FAC2+STATIC`` schedules GSS across nodes, FAC2 across the
sockets of each node, and STATIC across the cores of each socket,
while the depth-4 ``GSS+FAC2+FAC2+STATIC`` adds FAC2 across the NUMA
domains of each socket before the leaf splits a NUMA domain's cores.

:class:`HierarchicalSpec` validates and carries such a level stack;
the execution models in :mod:`repro.models` map levels onto machine
tiers (cluster -> node -> socket -> numa -> core) and instantiate
fresh calculators each time a tier's local queue is refilled.  The two-level
constructor :meth:`HierarchicalSpec.of` and the ``inter``/``intra``
accessors are kept as the compatibility surface for the paper's
``X+Y`` world.

Conventions: a level's ``p`` counts the child units it schedules, and
its PE indices follow the tier: node index at level 0 of a
hierarchical model, then the socket, NUMA-domain or core position
within the parent group (the rank itself in the flat baselines).
Chunk-calculation overheads (``chunk_overhead``) are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.technique_base import ChunkCalculator, IterationProfile, Technique
from repro.core.techniques import get_technique

#: anything accepted as one level of a stack
TechniqueLike = Union[str, Technique, "LevelSpec"]


@dataclass
class LevelSpec:
    """One scheduling level: a technique plus its optional parameters."""

    technique: Technique
    weights: Optional[Sequence[float]] = None
    profile: Optional[IterationProfile] = None
    #: minimum chunk size floor (OpenMP's ``schedule(kind, chunk)`` second arg)
    min_chunk: int = 1

    @classmethod
    def of(cls, technique: "Technique | str", **kwargs) -> "LevelSpec":
        """A level for ``technique`` (a registry name or a Technique)."""
        if isinstance(technique, str):
            technique = get_technique(technique)
        return cls(technique=technique, **kwargs)

    def make_calculator(
        self, n: int, p: int, chunk_overhead: Optional[float] = None
    ) -> ChunkCalculator:
        """A fresh calculator carving ``n`` iterations over ``p`` PEs,
        clamped from below when the level sets ``min_chunk``."""
        calc = self.technique.make(
            n,
            p,
            weights=self.weights,
            profile=self.profile,
            chunk_overhead=chunk_overhead,
        )
        if self.min_chunk > 1:
            return _MinChunkWrapper(calc, self.min_chunk)
        return calc


class _MinChunkWrapper(ChunkCalculator):
    """Clamp an inner calculator's sizes from below (guided,k semantics)."""

    def __init__(self, inner: ChunkCalculator, min_chunk: int):
        super().__init__(f"{inner.name}(min={min_chunk})", inner.n, inner.p)
        self.inner = inner
        self.min_chunk = int(min_chunk)
        self.deterministic = inner.deterministic
        # the forwarding hooks below listen exactly when the inner ones do
        self.listens = inner.listens
        self._scheduled = 0

    def size_at(self, step: int, pe: Optional[int] = None) -> int:
        remaining = self.n - self._scheduled
        if remaining <= 0:
            return 0
        size = self.inner.size_at(step, pe=pe)
        size = max(self.min_chunk, size)
        size = min(size, remaining)
        self._scheduled += size
        return size

    def record(self, pe, size, compute_time, overhead_time=0.0) -> None:
        self.inner.record(pe, size, compute_time, overhead_time)

    def record_wait(self, pe, wait_time) -> None:
        self.inner.record_wait(pe, wait_time)

    # ADAPT selector surface: present exactly when the wrapped
    # calculator is a selector, so the models' duck-typed bookkeeping
    # (``hasattr(calc, "mode_history")``) sees through the wrapper.
    @property
    def mode_history(self):
        return self.inner.mode_history

    @property
    def mode(self):
        return self.inner.mode

    @property
    def switch_count(self):
        return self.inner.switch_count

    def start_at(self, step: int) -> int:  # pragma: no cover - defensive
        raise NotImplementedError(
            "min-chunk wrapped calculators are consumed sequentially; "
            "use the scheduled-count protocol"
        )


def split_stack(value: "TechniqueLike | None") -> list:
    """Split one technique argument into stack levels.

    The single parser behind every ``+``-joined stack surface
    (:meth:`HierarchicalSpec.parse`, :func:`repro.api.run_hierarchical`,
    the CLI's ``--techniques``): strings may be ``+``-joined stacks
    (``"GSS+FAC2"``), Technique/LevelSpec instances are single levels,
    None contributes nothing.
    """
    if value is None:
        return []
    if isinstance(value, str):
        parts = [part.strip() for part in value.split("+")]
        if any(not part for part in parts):
            raise ValueError(f"malformed technique stack {value!r}")
        return parts
    return [value]


def _as_level(technique: TechniqueLike, **kwargs) -> LevelSpec:
    if isinstance(technique, LevelSpec):
        if kwargs:
            raise TypeError(
                "cannot combine a LevelSpec level with extra level kwargs"
            )
        return technique
    return LevelSpec.of(technique, **kwargs)


class HierarchicalSpec:
    """A stack of scheduling levels (the paper's ``X+Y``, generalised).

    Construction forms, oldest first::

        HierarchicalSpec(inter=LevelSpec(...), intra=LevelSpec(...))  # 2-level
        HierarchicalSpec(levels=(l0, l1, l2))                         # any depth
        HierarchicalSpec.of("GSS", "STATIC", inter_profile=...)       # 2-level
        HierarchicalSpec.of_levels("GSS", "FAC2", "STATIC")           # any depth
        HierarchicalSpec.parse("GSS+FAC2+STATIC")                     # any depth

    ``inter`` is always ``levels[0]`` and ``intra`` is always
    ``levels[-1]``, so code written against the original two-level pair
    (the single-level baselines, the OpenMP schedule translation, the
    native runner) keeps working unchanged on deeper stacks.
    """

    levels: Tuple[LevelSpec, ...]

    def __init__(
        self,
        levels: Optional[Sequence[LevelSpec]] = None,
        *,
        inter: Optional[LevelSpec] = None,
        intra: Optional[LevelSpec] = None,
    ):
        if levels is not None:
            if inter is not None or intra is not None:
                raise TypeError("pass either levels= or inter=/intra=, not both")
            stack = tuple(levels)
        else:
            if inter is None or intra is None:
                raise TypeError(
                    "HierarchicalSpec needs levels= or both inter= and intra="
                )
            stack = (inter, intra)
        if not stack:
            raise ValueError("HierarchicalSpec needs at least one level")
        for index, level in enumerate(stack):
            if not isinstance(level, LevelSpec):
                raise TypeError(
                    f"level {index} is {type(level).__name__}, expected LevelSpec"
                )
        self.levels = stack

    # -- constructors ---------------------------------------------------
    @classmethod
    def of(cls, inter: TechniqueLike, intra: TechniqueLike, **kwargs) -> "HierarchicalSpec":
        """Two-level convenience constructor: ``HierarchicalSpec.of("GSS", "STATIC")``.

        Kept as the compatibility surface for the paper's ``X+Y`` pair;
        ``inter_*``/``intra_*`` prefixed kwargs parameterise the
        respective level (``inter_profile=...``, ``intra_weights=...``).
        """
        inter_kwargs = {
            k[len("inter_"):]: v for k, v in kwargs.items() if k.startswith("inter_")
        }
        intra_kwargs = {
            k[len("intra_"):]: v for k, v in kwargs.items() if k.startswith("intra_")
        }
        unknown = set(kwargs) - {
            *(f"inter_{k}" for k in inter_kwargs),
            *(f"intra_{k}" for k in intra_kwargs),
        }
        if unknown:
            raise TypeError(f"unknown HierarchicalSpec arguments: {sorted(unknown)}")
        return cls(
            levels=(
                _as_level(inter, **inter_kwargs),
                _as_level(intra, **intra_kwargs),
            )
        )

    @classmethod
    def of_levels(cls, *techniques: TechniqueLike, **kwargs) -> "HierarchicalSpec":
        """Arbitrary-depth constructor: one positional argument per level.

        Per-level parameters use ``level<i>_`` prefixes counting from the
        root (``level0_profile=...``); for readability the aliases
        ``inter_`` (level 0) and ``intra_`` (last level) also work at
        any depth.
        """
        if not techniques:
            raise ValueError("of_levels needs at least one technique")
        depth = len(techniques)
        per_level: Dict[int, Dict[str, object]] = {i: {} for i in range(depth)}
        for key, value in kwargs.items():
            if key.startswith("inter_"):
                per_level[0][key[len("inter_"):]] = value
            elif key.startswith("intra_"):
                per_level[depth - 1][key[len("intra_"):]] = value
            elif key.startswith("level"):
                prefix, _, param = key.partition("_")
                index_text = prefix[len("level"):]
                if not index_text.isdigit() or not param:
                    raise TypeError(f"unknown HierarchicalSpec argument {key!r}")
                index = int(index_text)
                if not 0 <= index < depth:
                    raise TypeError(
                        f"{key!r} addresses level {index} of a depth-{depth} stack"
                    )
                per_level[index][param] = value
            else:
                raise TypeError(f"unknown HierarchicalSpec argument {key!r}")
        return cls(
            levels=tuple(
                _as_level(technique, **per_level[i])
                for i, technique in enumerate(techniques)
            )
        )

    @classmethod
    def parse(cls, text: str, **kwargs) -> "HierarchicalSpec":
        """Parse a ``+``-joined stack label, e.g. ``"GSS+FAC2+STATIC"``.

        This is the CLI's ``--techniques`` syntax; a single name
        (``"GSS"``) yields a depth-1 stack.
        """
        return cls.of_levels(*split_stack(text), **kwargs)

    # -- introspection --------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of scheduling levels (the paper's ``X+Y`` is 2)."""
        return len(self.levels)

    @property
    def inter(self) -> LevelSpec:
        """The root (level 0) spec — across nodes in every model."""
        return self.levels[0]

    @property
    def intra(self) -> LevelSpec:
        """The leaf (last-level) spec.

        For depth-1 stacks this is the root itself; single-level
        baselines ignore it either way.
        """
        return self.levels[-1]

    @property
    def label(self) -> str:
        """Paper-style combination label, e.g. ``"GSS+STATIC"``."""
        return "+".join(level.technique.name for level in self.levels)

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HierarchicalSpec({self.label})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchicalSpec):
            return NotImplemented
        return self.levels == other.levels

    # like the former @dataclass form: eq without hash
    __hash__ = None  # type: ignore[assignment]
