"""Slot allocation: which watermark positions of a model are already taken.

EmMark's planner was written for a virgin model: score, pool, sub-sample,
insert.  The serving story is different — several independent owners
watermark clones (or successive custody stages) of the *same* open-weight
base, and a second insertion that is blind to the first can land on an
already-perturbed position and silently destroy the earlier owner's bit.

:class:`SlotAllocator` is the shared substrate that prevents this.  It
tracks the occupied ``(layer, flat-index)`` coordinates of one integer-weight
domain, hands the engine a per-layer occupancy view during planning (the
planner deterministically re-ranks *past* occupied slots, so co-resident
pools are disjoint by construction), and records which owner claimed which
slots.  The occupancy a key was planned under travels inside
``WatermarkKey.metadata["occupied_slots"]``, which is what lets extraction
and :class:`~repro.engine.engine.FleetVerificationSession` reproduce every
co-resident owner's locations independently — each at 100% WER on the
multi-watermarked model.

An empty allocator is exactly the virgin-model case: planning with an empty
occupancy set is bit-identical to planning without one (same locations, same
plan fingerprints, same cache entries).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.keys import WatermarkKey
    from repro.engine.engine import WatermarkEngine

__all__ = ["SlotAllocator", "SlotCollisionError", "OccupancyMap"]

#: The serialized occupancy form: per-layer sorted flat indices.
OccupancyMap = Dict[str, np.ndarray]


class SlotCollisionError(ValueError):
    """Two owners tried to claim the same (layer, flat-index) slot."""

    def __init__(self, layer_name: str, indices: np.ndarray, holder: str) -> None:
        preview = [int(i) for i in np.asarray(indices).reshape(-1)[:4]]
        super().__init__(
            f"slots {preview} of layer {layer_name!r} are already held by "
            f"{holder!r}; co-resident insertions must plan around the "
            "existing occupancy (pass the allocator to engine.insert)"
        )
        self.layer_name = layer_name
        self.indices = np.asarray(indices, dtype=np.int64)
        self.holder = holder


class SlotAllocator:
    """Tracks occupied watermark slots of one integer-weight domain.

    Thread safety: reads (:meth:`occupied_for`, :meth:`snapshot`) and writes
    (:meth:`claim`) are lock-guarded, so concurrent callers (server threads)
    may read the occupancy while a multi-owner driver claims between owners.

    Parameters
    ----------
    occupied:
        Optional initial occupancy, ``{layer_name: flat indices}``; the
        pre-existing slots are attributed to the pseudo-owner
        :attr:`ANONYMOUS` (``"<unattributed>"``).
    """

    #: Owner label for occupancy installed without an explicit owner.
    ANONYMOUS = "<unattributed>"

    def __init__(self, occupied: Optional[Mapping[str, Iterable[int]]] = None) -> None:
        self._lock = threading.Lock()
        # layer -> {flat_index: owner}; payloads are tiny (bits per layer ×
        # owners), so a dict is both simple and collision-exact.
        self._slots: Dict[str, Dict[int, str]] = {}
        self._owners: List[str] = []
        if occupied:
            for layer_name, indices in occupied.items():
                self.claim(layer_name, indices, owner=self.ANONYMOUS)

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def claim(self, layer_name: str, indices: Iterable[int], owner: str = ANONYMOUS) -> None:
        """Mark ``indices`` of ``layer_name`` as held by ``owner``.

        Raises
        ------
        SlotCollisionError
            When any index is already held (by anyone, including ``owner``
            itself — a double claim is always a planner bug, never benign).
        """
        if not isinstance(indices, np.ndarray):
            indices = np.asarray(list(indices))
        flat = np.unique(indices.astype(np.int64).reshape(-1))
        with self._lock:
            layer = self._slots.setdefault(layer_name, {})
            taken = [int(i) for i in flat if int(i) in layer]
            if taken:
                raise SlotCollisionError(layer_name, np.asarray(taken), layer[taken[0]])
            for i in flat:
                layer[int(i)] = owner
            if owner not in self._owners:
                self._owners.append(owner)

    def claim_locations(
        self, locations: Mapping[str, np.ndarray], owner: str = ANONYMOUS
    ) -> None:
        """Claim a whole per-layer locations mapping (one key's footprint)."""
        for layer_name, indices in locations.items():
            self.claim(layer_name, indices, owner=owner)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def occupied_for(self, layer_name: str) -> Optional[np.ndarray]:
        """Sorted occupied flat indices of one layer; ``None`` when empty.

        ``None`` (not an empty array) is the virgin-layer signal: the planner
        treats it exactly like the pre-allocator code path, which is what
        keeps single-owner plans and their cache fingerprints bit-identical.
        """
        with self._lock:
            layer = self._slots.get(layer_name)
            if not layer:
                return None
            return np.asarray(sorted(layer), dtype=np.int64)

    def snapshot(self) -> OccupancyMap:
        """Per-layer sorted occupancy of every non-empty layer (a copy)."""
        with self._lock:
            return {
                name: np.asarray(sorted(layer), dtype=np.int64)
                for name, layer in self._slots.items()
                if layer
            }

    def owners(self) -> List[str]:
        """Owner labels in first-claim order."""
        with self._lock:
            return list(self._owners)

    def holder_of(self, layer_name: str, flat_index: int) -> Optional[str]:
        """Which owner holds one slot (``None`` when free)."""
        with self._lock:
            return self._slots.get(layer_name, {}).get(int(flat_index))

    @property
    def is_empty(self) -> bool:
        """True when no slot is held."""
        with self._lock:
            return not any(self._slots.values())

    @property
    def total_slots(self) -> int:
        """Number of held slots across all layers."""
        with self._lock:
            return sum(len(layer) for layer in self._slots.values())

    def __len__(self) -> int:
        return self.total_slots

    # ------------------------------------------------------------------
    # Serialization (key metadata / wire form)
    # ------------------------------------------------------------------
    def to_metadata(self) -> Dict[str, List[int]]:
        """JSON-able ``{layer: [flat indices]}`` occupancy (sorted)."""
        return {name: [int(i) for i in idx] for name, idx in self.snapshot().items()}

    @classmethod
    def from_metadata(cls, metadata: Mapping[str, Iterable[int]]) -> "SlotAllocator":
        """Rebuild an allocator from :meth:`to_metadata` output."""
        return cls(occupied=dict(metadata))

    # ------------------------------------------------------------------
    # Reconstruction from issued keys
    # ------------------------------------------------------------------
    @classmethod
    def from_keys(
        cls,
        keys: Mapping[str, "WatermarkKey"],
        engine: "Optional[WatermarkEngine]" = None,
    ) -> "SlotAllocator":
        """Occupancy of every key in ``keys`` (locations reproduced via the engine).

        This is how a later custody stage resumes allocation on a model whose
        earlier owners are known only through their keys: each key's
        locations are reproduced (cached plans make repeats cheap) and
        claimed under its mapping id.  Keys must be mutually disjoint —
        overlapping keys raise :class:`SlotCollisionError`, surfacing exactly
        the clobbering this subsystem exists to prevent.
        """
        if engine is None:
            from repro.engine.engine import get_default_engine

            engine = get_default_engine()
        allocator = cls()
        for owner, key in keys.items():
            allocator.claim_locations(engine.reproduce_locations(key), owner=owner)
        return allocator

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"SlotAllocator({self.total_slots} slots, "
            f"{len(self.snapshot())} layers, owners={self.owners()})"
        )
