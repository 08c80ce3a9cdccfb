"""Watermark insertion (Section 4.1).

The insertion stage takes the original quantized model, the full-precision
activation statistics and an :class:`~repro.core.config.EmMarkConfig`, and

1. scores every quantized weight parameter of every layer
   (:mod:`repro.core.scoring`),
2. keeps the ``|B_c|`` best-scoring positions per layer as candidates,
3. sub-samples ``|B|/n`` of them per layer with the secret seed ``d``,
4. adds the corresponding signature bit to each selected integer weight
   (Equation 5: ``W'[L_i] = W[L_i] + b_i``), and
5. returns the watermarked model together with the owner's
   :class:`~repro.core.keys.WatermarkKey`.

The insertion is CPU-only and touches only integer weights, which is why the
paper reports sub-second per-layer insertion time and zero additional GPU
memory (Table 2).

Since the engine refactor the heavy lifting lives in
:class:`repro.engine.WatermarkEngine`: this module is the stable functional
facade, routing through the process-wide default engine so insertion shares
its memoized location plans with extraction,
ownership verification and the batch serving APIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import EmMarkConfig
from repro.core.keys import WatermarkKey
from repro.engine.reports import InsertionReport, MultiOwnerInsertionResult
from repro.models.activations import ActivationStats
from repro.quant.base import QuantizedModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.allocator import SlotAllocator
    from repro.engine.engine import WatermarkEngine

__all__ = [
    "WatermarkLocation",
    "InsertionReport",
    "MultiOwnerInsertionResult",
    "insert_watermark",
    "insert_watermark_multi",
    "select_layer_locations",
]


def _engine(engine: "Optional[WatermarkEngine]" = None) -> "WatermarkEngine":
    """The engine to run on: an explicit one, or the process-wide default.

    Imported lazily — this module loads during ``repro.core`` package
    initialisation, before :mod:`repro.engine.engine` can be imported.
    """
    if engine is not None:
        return engine
    from repro.engine.engine import get_default_engine

    return get_default_engine()


@dataclass(frozen=True)
class WatermarkLocation:
    """One watermarked position: layer, flattened weight index, signature bit."""

    layer_name: str
    flat_index: int
    bit: int


def select_layer_locations(
    layer,
    channel_activations: np.ndarray,
    bits_needed: int,
    config: EmMarkConfig,
    occupied: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Select the watermark positions of one layer (flattened indices).

    Scoring, candidate pooling and the seeded sub-sampling all live in the
    engine's (cached) location planner, which both the insertion stage and
    the extraction stage call — guaranteeing that extraction reproduces the
    exact insertion-time locations when given the same inputs (reference
    weights, activations, seed, coefficients).  ``occupied`` lists flat
    indices already held by co-resident watermarks; the planner re-ranks
    past them (see :class:`repro.engine.SlotAllocator`).
    """
    return _engine().locations_for_layer(
        layer, channel_activations, bits_needed, config, occupied=occupied
    )


def insert_watermark(
    model: QuantizedModel,
    activations: ActivationStats,
    config: Optional[EmMarkConfig] = None,
    signature: Optional[np.ndarray] = None,
    in_place: bool = False,
    engine: "Optional[WatermarkEngine]" = None,
    occupied: "Optional[Union[SlotAllocator, Mapping[str, np.ndarray]]]" = None,
    owner: Optional[str] = None,
) -> Tuple[QuantizedModel, WatermarkKey, InsertionReport]:
    """Insert an EmMark watermark into ``model``.

    Parameters
    ----------
    model:
        The original quantized model (INT8 or INT4).
    activations:
        Full-precision activation statistics collected with
        :func:`repro.models.activations.collect_activation_stats`.
    config:
        Insertion hyper-parameters; defaults to
        :meth:`EmMarkConfig.scaled_for_model` for the given model.
    signature:
        Optional explicit ±1 signature of length
        ``bits_per_layer × num_layers``; generated from
        ``config.signature_seed`` when omitted.
    in_place:
        Modify ``model`` directly instead of watermarking a copy.
    engine:
        Run on a specific :class:`~repro.engine.WatermarkEngine`; the
        process-wide default engine (shared plan cache) is used when omitted.
    occupied:
        Slots already held by co-resident watermarks — a
        :class:`repro.engine.SlotAllocator` or a plain ``{layer: indices}``
        mapping.  Planning re-ranks past them so the new signature lands on
        a disjoint pool; see :meth:`WatermarkEngine.insert`.
    owner:
        Label the new key's slots are claimed under when ``occupied`` is an
        allocator.

    Returns
    -------
    (watermarked_model, key, report)
        The watermarked model, the owner's key, and timing information
        (per-layer CPU cost plus the parallel wall-clock; see
        :class:`~repro.engine.reports.InsertionReport`).
    """
    return _engine(engine).insert(
        model,
        activations,
        config=config,
        signature=signature,
        in_place=in_place,
        occupied=occupied,
        owner=owner,
    )


def insert_watermark_multi(
    model: QuantizedModel,
    activations: ActivationStats,
    owners: "Union[int, Sequence[EmMarkConfig], Mapping[str, EmMarkConfig]]",
    signatures: Optional[Mapping[str, np.ndarray]] = None,
    in_place: bool = False,
    engine: "Optional[WatermarkEngine]" = None,
    allocator: "Optional[SlotAllocator]" = None,
) -> MultiOwnerInsertionResult:
    """Insert N independently keyed watermarks into **one** model.

    Functional facade over :meth:`WatermarkEngine.insert_multi`: every
    owner's signature is placed on a disjoint slot pool (collision-aware
    allocation), each key extracts independently at 100% WER from the
    returned model, and each key records its co-residents.  ``owners`` is an
    owner count or explicit per-owner configurations; see the engine method
    for the full parameter documentation.
    """
    return _engine(engine).insert_multi(
        model,
        activations,
        owners,
        signatures=signatures,
        in_place=in_place,
        allocator=allocator,
    )
