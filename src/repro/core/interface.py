"""Common interface shared by EmMark and the baseline watermarking schemes.

The fidelity experiment (Table 1) runs three watermarking frameworks —
EmMark, RandomWM and SpecMark — through the same pipeline: insert into a
quantized model, evaluate the watermarked model's quality, then extract and
report the WER.  :class:`Watermarker` is the small abstract interface that
lets the experiment treat them interchangeably.

All schemes share the :class:`~repro.engine.WatermarkEngine` execution
substrate, and :meth:`Watermarker.extract_many` screens several suspects
against one insertion record in a single call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.extraction import ExtractionResult
from repro.models.activations import ActivationStats
from repro.quant.base import QuantizedModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import WatermarkEngine

__all__ = ["InsertionRecord", "Watermarker"]


@dataclass
class InsertionRecord:
    """Method-agnostic record of one watermark insertion.

    EmMark's record wraps its :class:`~repro.core.keys.WatermarkKey`; the
    baselines store whatever they need to attempt extraction later (explicit
    locations for RandomWM, the DCT band description for SpecMark).
    """

    method: str
    signature: np.ndarray
    payload: Dict[str, object] = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        """Number of signature bits the method attempted to insert."""
        return int(np.asarray(self.signature).size)


class Watermarker:
    """Abstract base class for watermarking schemes.

    Sub-classes implement :meth:`insert` and :meth:`extract`; the shared
    :meth:`watermark_and_verify` convenience runs the full round trip used in
    the fidelity experiments.
    """

    #: Registry / reporting name of the scheme.
    method_name: str = "base"

    #: Engine the scheme runs on; ``None`` means the process-wide default.
    engine: "Optional[WatermarkEngine]" = None

    @property
    def _engine(self) -> "WatermarkEngine":
        """The execution engine (lazy import; see :mod:`repro.core.insertion`)."""
        if self.engine is not None:
            return self.engine
        from repro.engine.engine import get_default_engine

        return get_default_engine()

    def insert(
        self,
        model: QuantizedModel,
        activations: Optional[ActivationStats] = None,
        signature: Optional[np.ndarray] = None,
    ) -> Tuple[QuantizedModel, InsertionRecord]:
        """Insert a watermark and return ``(watermarked_model, record)``."""
        raise NotImplementedError

    def extract(self, suspect: QuantizedModel, record: InsertionRecord) -> ExtractionResult:
        """Extract the watermark from ``suspect`` using ``record``."""
        raise NotImplementedError

    def extract_many(
        self, suspects: Sequence[QuantizedModel], record: InsertionRecord
    ) -> List[ExtractionResult]:
        """Extract the same watermark from several suspects.

        The default implementation simply loops — cached schemes (EmMark)
        reuse one location plan for the whole batch.
        """
        return [self.extract(suspect, record) for suspect in suspects]

    def watermark_and_verify(
        self,
        model: QuantizedModel,
        activations: Optional[ActivationStats] = None,
        signature: Optional[np.ndarray] = None,
    ) -> Tuple[QuantizedModel, InsertionRecord, ExtractionResult]:
        """Insert, then immediately extract from the watermarked model.

        Returns the watermarked model, the insertion record and the
        self-extraction result (which should be 100% WER for a functioning
        scheme — SpecMark's failure to achieve this on quantized models is
        one of the paper's findings).
        """
        watermarked, record = self.insert(model, activations=activations, signature=signature)
        result = self.extract(watermarked, record)
        return watermarked, record, result

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"
