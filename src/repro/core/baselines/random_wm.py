"""RandomWM: signature insertion at random weight positions.

The baseline from Section 5.1: the same ±1 signature payload as EmMark, the
same per-layer budget, but the positions are drawn uniformly at random from
each layer instead of through the scoring function.  Because the positions
are random they frequently land on

* tiny weights (where a ±1 step is a 100% relative change or a sign flip) and
* saturated weights (where the addition clips and both damages the weight and
  loses the signature bit),

which is why the paper observes clear perplexity degradation at INT4 while
EmMark stays lossless.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.extraction import ExtractionResult
from repro.core.interface import InsertionRecord, Watermarker
from repro.core.signature import generate_signature, split_signature_per_layer, validate_signature
from repro.models.activations import ActivationStats
from repro.quant.base import QuantizedModel
from repro.utils.rng import new_rng

__all__ = ["RandomWM"]


class RandomWM(Watermarker):
    """Random-position watermark insertion.

    Parameters
    ----------
    bits_per_layer:
        Signature bits inserted into each quantization layer (kept identical
        to the EmMark configuration it is compared against).
    seed:
        Seed for the random position selection.
    signature_seed:
        Seed for the Rademacher signature when none is given explicitly.
    avoid_clipping:
        When true, positions whose addition would clip at the grid boundary
        are re-rolled (gives RandomWM its best case: 100% WER, as observed in
        Table 1, while still damaging quality).  When false, clipped
        insertions silently lose their bit.
    """

    method_name = "random_wm"

    def __init__(
        self,
        bits_per_layer: int = 12,
        seed: int = 100,
        signature_seed: int = 1,
        avoid_clipping: bool = True,
    ) -> None:
        if bits_per_layer < 1:
            raise ValueError("bits_per_layer must be >= 1")
        self.bits_per_layer = int(bits_per_layer)
        self.seed = int(seed)
        self.signature_seed = int(signature_seed)
        self.avoid_clipping = bool(avoid_clipping)

    def _layer_positions(
        self, layer, layer_signature: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniformly random positions, optionally avoiding clipping ones."""
        flat = layer.weight_int.reshape(-1)
        count = layer_signature.size
        if count > flat.size:
            raise ValueError(
                f"layer {layer.name!r} has {flat.size} weights but {count} bits were requested"
            )
        if not self.avoid_clipping:
            return rng.choice(flat.size, size=count, replace=False)
        eligible = np.flatnonzero(
            ((flat + layer_signature.max()) <= layer.grid.qmax)
            & ((flat + layer_signature.min()) >= layer.grid.qmin)
        )
        # Fall back to unconstrained sampling if the layer is pathologically
        # saturated; matching the signature is then no longer guaranteed.
        if eligible.size < count:
            return rng.choice(flat.size, size=count, replace=False)
        return rng.choice(eligible, size=count, replace=False)

    def insert(
        self,
        model: QuantizedModel,
        activations: Optional[ActivationStats] = None,
        signature: Optional[np.ndarray] = None,
    ) -> Tuple[QuantizedModel, InsertionRecord]:
        layer_names = model.layer_names()
        total_bits = self.bits_per_layer * len(layer_names)
        if signature is None:
            signature = generate_signature(total_bits, self.signature_seed)
        else:
            signature = validate_signature(signature)
            if signature.size != total_bits:
                raise ValueError(
                    f"signature has {signature.size} bits, expected {total_bits}"
                )
        per_layer = split_signature_per_layer(signature, layer_names, self.bits_per_layer)
        watermarked = model.clone()
        reference = model.integer_weight_snapshot()

        def watermark_layer(name: str) -> Tuple[str, np.ndarray]:
            layer = watermarked.get_layer(name)
            rng = new_rng(self.seed, "random-wm", name)
            positions = self._layer_positions(layer, per_layer[name], rng)
            layer.add_to_weights(positions, per_layer[name])
            return name, np.asarray(positions, dtype=np.int64)

        locations: Dict[str, np.ndarray] = dict(map(watermark_layer, layer_names))
        record = InsertionRecord(
            method=self.method_name,
            signature=signature,
            payload={
                "locations": locations,
                "reference_weights": reference,
                "bits_per_layer": self.bits_per_layer,
                "layer_names": layer_names,
            },
        )
        return watermarked, record

    def extract(self, suspect: QuantizedModel, record: InsertionRecord) -> ExtractionResult:
        locations: Dict[str, np.ndarray] = record.payload["locations"]
        reference: Dict[str, np.ndarray] = record.payload["reference_weights"]
        layer_names = record.payload["layer_names"]
        bits_per_layer = record.payload["bits_per_layer"]
        signature = validate_signature(record.signature)
        per_layer = split_signature_per_layer(signature, layer_names, bits_per_layer)

        def match_layer(name: str) -> Tuple[str, int, int]:
            layer_signature = per_layer[name]
            if name not in suspect.layers:
                return name, -1, layer_signature.size
            flat_suspect = suspect.get_layer(name).weight_int.reshape(-1)
            flat_reference = reference[name].reshape(-1)
            delta = flat_suspect[locations[name]] - flat_reference[locations[name]]
            return name, int(np.sum(delta == layer_signature)), layer_signature.size

        matched = 0
        total = 0
        per_layer_wer: Dict[str, float] = {}
        for name, layer_matched, layer_bits in map(match_layer, layer_names):
            total += layer_bits
            if layer_matched < 0:
                per_layer_wer[name] = 0.0
                continue
            matched += layer_matched
            per_layer_wer[name] = 100.0 * layer_matched / layer_bits
        return ExtractionResult.from_counts(
            total_bits=total,
            matched_bits=matched,
            per_layer_wer=per_layer_wer,
            locations=locations,
        )
