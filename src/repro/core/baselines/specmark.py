"""SpecMark: spectral (DCT-domain) watermarking applied to quantized weights.

SpecMark [Chen et al., INTERSPEECH 2020] watermarks full-precision speech
models by transforming the weights into the discrete cosine transform (DCT)
domain and adding a small spread-spectrum signature to the high-frequency
coefficients, where it is imperceptible and robust to fine-tuning.

The paper applies the same procedure to the *quantized* weights of embedded
LLMs (Section 5.1, "Baselines") and observes that it fails: the weight grid
is discrete, so after the inverse transform the watermarked weights must be
re-rounded to integer levels, which erases the tiny high-frequency additions
— the extraction rate collapses to 0% while model quality is (trivially)
unchanged.  This module reproduces exactly that behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy import fft as scipy_fft

from repro.core.extraction import ExtractionResult
from repro.core.interface import InsertionRecord, Watermarker
from repro.core.signature import generate_signature, split_signature_per_layer, validate_signature
from repro.models.activations import ActivationStats
from repro.quant.base import QuantizedModel
from repro.utils.rng import new_rng

__all__ = ["SpecMark"]


class SpecMark(Watermarker):
    """DCT-domain spectral watermarking.

    Parameters
    ----------
    bits_per_layer:
        Signature bits embedded in each layer's high-frequency band.
    embedding_strength:
        Magnitude ε of the additive perturbation applied to each selected DCT
        coefficient.  SpecMark keeps this small so that the full-precision
        model quality is unaffected; on a quantized grid the same smallness is
        precisely why the watermark does not survive re-rounding.
    high_frequency_fraction:
        Fraction of the spectrum (counted from the highest frequency) that is
        eligible to carry signature bits.
    seed:
        Seed for choosing coefficient positions within the band.
    signature_seed:
        Seed for the Rademacher signature when none is supplied.
    """

    method_name = "specmark"

    def __init__(
        self,
        bits_per_layer: int = 12,
        embedding_strength: float = 0.01,
        high_frequency_fraction: float = 0.25,
        seed: int = 100,
        signature_seed: int = 1,
    ) -> None:
        if bits_per_layer < 1:
            raise ValueError("bits_per_layer must be >= 1")
        if embedding_strength <= 0:
            raise ValueError("embedding_strength must be positive")
        if not 0.0 < high_frequency_fraction <= 1.0:
            raise ValueError("high_frequency_fraction must be in (0, 1]")
        self.bits_per_layer = int(bits_per_layer)
        self.embedding_strength = float(embedding_strength)
        self.high_frequency_fraction = float(high_frequency_fraction)
        self.seed = int(seed)
        self.signature_seed = int(signature_seed)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _band_positions(self, layer_size: int, rng: np.random.Generator) -> np.ndarray:
        """Choose coefficient positions inside the high-frequency band."""
        band_size = max(self.bits_per_layer, int(layer_size * self.high_frequency_fraction))
        band_start = layer_size - band_size
        positions = rng.choice(band_size, size=min(self.bits_per_layer, band_size), replace=False)
        return np.sort(band_start + positions)

    @staticmethod
    def _forward_transform(weights: np.ndarray) -> np.ndarray:
        """Orthonormal 1-D DCT-II of the flattened weight matrix."""
        return scipy_fft.dct(weights.reshape(-1).astype(np.float64), norm="ortho")

    @staticmethod
    def _inverse_transform(coefficients: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
        """Inverse DCT back to the weight domain."""
        return scipy_fft.idct(coefficients, norm="ortho").reshape(shape)

    # ------------------------------------------------------------------
    # Watermarker interface
    # ------------------------------------------------------------------
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

        def watermark_layer(name: str) -> Tuple[str, np.ndarray, np.ndarray]:
            layer = watermarked.get_layer(name)
            rng = new_rng(self.seed, "specmark", name)
            coefficients = self._forward_transform(layer.weight_int)
            layer_positions = self._band_positions(coefficients.size, rng)
            reference = coefficients[layer_positions].copy()
            bits = per_layer[name][: layer_positions.size]
            coefficients[layer_positions] += self.embedding_strength * bits
            # Back to the weight domain — and back onto the integer grid,
            # because the deployed embedded model stores integer levels.
            perturbed = self._inverse_transform(coefficients, layer.weight_int.shape)
            layer.weight_int = layer.grid.clip(np.round(perturbed)).astype(np.int64)
            return name, layer_positions, reference

        reference_coefficients: Dict[str, np.ndarray] = {}
        positions: Dict[str, np.ndarray] = {}
        for name, layer_positions, reference in map(watermark_layer, layer_names):
            positions[name] = layer_positions
            reference_coefficients[name] = reference
        record = InsertionRecord(
            method=self.method_name,
            signature=signature,
            payload={
                "positions": positions,
                "reference_coefficients": reference_coefficients,
                "bits_per_layer": self.bits_per_layer,
                "layer_names": layer_names,
                "embedding_strength": self.embedding_strength,
            },
        )
        return watermarked, record

    def extract(self, suspect: QuantizedModel, record: InsertionRecord) -> ExtractionResult:
        positions: Dict[str, np.ndarray] = record.payload["positions"]
        reference: Dict[str, np.ndarray] = record.payload["reference_coefficients"]
        layer_names = record.payload["layer_names"]
        bits_per_layer = record.payload["bits_per_layer"]
        strength = record.payload["embedding_strength"]
        signature = validate_signature(record.signature)
        per_layer = split_signature_per_layer(signature, layer_names, bits_per_layer)

        def match_layer(name: str) -> Tuple[str, int, int]:
            layer_signature = per_layer[name]
            if name not in suspect.layers:
                return name, -1, layer_signature.size
            coefficients = self._forward_transform(suspect.get_layer(name).weight_int)
            layer_positions = positions[name]
            delta = coefficients[layer_positions] - reference[name]
            # A bit counts as extracted when the coefficient moved in the
            # signed direction by at least half the embedding strength.
            decoded = np.where(delta >= 0.5 * strength, 1, np.where(delta <= -0.5 * strength, -1, 0))
            return name, int(np.sum(decoded == layer_signature[: layer_positions.size])), layer_signature.size

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
            locations=positions,
        )
