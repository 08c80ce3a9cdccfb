"""Shared plumbing of the experiment modules.

Every experiment needs the same preparation: a pre-trained sim model, its
calibration activation statistics, a quantized instance produced by the
framework the paper pairs with that family/precision, and an evaluation
harness.  :func:`prepare_context` builds all of it (with caching across
experiments in the same process) and returns an :class:`ExperimentContext`.

Every context also carries the process-wide
:class:`~repro.engine.WatermarkEngine`, so all experiments — and in
particular the attack sweeps, which re-extract the same key many times —
share one location-plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.core.config import EmMarkConfig
from repro.engine import WatermarkEngine, get_default_engine
from repro.eval.harness import EvaluationHarness, QualityReport
from repro.models.activations import ActivationStats, collect_activation_stats
from repro.models.registry import get_model_config, get_pretrained_model_and_data
from repro.models.transformer import TransformerLM
from repro.quant.api import paper_quantizer_for, quantize_model
from repro.quant.base import QuantizedModel
from repro.utils.logging import get_logger

logger = get_logger("experiments")

__all__ = [
    "ExperimentContext",
    "prepare_context",
    "default_sim_bits_per_layer",
    "derive_owner_configs",
    "insert_multi_owner",
]

#: Per-layer signature payload used by the experiments for the simulated
#: models.  The paper inserts 300 bits into INT8 layers and 40 into INT4
#: layers of multi-million-weight matrices; the sim layers hold a few
#: thousand weights, so the payloads are scaled down while preserving the
#: INT8 > INT4 ordering.
SIM_BITS_PER_LAYER = {8: 24, 4: 12}


def default_sim_bits_per_layer(bits: int) -> int:
    """Per-layer payload used for a given precision in the sim experiments."""
    try:
        return SIM_BITS_PER_LAYER[bits]
    except KeyError as exc:
        raise ValueError("only INT8 and INT4 are configured") from exc


@dataclass
class ExperimentContext:
    """Everything an experiment needs for one (model, precision) pair.

    Attributes
    ----------
    model_name:
        Registry name of the simulated model.
    bits:
        Quantization precision (8 or 4).
    quant_method:
        The framework used (smoothquant / llm_int8 / awq), following the
        paper's pairing.
    full_precision:
        The pre-trained full-precision model.
    activations:
        Calibration activation statistics of the full-precision model.
    quantized:
        The quantized (not yet watermarked) model.
    harness:
        Shared evaluation harness.
    baseline_quality:
        Quality report of the non-watermarked quantized model (the "w/o WM"
        rows of Table 1).
    emmark_config:
        The scaled EmMark configuration used by default for this context.
    engine:
        The shared :class:`~repro.engine.WatermarkEngine` (process-wide
        default): experiments built from the same context reuse cached
        location plans across insertion, extraction and attack sweeps.
    """

    model_name: str
    bits: int
    quant_method: str
    full_precision: TransformerLM
    activations: ActivationStats
    quantized: QuantizedModel
    harness: EvaluationHarness
    baseline_quality: QualityReport
    emmark_config: EmMarkConfig
    engine: Optional[WatermarkEngine] = None

    def fresh_quantized(self) -> QuantizedModel:
        """A clone of the original quantized model safe to mutate."""
        return self.quantized.clone()


@lru_cache(maxsize=64)
def _cached_context(
    model_name: str,
    bits: int,
    profile: str,
    num_task_examples: Optional[int],
    quant_method: Optional[str],
) -> ExperimentContext:
    config = get_model_config(model_name)
    logger.info(
        "preparing experiment substrate: %s (INT%d, profile=%s)",
        model_name, bits, profile,
    )
    model, dataset = get_pretrained_model_and_data(model_name, profile=profile)
    activations = collect_activation_stats(model, dataset.calibration)
    method = quant_method or paper_quantizer_for(config.family, bits).method_name
    quantized = quantize_model(model, method, bits=bits, activations=activations)
    harness = EvaluationHarness(dataset, num_task_examples=num_task_examples)
    baseline_quality = harness.evaluate(quantized)
    logger.info(
        "substrate ready: %s via %s, baseline perplexity %.3f",
        model_name, method, baseline_quality.perplexity,
    )
    emmark_config = EmMarkConfig.scaled_for_model(
        quantized, bits_per_layer=default_sim_bits_per_layer(bits)
    )
    return ExperimentContext(
        model_name=model_name,
        bits=bits,
        quant_method=method,
        full_precision=model,
        activations=activations,
        quantized=quantized,
        harness=harness,
        baseline_quality=baseline_quality,
        emmark_config=emmark_config,
        engine=get_default_engine(),
    )


def prepare_context(
    model_name: str,
    bits: int,
    profile: str = "default",
    num_task_examples: Optional[int] = 32,
    quant_method: Optional[str] = None,
) -> ExperimentContext:
    """Build (or fetch from cache) the experiment context for one model.

    Parameters
    ----------
    model_name:
        Registry name, e.g. ``"opt-2.7b-sim"``.
    bits:
        Quantization precision, 8 or 4.
    profile:
        Training profile of the underlying sim model (``"default"`` or
        ``"smoke"``).
    num_task_examples:
        Cap on zero-shot examples per task (speeds up sweeps).
    quant_method:
        Override of the quantization framework; defaults to the paper's
        pairing for the model family and precision.
    """
    if bits not in (8, 4):
        raise ValueError("the paper evaluates INT8 and INT4 only")
    return _cached_context(model_name, bits, profile, num_task_examples, quant_method)


def derive_owner_configs(base: EmMarkConfig, owners: int) -> "dict[str, EmMarkConfig]":
    """Deterministic per-owner configurations for a multi-owner insertion.

    Thin re-export of :func:`repro.engine.engine.derive_owner_configs` — one
    source of the owner-naming/seed-offset scheme, so the engine's
    ``insert_multi(model, N)`` path and the experiment/CLI variants can
    never diverge.
    """
    from repro.engine.engine import derive_owner_configs as engine_derive

    return engine_derive(base, owners)


def insert_multi_owner(context: ExperimentContext, owners: int):
    """Insert ``owners`` co-resident signatures into one fresh quantized clone.

    Returns the engine's
    :class:`~repro.engine.reports.MultiOwnerInsertionResult`: one model
    carrying every owner's watermark on disjoint slot pools, each key
    extracting independently at 100% WER.
    """
    engine = context.engine if context.engine is not None else get_default_engine()
    return engine.insert_multi(
        context.fresh_quantized(),
        context.activations,
        derive_owner_configs(context.emmark_config, owners),
        in_place=True,
    )
