"""Engine throughput benchmark — emits ``BENCH_engine.json``.

Tracks the performance trajectory of the unified watermarking engine from
PR 1 onward:

* ``insertions_per_sec`` / ``extractions_per_sec_{cold,warm}`` on the default
  test model,
* cold vs. warm-cache verification latency (the plan cache's whole point),
* an honest comparison against a **seed-equivalent reference pipeline**
  (full ``np.argsort`` scoring, ``+inf``-based exclusion masks, serial
  layers, no plan reuse between insertion and extraction — the pre-engine
  code path re-implemented here verbatim).

Run modes
---------
``pytest benchmarks/test_engine_throughput.py``
    Full measurement (several repeats, best-of timing).
``REPRO_BENCH_SMOKE=1 pytest benchmarks/test_engine_throughput.py``
    Single-repeat structural check used by CI.

The JSON lands in ``benchmarks/results/BENCH_engine.json`` (override the
directory with ``REPRO_BENCH_RESULTS``).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np
from bench_utils import seed_select_locations

from repro.core.config import EmMarkConfig
from repro.core.signature import generate_signature, split_signature_per_layer
from repro.data.wikitext import build_wikitext_sim
from repro.engine import WatermarkEngine
from repro.models.activations import collect_activation_stats
from repro.models.config import ModelConfig
from repro.models.training import TrainingConfig, train_language_model
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _results_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_RESULTS")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "results"


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs (robust against scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Seed-equivalent reference pipeline (pre-engine code path)
# ----------------------------------------------------------------------
def _seed_roundtrip(model, activations, config):
    """Serial insert + extract with per-call rescoring (the seed behaviour)."""
    layer_names = model.layer_names()
    signature = generate_signature(config.total_bits(len(layer_names)), config.signature_seed)
    per_layer = split_signature_per_layer(signature, layer_names, config.bits_per_layer)
    watermarked = model.clone()
    for name in layer_names:
        layer = watermarked.get_layer(name)
        locations = seed_select_locations(
            layer, activations.channel_saliency(name), per_layer[name].size, config
        )
        layer.add_to_weights(locations, per_layer[name])
    # Extraction re-runs the entire scoring pipeline from the reference model.
    matched = 0
    for name in layer_names:
        reference_layer = model.get_layer(name)
        locations = seed_select_locations(
            reference_layer, activations.channel_saliency(name), per_layer[name].size, config
        )
        delta = (
            watermarked.get_layer(name).weight_int.reshape(-1)[locations]
            - reference_layer.weight_int.reshape(-1)[locations]
        )
        matched += int(np.sum(delta == per_layer[name]))
    assert matched == signature.size
    return watermarked


# ----------------------------------------------------------------------
# Benchmark fixture model (mirrors the tier-1 test model)
# ----------------------------------------------------------------------
def _build_subject():
    dataset = build_wikitext_sim(
        vocab_size=128,
        train_tokens=12_000,
        validation_tokens=3_000,
        calibration_tokens=2_000,
        seed=99,
    )
    model_config = ModelConfig(
        name="bench-tiny-opt",
        vocab_size=128,
        d_model=32,
        n_layers=2,
        n_heads=2,
        d_ff=64,
        max_seq_len=32,
        norm_type="layernorm",
        activation="relu",
        family="opt",
        virtual_params_billions=0.125,
    )
    model = TransformerLM(model_config, seed=0)
    steps = 20 if _smoke() else 160
    train_language_model(
        model,
        dataset.train,
        TrainingConfig(steps=steps, batch_size=8, sequence_length=25, learning_rate=1e-2, seed=0),
    )
    activations = collect_activation_stats(model, dataset.calibration)
    quantized = quantize_model(model, "awq", bits=4, activations=activations)
    return quantized, activations


def test_engine_throughput():
    repeats = 1 if _smoke() else 5
    quantized, activations = _build_subject()
    config = EmMarkConfig.scaled_for_model(quantized, bits_per_layer=8)
    num_layers = quantized.num_quantization_layers

    # -- seed-equivalent reference ---------------------------------------
    seed_roundtrip = _best_of(lambda: _seed_roundtrip(quantized, activations, config), repeats)

    # -- engine: cold round-trip (fresh cache every run) ------------------
    def engine_cold_roundtrip():
        engine = WatermarkEngine()
        watermarked, key, _ = engine.insert(quantized, activations, config=config)
        result = engine.extract(watermarked, key)
        assert result.wer_percent == 100.0

    engine_roundtrip = _best_of(engine_cold_roundtrip, repeats)

    # -- engine: steady-state insertion / extraction throughput ----------
    engine = WatermarkEngine()
    watermarked, key, first_report = engine.insert(quantized, activations, config=config)
    cold_verification = first_report.wall_clock_seconds + engine.extract(
        watermarked, key
    ).wall_clock_seconds

    insertion_time = _best_of(
        lambda: engine.insert(quantized, activations, config=config), repeats
    )
    warm_extraction_time = _best_of(lambda: engine.extract(watermarked, key), repeats)

    def cold_extraction():
        fresh = WatermarkEngine()
        fresh.extract(watermarked, key)

    cold_extraction_time = _best_of(cold_extraction, repeats)

    cache = engine.cache_info()
    payload: Dict[str, object] = {
        "benchmark": "engine_throughput",
        "smoke": _smoke(),
        "model": quantized.config.name,
        "bits": quantized.bits,
        "num_layers": num_layers,
        "bits_per_layer": config.bits_per_layer,
        "repeats": repeats,
        "platform": platform.platform(),
        "seed_roundtrip_seconds": seed_roundtrip,
        "engine_roundtrip_seconds": engine_roundtrip,
        "roundtrip_speedup_vs_seed": seed_roundtrip / engine_roundtrip if engine_roundtrip else 0.0,
        "insertions_per_sec": 1.0 / insertion_time if insertion_time else 0.0,
        "extractions_per_sec_cold": 1.0 / cold_extraction_time if cold_extraction_time else 0.0,
        "extractions_per_sec_warm": 1.0 / warm_extraction_time if warm_extraction_time else 0.0,
        "verification_latency_cold_seconds": cold_verification,
        "verification_latency_warm_seconds": warm_extraction_time,
        "warm_vs_cold_extraction_speedup": (
            cold_extraction_time / warm_extraction_time if warm_extraction_time else 0.0
        ),
        "plan_cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "hit_rate": cache.hit_rate,
        },
    }
    results_dir = _results_dir()
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / "BENCH_engine.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n{json.dumps(payload, indent=2, sort_keys=True)}\n[written to {out_path}]")

    # Structural guarantees (always); performance guarantees (measured mode).
    assert payload["extractions_per_sec_warm"] > 0
    if not _smoke():
        # The acceptance bar: the engine round-trip beats the seed pipeline.
        assert engine_roundtrip < seed_roundtrip, (
            f"engine round-trip {engine_roundtrip:.4f}s is not faster than "
            f"seed-equivalent {seed_roundtrip:.4f}s"
        )
        # Warm-cache extraction must beat a cold-cache extraction.
        assert warm_extraction_time < cold_extraction_time
