"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper on the simulated
substrate, prints the rendered rows and also writes them to
``benchmarks/results/<name>.txt`` so they can be inspected after a
``pytest benchmarks/ --benchmark-only`` run and copied into EXPERIMENTS.md.

Environment knobs
-----------------
``REPRO_FULL_TABLE1=1``
    Run Table 1 over all nine sim models instead of the four-model subset.
``REPRO_BENCH_PROFILE``
    Override the training profile used by the benchmarks (default
    ``"default"``; set to ``"smoke"`` for a fast structural check).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core.scoring import combined_score
from repro.utils.rng import new_rng

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def bench_profile() -> str:
    """Training profile used by the benchmark suite."""
    return os.environ.get("REPRO_BENCH_PROFILE", "default")


def write_result(name: str, content: str) -> Path:
    """Print and persist a rendered experiment table."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n")
    print(f"\n{content}\n[written to {path}]")
    return path


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiment harnesses are deterministic and expensive (they train and
    evaluate simulated LLMs), so a single round is both sufficient and the
    only affordable choice.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


def seed_select_locations(layer, channel_activations, bits_needed, config):
    """The seed's per-layer selection: full argsort over an inf-masked matrix.

    An independent re-implementation of the paper's location selection
    (score every weight, drop excluded positions, keep the ``|B_c|`` lowest
    scores in stable order, sub-sample ``bits_needed`` with the seed-``d``
    RNG) that shares none of the engine's ``argpartition`` top-k code.  The
    engine throughput benchmark times it as the seed pipeline, and the
    selection-oracle tests compare the engine's locations against it.
    """
    scores = combined_score(
        layer, channel_activations, config.alpha, config.beta,
        exclude_saturated=config.exclude_saturated,
    )
    flat = scores.reshape(-1)
    finite = np.flatnonzero(np.isfinite(flat))
    pool_size = min(config.candidate_pool_size(layer.num_weights), finite.size)
    order = np.argsort(flat[finite], kind="stable")
    candidates = finite[order[:pool_size]]
    rng = new_rng(config.seed, "selection", layer.name)
    return np.asarray(
        rng.choice(candidates, size=bits_needed, replace=False), dtype=np.int64
    )
