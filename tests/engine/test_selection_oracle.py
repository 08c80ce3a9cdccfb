"""Engine location selection against an independent oracle.

The engine plans watermark locations with an ``argpartition`` top-k over
boolean exclusion masks and serves them from its plan cache.
``bench_utils.seed_select_locations`` is the seed's selection — a full
stable ``argsort`` over the ``+inf``-masked score matrix, then the seed-``d``
sub-sample — and shares none of that ranking or caching code.  On randomized
layer shapes, 4- and 8-bit grids and heavily tied scores, the locations the
engine reproduces from a key must equal the oracle's exactly, in order.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Under --import-mode=importlib the benchmarks directory is not on sys.path;
# make the oracle importable the same way benchmarks/conftest.py does.
_BENCH_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks")
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

from bench_utils import seed_select_locations  # noqa: E402

from repro.core.config import EmMarkConfig  # noqa: E402
from repro.engine import WatermarkEngine  # noqa: E402
from repro.models.activations import ActivationStats  # noqa: E402
from repro.models.config import ModelConfig  # noqa: E402
from repro.quant.base import QuantizationGrid, QuantizedLinear, QuantizedModel  # noqa: E402


def _random_model(rng: np.random.Generator, bits: int):
    """A quantized model of random layer shapes with heavily tied scores.

    Weights take a handful of integer levels (zeros and saturated levels
    included, so every exclusion rule fires) and activations a handful of
    values, so many positions share one score and the ranking's
    tie-breaking decides the pool.
    """
    grid = QuantizationGrid(bits)
    num_layers = int(rng.integers(2, 5))
    layers, mean_abs = {}, {}
    for index in range(num_layers):
        name = f"block{index}.fc"
        rows, cols = int(rng.integers(8, 33)), int(rng.integers(8, 33))
        levels = rng.choice(
            np.arange(grid.qmin, grid.qmax + 1), size=int(rng.integers(3, 6)), replace=False
        )
        levels = np.union1d(levels, [0, 1, -1, grid.qmin, grid.qmax])
        weight = rng.choice(levels, size=(rows, cols)).astype(np.int64)
        layers[name] = QuantizedLinear(
            name=name, weight_int=weight, scale=np.ones((rows, 1)), grid=grid
        )
        mean_abs[name] = rng.choice([0.25, 0.5, 1.0, 2.0], size=cols)
    model = QuantizedModel(
        config=ModelConfig(name=f"oracle-int{bits}"),
        layers=layers,
        full_precision_state={},
        method="rtn",
        bits=bits,
    )
    return model, ActivationStats(mean_abs=mean_abs)


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("case", range(8))
def test_reproduced_locations_match_the_oracle(bits, case):
    rng = np.random.default_rng([bits, case])
    model, activations = _random_model(rng, bits)
    config = EmMarkConfig(
        bits_per_layer=int(rng.choice([4, 8, 16])),
        alpha=float(rng.choice([0.5, 1.0, 2.0])),
        beta=float(rng.choice([0.0, 0.5, 1.0])),
        seed=int(rng.integers(1000)),
        candidate_pool_ratio=float(rng.choice([1.0, 2.0, 5.0])),
    )
    engine = WatermarkEngine()
    _, key, _ = engine.insert(model, activations, config=config)

    expected = {
        name: seed_select_locations(
            layer, activations.channel_saliency(name), config.bits_per_layer, config
        )
        for name, layer in model.layers.items()
    }
    # Warm (the insertion's cached plans) and cold (a fresh cache) agree.
    for reproduced in (engine.reproduce_locations(key), WatermarkEngine().reproduce_locations(key)):
        assert list(reproduced) == list(expected)
        for name, locations in expected.items():
            np.testing.assert_array_equal(reproduced[name], locations)
