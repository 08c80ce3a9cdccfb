"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import helpers  # noqa: E402
from helpers import (  # noqa: E402
    CoverageError,
    PeakRss,
    check_coverage,
    layer_totals,
    outermost,
    percentile,
    quartiles,
    samples_beyond,
    self_times_us,
    stats_delta,
)


# ----------------------------------------------------------------------
# Tail-percentile rule
# ----------------------------------------------------------------------
def test_samples_beyond_counts_strictly_above_the_percentile():
    values = [float(v) for v in range(1, 101)]
    assert samples_beyond(values, 90) == 10
    assert samples_beyond(values, 100) == 0
    assert samples_beyond([5.0] * 20, 50) == 0


@pytest.mark.parametrize("workload, samples", [
    ("verify-warm", 900), ("owner-onboard", 40), ("gauntlet-sweep", 38), ("fleet-verify", 900),
])
def test_fixed_tails_keep_ten_samples_beyond_at_typical_run_sizes(workload, samples):
    # Sample counts of a 20 s run on a 2-core host in a noisy period.
    import workloads

    values = list(np.random.default_rng(samples).lognormal(size=samples))
    pct = workloads.WORKLOADS[workload].tail_pct
    assert samples_beyond(values, pct) >= helpers.MIN_TAIL_SAMPLES


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).normal(size=101))
    for pct in (0, 12.5, 50, 98.5, 100):
        assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_quartiles_use_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.8, 9.7, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    summary = quartiles(values)
    assert (summary["q1"], summary["median"], summary["q3"]) == (q1, median, q3)
    assert summary["spread"] == pytest.approx((q3 - q1) / median)


# ----------------------------------------------------------------------
# /v1/stats diff arithmetic
# ----------------------------------------------------------------------
def _stats(hits, batches, jobs, queue_sum, queue_count):
    return {
        "plan_cache": {"hits": hits},
        "dispatcher": {
            "batch_size": {"count": batches, "sum": jobs},
            "queue_seconds": {"count": queue_count, "sum": queue_sum},
        },
    }


def test_stats_delta_of_counters_and_summaries():
    before = _stats(10, 4, 6, 0.02, 6)
    after = _stats(58, 14, 26, 0.07, 26)
    assert stats_delta(before, after, "plan_cache.hits") == 48
    batches = stats_delta(before, after, "dispatcher.batch_size.count")
    jobs = stats_delta(before, after, "dispatcher.batch_size.sum")
    assert jobs / batches == 2.0
    queue = stats_delta(before, after, "dispatcher.queue_seconds.sum") / stats_delta(
        before, after, "dispatcher.queue_seconds.count"
    )
    assert queue == pytest.approx(0.05 / 20)


def test_stats_delta_rejects_backwards_counters_and_missing_fields():
    with pytest.raises(ValueError):
        stats_delta(_stats(5, 0, 0, 0, 0), _stats(4, 0, 0, 0, 0), "plan_cache.hits")
    with pytest.raises(KeyError):
        stats_delta({}, {}, "plan_cache.hits")


# ----------------------------------------------------------------------
# Peak RSS: VmHWM reset and its fallback
# ----------------------------------------------------------------------
def _status(path: Path, rss_kb: int, hwm_kb: int) -> None:
    path.write_text(f"Name:\tpython\nVmHWM:\t{hwm_kb} kB\nVmRSS:\t{rss_kb} kB\n")


def test_peak_rss_reads_vmhwm_after_reset(tmp_path):
    clear_refs, status = tmp_path / "clear_refs", tmp_path / "status"
    clear_refs.write_text("")
    _status(status, rss_kb=1024, hwm_kb=4096)
    peak = PeakRss(str(clear_refs), str(status)).start()
    assert peak.method == "vmhwm"
    assert clear_refs.read_text() == "5"
    _status(status, rss_kb=1024, hwm_kb=3072)
    assert peak.stop() == 3.0


def test_peak_rss_samples_when_clear_refs_is_unwritable(tmp_path):
    status = tmp_path / "status"
    _status(status, rss_kb=1024, hwm_kb=999_999)
    peak = PeakRss(str(tmp_path / "missing" / "clear_refs"), str(status), interval=0.001).start()
    assert peak.method == "sampled"
    _status(status, rss_kb=5120, hwm_kb=999_999)
    deadline = 200
    while peak._peak_kb < 5120 and deadline:
        time.sleep(0.005)
        deadline -= 1
    _status(status, rss_kb=2048, hwm_kb=999_999)
    # The sampled peak ignores the whole-process VmHWM.
    assert peak.stop() == 5.0


def test_peak_rss_on_this_kernel():
    peak = PeakRss().start()
    assert peak.stop() > 1.0


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _span(span_id, name, duration_ms, parent=None):
    return SimpleNamespace(
        span_id=span_id, name=name, duration_us=duration_ms * 1000.0, parent_id=parent, attrs={}
    )


def test_self_time_subtracts_direct_children_only():
    records = [
        _span(1, "gauntlet.cell", 100),
        _span(2, "attack.apply.overwrite", 30, parent=1),
        _span(3, "eval.evaluate", 50, parent=1),
        _span(4, "engine.plan_key", 5, parent=3),
        # A pool-thread span: no parent link, so never subtracted.
        _span(5, "engine.plan_key", 40),
    ]
    selfs = self_times_us(records)
    assert selfs[1] == pytest.approx(20_000.0)
    assert selfs[3] == pytest.approx(45_000.0)
    totals = layer_totals(records, ["engine.plan_key"])
    assert totals["engine.plan_key"] == {"calls": 2.0, "ms": 45.0, "self_ms": 45.0}


def test_nested_spans_of_one_layer_count_once():
    records = [
        _span(1, "keys.fingerprint", 10),
        _span(2, "keys.fingerprint", 8, parent=1),
        _span(3, "keys.fingerprint", 3),
    ]
    by_id = {r.span_id: r for r in records}
    assert [r.span_id for r in outermost(records, "keys.fingerprint", by_id)] == [1, 3]
    assert layer_totals(records, ["keys.fingerprint"])["keys.fingerprint"]["ms"] == 13.0


# ----------------------------------------------------------------------
# Boundary coverage
# ----------------------------------------------------------------------
def test_coverage_check_fails_loudly_on_a_silent_boundary():
    calls = {"engine.plan_key": 48.0, "codec.key_decode": 0.0}
    check_coverage(calls, ["engine.plan_key"], "verify-warm")
    with pytest.raises(CoverageError, match="codec.key_decode, codec.model_decode"):
        check_coverage(calls, ["engine.plan_key", "codec.key_decode", "codec.model_decode"],
                       "owner-onboard")


def test_instrumented_binding_records_a_span_and_is_restored():
    import layers

    import repro.engine.engine as engine_module
    import repro.service.codec as codec_module
    import repro.service.server as server_module
    from repro.obs.trace import TraceCollector, tracing

    original = engine_module.plan_fingerprint
    collector = TraceCollector()
    with layers.instrument(), tracing(collector):
        assert engine_module.plan_fingerprint is not original
        # The server's own binding is wrapped; the codec module's is not.
        assert server_module.key_from_wire is not codec_module.key_from_wire
        engine_module.plan_fingerprint(
            layer_name="l0", grid_bits=4, weight_int=np.zeros((2, 2), dtype=np.int8),
            outlier_columns=None, channel_activations=np.ones(2), alpha=1.0, beta=1.0,
            seed=3, exclude_saturated=True, pool_size=2, bits_needed=1,
        )
    assert engine_module.plan_fingerprint is original
    assert server_module.key_from_wire is codec_module.key_from_wire
    totals = layer_totals(collector.records, layers.span_names())
    calls = {name: t["calls"] for name, t in totals.items()}
    assert calls["engine.plan_key"] == 1
    with pytest.raises(CoverageError, match="codec.key_decode"):
        check_coverage(calls, ["engine.plan_key", "codec.key_decode"], "owner-onboard")


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py reports
# ----------------------------------------------------------------------
def test_benchmark_json_matches_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in run.WORKLOAD_NAMES if name in gated]
    assert len(gated) >= 2
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
