"""Traced run: wrap each layer's public callables in ``repro.obs`` spans.

The program already opens ``engine.plan``, ``engine.score_topk``,
``engine.insert``, ``engine.reproduce_locations``, ``engine.verify_fleet``,
``engine.verify_pair`` and ``gauntlet.cell`` spans.  :func:`instrument`
adds spans, from outside the program, around the callables of the other
layers, so everything lands in one :class:`~repro.obs.trace.TraceCollector`
tree.  Callers that imported a function by name hold their own binding, so
each wrapper is installed on the binding the caller uses (for example
``repro.service.server.key_from_wire``, not ``repro.service.codec``).
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from helpers import layer_totals, stats_delta

from repro.obs.trace import span
from repro.robustness.attacks import ATTACK_REGISTRY

#: (span name, module, attribute path) of every wrapped binding.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("engine.plan_key", "repro.engine.engine", "plan_fingerprint"),
    ("engine.plan_compute", "repro.engine.engine", "select_candidates"),
    ("engine.verify_pair", "repro.engine.engine", "FleetVerificationSession.verify_once"),
    ("codec.key_encode", "repro.service.client", "key_to_wire"),
    ("codec.model_encode", "repro.service.client", "model_to_wire"),
    ("codec.key_decode", "repro.service.server", "key_from_wire"),
    ("codec.key_decode", "repro.service.fleet.router", "key_from_wire"),
    ("codec.model_decode", "repro.service.server", "model_from_wire"),
    ("codec.model_decode", "repro.service.fleet.router", "model_from_wire"),
    ("keys.fingerprint", "repro.core.keys", "WatermarkKey.fingerprint"),
    ("keys.fingerprint", "repro.core.keys", "WatermarkKey.model_fingerprint"),
    ("keys.fingerprint", "repro.core.keys", "model_fingerprint"),
    ("keys.fingerprint", "repro.service.server", "model_fingerprint"),
    ("keys.fingerprint", "repro.service.fleet.router", "model_fingerprint"),
    ("registry.register", "repro.service.registry", "KeyRegistry.register"),
    ("registry.active_keys", "repro.service.registry", "KeyRegistry.active_keys"),
    ("eval.evaluate", "repro.eval.harness", "EvaluationHarness.evaluate"),
)

#: Attacks of the gauntlet sweep; each gets ``attack.apply_ms.<name>``.
SWEEP_ATTACKS = ("overwrite", "rewatermark", "requantize", "pruning")

#: Spans the program opens itself (their names are part of its telemetry).
PROGRAM_SPANS = (
    "engine.insert", "engine.reproduce_locations", "engine.verify_fleet",
    "engine.verify_pair", "gauntlet.cell",
)


def _wrap(name: str, original):
    if name.endswith("_encode"):
        # Encoders also report the size of the base64 body they produced.
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with span(name) as record:
                wire = original(*args, **kwargs)
                record.attrs["bytes"] = len(wire["arrays"])
                return wire
    else:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

    traced.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
    return traced


def _targets() -> List[Tuple[str, object, str]]:
    """(span name, owner object, attribute) for every binding to patch."""
    targets = []
    for name, module_name, path in BOUNDARIES:
        owner: object = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        targets.append((name, owner, attribute))
    # Attack specs override ``apply`` per subclass; patch each override.
    for attack, cls in ATTACK_REGISTRY.items():
        if "apply" in vars(cls):
            targets.append((f"attack.apply.{attack}", cls, "apply"))
    return targets


@contextmanager
def instrument() -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    installed = []
    try:
        for name, owner, attribute in _targets():
            original = vars(owner)[attribute]
            if getattr(original, "__wrapped_by_perfbench__", False):
                raise RuntimeError(f"{owner}.{attribute} is already instrumented")
            setattr(owner, attribute, _wrap(name, original))
            installed.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)


def span_names() -> List[str]:
    """Every span name the traced run aggregates."""
    names = {name for name, _m, _p in BOUNDARIES} | set(PROGRAM_SPANS)
    names |= {f"attack.apply.{attack}" for attack in SWEEP_ATTACKS}
    return sorted(names)


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def layer_metrics(
    records: Sequence[object],
    ops: int,
    phase,
    stats_before: Sequence[Mapping[str, object]],
    stats_after: Sequence[Mapping[str, object]],
    cache_before: Sequence[Mapping[str, object]],
    cache_after: Sequence[Mapping[str, object]],
    registry_dirs: Sequence[Path],
    workers: int,
    fleet: bool = False,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-op layer figures from the traced phase; also returns call counts.

    ``stats_*`` are ``/v1/stats`` snapshots of every server that did work
    (one per fleet shard) taken around the phase; ``cache_*`` are plan-cache
    counters of in-process engines the workload drives directly.  ``fleet``
    adds the router figures (``fleet.*``).
    """
    per = float(max(ops, 1))
    totals = layer_totals(records, span_names())
    calls = {name: t["calls"] for name, t in totals.items()}

    def ms(name: str) -> float:
        return totals[name]["ms"] / per

    metrics: Dict[str, float] = {
        "engine.plan_key_ms": ms("engine.plan_key"),
        "engine.plan_key_calls": calls["engine.plan_key"] / per,
        "engine.plan_compute_ms": ms("engine.plan_compute"),
        "engine.plan_compute_calls": calls["engine.plan_compute"] / per,
        "engine.reproduce_locations_ms": ms("engine.reproduce_locations"),
        "engine.verify_fleet_ms": ms("engine.verify_fleet"),
        "engine.verify_pair_ms": ms("engine.verify_pair"),
        # Matching time: the pair span minus nested location reproduction.
        "engine.verify_pair_self_ms": totals["engine.verify_pair"]["self_ms"] / per,
        "engine.insert_ms": ms("engine.insert"),
        "codec.key_encode_ms": ms("codec.key_encode"),
        "codec.model_encode_ms": ms("codec.model_encode"),
        "codec.key_decode_ms": ms("codec.key_decode"),
        "codec.model_decode_ms": ms("codec.model_decode"),
        "keys.fingerprint_ms": ms("keys.fingerprint"),
        "registry.register_ms": ms("registry.register"),
        "registry.active_keys_ms": ms("registry.active_keys"),
        "eval.evaluate_ms": ms("eval.evaluate"),
    }
    for attack in SWEEP_ATTACKS:
        name = f"attack.apply.{attack}"
        # Per call of that attack: the cells of one attack share a cost shape.
        metrics[f"attack.apply_ms.{attack}"] = (
            totals[name]["ms"] / calls[name] if calls[name] else 0.0
        )

    # Plan caches: the servers' (from /v1/stats) and in-process engines'.
    hits = misses = evictions = 0.0
    caches_before = [s["plan_cache"] for s in stats_before] + list(cache_before)
    caches_after = [s["plan_cache"] for s in stats_after] + list(cache_after)
    for before, after in zip(caches_before, caches_after):
        hits += stats_delta(before, after, "hits")
        misses += stats_delta(before, after, "misses")
        evictions += stats_delta(before, after, "evictions")
    lookups = hits + misses
    metrics["engine.plan_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["engine.plan_cache_lookups"] = lookups / per
    metrics["engine.plan_cache_evictions"] = evictions / per

    metrics["codec.wire_bytes"] = sum(
        r.attrs.get("bytes", 0) for r in records  # type: ignore[attr-defined]
        if r.name in ("codec.key_encode", "codec.model_encode")  # type: ignore[attr-defined]
    ) / per

    # Dispatcher, server residual and fleet forwarding from /v1/stats diffs.
    batches = jobs = queue_sum = queue_count = server_s = 0.0
    for before, after in zip(stats_before, stats_after):
        batches += stats_delta(before, after, "dispatcher.batch_size.count")
        jobs += stats_delta(before, after, "dispatcher.batch_size.sum")
        queue_sum += stats_delta(before, after, "dispatcher.queue_seconds.sum")
        queue_count += stats_delta(before, after, "dispatcher.queue_seconds.count")
        server_s += stats_delta(before, after, "server.request_seconds.sum")
    metrics["dispatch.batch_size"] = jobs / batches if batches else 0.0
    metrics["dispatch.queue_wait_ms"] = 1000.0 * queue_sum / queue_count if queue_count else 0.0
    client_s = phase.client_call_s - (
        totals["codec.key_encode"]["ms"] + totals["codec.model_encode"]["ms"]
    ) / 1000.0
    metrics["server.residual_ms"] = 1000.0 * (client_s - server_s) / per if stats_before else 0.0
    if fleet:
        # Behind the router the residual is the router's forwarding cost.
        metrics["fleet.forward_ms"] = metrics["server.residual_ms"]
        metrics["fleet.shard_share"] = server_s / client_s if client_s > 0 else 0.0

    records_total = 0
    disk = 0
    for directory in registry_dirs:
        # One sub-directory per registered key (revoked ones stay on disk).
        disk += directory_bytes(directory)
        records_total += sum(1 for entry in Path(directory).iterdir() if entry.is_dir())
    metrics["registry.disk_bytes"] = disk / records_total if records_total else 0.0

    cells = totals["gauntlet.cell"]
    metrics["gauntlet.worker_busy_share"] = (
        cells["ms"] / 1000.0 / (workers * phase.wall_s) if cells["calls"] else 0.0
    )
    # Cell time outside attack, evaluation and verification spans.
    metrics["gauntlet.cell_self_ms"] = cells["self_ms"] / cells["calls"] if cells["calls"] else 0.0
    metrics["gauntlet.cpu_ms_per_cell"] = (
        1000.0 * phase.cpu_s / cells["calls"] if cells["calls"] else 0.0
    )
    calls["dispatch.batches"] = batches
    return metrics, calls
