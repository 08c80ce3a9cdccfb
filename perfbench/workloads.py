"""The benchmark's workloads, each driving the program through its public API.

A workload is built by ``setup(rep)`` (called several times per run; each
call tears the previous state down and rebuilds everything from an
untrained model), warmed up untimed by ``warmup()``, and measured by
``run(seconds)``, which returns a :class:`Phase`.  Every operation is
checked against an answer computed independently at set-up time; a wrong
answer counts as a failed operation.
"""

from __future__ import annotations

import dataclasses
import itertools
import shutil
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import EmMarkConfig
from repro.data.wikitext import load_wikitext_sim
from repro.engine import WatermarkEngine
from repro.eval.harness import EvaluationHarness
from repro.experiments.common import default_sim_bits_per_layer
from repro.models.activations import collect_activation_stats
from repro.models.registry import TRAINING_PROFILES, get_model_config
from repro.models.training import train_language_model
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model
from repro.robustness import GauntletSubject, build_attack, run_gauntlet
from repro.service import (
    FleetConfig,
    KeyRegistry,
    ServiceConfig,
    VerificationClient,
    VerificationServer,
    launch_fleet,
    run_in_background,
)

OPT = "opt-6.7b-sim"
LLAMA = "llama2-7b-sim"
#: The substrate is fixed: the same corpus and training for every seed.
DATA_SEED = 1234
#: Key residency bound of the single-server workloads' registry.
MAX_RESIDENT_KEYS = 8
#: Overwrite strength (weights/layer) of the attacked verify-warm suspect.
OVERWRITE_STRENGTH = 200
#: Figure 2a/2b sweeps plus the requantization and pruning defaults.
GAUNTLET_STRENGTHS = {
    "overwrite": (0, 100, 200, 300, 400, 500),
    "rewatermark": (0, 100, 150, 200, 250, 300),
    "requantize": (8, 6, 4),
    "pruning": (0.0, 0.3, 0.6, 0.9),
}

DECISION_FIELDS = ("key_id", "owned", "matched_bits", "total_bits", "wer_percent",
                   "false_claim_probability")


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Phase:
    """What one timed phase measured."""

    latencies_ms: List[float]
    attempted: int
    failed: int
    wall_s: float
    cpu_s: float
    #: Time spent inside client calls (HTTP round trips incl. client-side
    #: encoding); the traced run subtracts encode and server time from it.
    client_call_s: float = 0.0
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


@dataclasses.dataclass
class Substrate:
    """A trained, AWQ INT4-quantized sim model with its owner config."""

    name: str
    quantized: object
    activations: object
    emmark: EmMarkConfig
    harness: Optional[EvaluationHarness]


def build_substrate(name: str, with_harness: bool = False) -> Substrate:
    """Train, calibrate and quantize one sim model from scratch (smoke profile)."""
    config = get_model_config(name)
    data = load_wikitext_sim(vocab_size=config.vocab_size, seed=DATA_SEED)
    model = TransformerLM(config, seed=0)
    train_language_model(model, data.train, TRAINING_PROFILES["smoke"])
    activations = collect_activation_stats(model, data.calibration)
    quantized = quantize_model(model, "awq", bits=4, activations=activations)
    emmark = EmMarkConfig.scaled_for_model(
        quantized, bits_per_layer=default_sim_bits_per_layer(4)
    )
    harness = EvaluationHarness(data, num_task_examples=16) if with_harness else None
    return Substrate(name, quantized, activations, emmark, harness)


def owner_seeds(seed: int, stream: str, count: int) -> List[Tuple[int, int]]:
    """``count`` distinct (secret seed d, signature seed) pairs for one stream."""
    salt = int.from_bytes(stream.encode(), "little") % (2**32)
    rng = np.random.default_rng([seed, salt])
    values = rng.choice(2**31 - 1, size=2 * count, replace=False) + 1
    return [(int(values[2 * i]), int(values[2 * i + 1])) for i in range(count)]


def insert_owner(engine: WatermarkEngine, substrate: Substrate, d: int, signature_seed: int):
    """Watermark a fresh clone of the substrate for one owner: (model, key)."""
    config = dataclasses.replace(substrate.emmark, seed=d, signature_seed=signature_seed)
    model, key, _ = engine.insert(
        substrate.quantized.clone(), substrate.activations, config=config
    )
    return model, key


def decision_tuple(decision) -> Tuple:
    """The verdict fields that must be bit-identical to the direct engine call."""
    if isinstance(decision, dict):
        return tuple(decision[field] for field in DECISION_FIELDS)
    return tuple(getattr(decision, field) for field in DECISION_FIELDS)


def reference_decisions(suspects: Dict[str, object], keys: Dict[str, object]):
    """``{suspect_id: [decision tuples in key order]}`` from a direct engine call."""
    with WatermarkEngine() as engine:
        report = engine.verify_fleet(suspects, keys)
    expected: Dict[str, List[Tuple]] = {sid: [] for sid in suspects}
    for pair in report.pairs:
        expected[pair.suspect_id].append(decision_tuple(pair))
    return expected


def request_order(seed: int, items: Sequence[str], length: int = 4096) -> List[str]:
    """A seeded request sequence cycling every item equally often."""
    rng = np.random.default_rng([seed, 7])
    reps = -(-length // len(items))
    order = [item for _ in range(reps) for item in rng.permutation(list(items))]
    return [str(item) for item in order[:length]]


def closed_loop(
    clients: int,
    seconds: float,
    connect: Callable[[], VerificationClient],
    operation: Callable[[VerificationClient, int], Tuple[bool, str]],
    counter: Iterator[int],
) -> Phase:
    """``clients`` threads, each issuing operations back to back for ``seconds``.

    ``operation(client, index)`` returns ``(correct, error_text)``; it is
    timed from the caller side, so the latency includes everything the user
    of the API waits for.  ``counter`` numbers the operations; it is shared
    by every phase of a run, so no two operations reuse an index.
    """
    stop = threading.Event()
    barrier = threading.Barrier(clients + 1)
    per_thread: List[Dict[str, object]] = [
        {"lat": [], "attempted": 0, "failed": 0, "errors": []} for _ in range(clients)
    ]

    def worker(slot: Dict[str, object]) -> None:
        with connect() as client:
            barrier.wait()
            while not stop.is_set():
                index = next(counter)
                begin = time.perf_counter()
                try:
                    correct, error = operation(client, index)
                except Exception as exc:  # a failed op, not a crashed bench
                    correct, error = False, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - begin
                slot["attempted"] += 1  # type: ignore[operator]
                if correct:
                    slot["lat"].append(elapsed * 1000.0)  # type: ignore[union-attr]
                else:
                    slot["failed"] += 1  # type: ignore[operator]
                    slot["errors"].append(error)  # type: ignore[union-attr]

    threads = [threading.Thread(target=worker, args=(slot,), daemon=True) for slot in per_thread]
    for thread in threads:
        thread.start()
    barrier.wait()
    start, cpu_start = time.perf_counter(), time.process_time()
    stop.wait(seconds)
    stop.set()
    for thread in threads:
        thread.join()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    latencies = [lat for slot in per_thread for lat in slot["lat"]]  # type: ignore[attr-defined]
    return Phase(
        latencies_ms=latencies,
        attempted=sum(slot["attempted"] for slot in per_thread),  # type: ignore[misc]
        failed=sum(slot["failed"] for slot in per_thread),  # type: ignore[misc]
        wall_s=wall,
        cpu_s=cpu,
        client_call_s=sum(latencies) / 1000.0,
        errors=[e for slot in per_thread for e in slot["errors"]][:5],  # type: ignore[attr-defined]
    )


class Workload:
    """Base: owns a scratch directory and the servers it starts."""

    name = ""
    #: Tail percentile reported as ``op_tail_ms`` (fixed per workload).
    tail_pct = 95.0
    #: Boundaries that must record calls in the traced run.
    required: Tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._closers: List[Callable[[], None]] = []
        self.op_index = itertools.count()

    def _on_teardown(self, closer: Callable[[], None]) -> None:
        self._closers.append(closer)

    def teardown(self) -> None:
        while self._closers:
            self._closers.pop()()

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Phase:
        raise NotImplementedError

    def server_ports(self) -> List[int]:
        """Ports whose ``/v1/stats`` the traced run diffs (none by default)."""
        return []

    def registry_dirs(self) -> List[Path]:
        return []

    def is_fleet(self) -> bool:
        return False

    def engines(self) -> List[WatermarkEngine]:
        """In-process engines whose plan caches the traced run diffs."""
        return []

    def _fresh_dir(self, label: str) -> Path:
        path = self.workdir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        self._on_teardown(lambda: shutil.rmtree(path, ignore_errors=True))
        return path

    def _start_server(self, registry_dir: Path) -> int:
        # Bounded key residency: revoked keys otherwise stay resident, and
        # owner-onboard's peak RSS would grow with its op count.
        server = VerificationServer(
            registry=KeyRegistry(registry_dir, max_resident_keys=MAX_RESIDENT_KEYS),
            config=ServiceConfig(port=0),
        )
        handle = run_in_background(server)
        self._on_teardown(server.engine.close)
        self._on_teardown(handle.close)
        return handle.port


def _check_decisions(response: Dict[str, object], expected: List[Tuple]) -> Tuple[bool, str]:
    # Decision order follows the server's key order; the verdicts themselves
    # must match field for field.
    got = sorted(decision_tuple(d) for d in response["decisions"])  # type: ignore[union-attr]
    if got != sorted(expected):
        return False, f"decisions differ from the direct engine call: {got} != {expected}"
    return True, ""


# ----------------------------------------------------------------------
# verify-warm: the warm read path
# ----------------------------------------------------------------------
class VerifyWarm(Workload):
    """2 closed-loop clients verifying 4 uploaded suspects against 4 keys."""

    name = "verify-warm"
    tail_pct = 95.0
    clients = 2
    required = (
        "engine.plan_key", "engine.reproduce_locations", "engine.verify_fleet",
        "engine.verify_pair", "registry.active_keys",
    )

    def setup(self, rep: int) -> None:
        self.teardown()
        substrate = build_substrate(OPT)
        with WatermarkEngine() as engine:
            owners = [
                insert_owner(engine, substrate, d, s)
                for d, s in owner_seeds(self.seed, "verify-owners", 4)
            ]
        attacked = build_attack("overwrite").apply(
            owners[0][0], OVERWRITE_STRENGTH, np.random.default_rng([self.seed, 1])
        ).model
        suspects = {
            "owner-0": owners[0][0],
            "owner-1": owners[1][0],
            "clean": substrate.quantized,
            "owner-0-overwrite": attacked,
        }
        registry_dir = self._fresh_dir(f"registry-{rep}")
        self.registry = registry_dir
        self.port = self._start_server(registry_dir)
        with VerificationClient(port=self.port) as client:
            keys = {}
            for index, (_model, key) in enumerate(owners):
                record = client.register_key(key, owner=f"owner-{index}")
                keys[record["key_id"]] = key
            for suspect_id, model in suspects.items():
                client.upload_suspect(model, suspect_id=suspect_id)
        self.expected = reference_decisions(suspects, keys)
        key_ids = list(keys)
        for index in (0, 1):
            verdicts = [d[1] for d in self.expected[f"owner-{index}"]]
            if verdicts != [k == key_ids[index] for k in key_ids]:
                raise RuntimeError(f"owner-{index} deployment is not owned by exactly its key")
        if any(d[1] for d in self.expected["clean"]):
            raise RuntimeError("the clean base model is claimed by some key")
        self.order = request_order(self.seed, list(suspects))

    def _op(self, client: VerificationClient, index: int) -> Tuple[bool, str]:
        suspect_id = self.order[index % len(self.order)]
        return _check_decisions(client.verify(suspect_id=suspect_id), self.expected[suspect_id])

    def warmup(self) -> None:
        phase = closed_loop(self.clients, 1.0, self._connect, self._op, self.op_index)
        if phase.failed:
            raise RuntimeError(f"warm-up failed: {phase.errors}")

    def _connect(self) -> VerificationClient:
        return VerificationClient(port=self.port)

    def run(self, seconds: float) -> Phase:
        return closed_loop(self.clients, seconds, self._connect, self._op, self.op_index)

    def server_ports(self) -> List[int]:
        return [self.port]

    def registry_dirs(self) -> List[Path]:
        return [self.registry]


# ----------------------------------------------------------------------
# owner-onboard: the write path on the same server
# ----------------------------------------------------------------------
class OwnerOnboard(VerifyWarm):
    """1 client: insert → register → upload → verify → revoke, per op."""

    name = "owner-onboard"
    tail_pct = 75.0
    clients = 1
    required = (
        "engine.insert", "engine.plan_key", "engine.plan_compute", "engine.verify_fleet",
        "engine.verify_pair", "codec.key_encode", "codec.model_encode", "codec.key_decode",
        "codec.model_decode", "keys.fingerprint", "registry.register",
    )

    def setup(self, rep: int) -> None:
        self.teardown()
        self.substrate = build_substrate(OPT)
        self.engine = WatermarkEngine()
        self._on_teardown(self.engine.close)
        self.registry = self._fresh_dir(f"registry-{rep}")
        self.port = self._start_server(self.registry)
        self.warm_seeds = owner_seeds(self.seed, "onboard-warmup", 2)
        self.seeds = owner_seeds(self.seed, "onboard", 4096)
        self.call_s = 0.0

    def _onboard(self, client: VerificationClient, label: str, d: int, s: int) -> Tuple[bool, str]:
        model, key = insert_owner(self.engine, self.substrate, d, s)
        start = time.perf_counter()
        record = client.register_key(key, owner=label)
        # One deployment slot, re-uploaded by every op: the server's suspect
        # store stays the same size, so peak RSS does not grow with op count.
        client.upload_suspect(model, suspect_id="onboard-deployment")
        response = client.verify(suspect_id="onboard-deployment", key_ids=[record["key_id"]])
        revoked = client.revoke_key(record["key_id"])
        self.call_s += time.perf_counter() - start
        decisions = response["decisions"]
        if len(decisions) != 1 or not decisions[0]["owned"] or decisions[0]["wer_percent"] != 100.0:
            return False, f"new owner {label} not owned at 100% WER: {decisions}"
        if revoked.get("key_id") != record["key_id"] or revoked.get("revoked") is not True:
            return False, f"revoke of {record['key_id']} not accepted: {revoked}"
        return True, ""

    def _op(self, client: VerificationClient, index: int) -> Tuple[bool, str]:
        d, s = self.seeds[index % len(self.seeds)]
        return self._onboard(client, f"onboard-{index}", d, s)

    def warmup(self) -> None:
        with self._connect() as client:
            for index, (d, s) in enumerate(self.warm_seeds):
                ok, error = self._onboard(client, f"warmup-{index}", d, s)
                if not ok:
                    raise RuntimeError(f"warm-up failed: {error}")

    def run(self, seconds: float) -> Phase:
        self.call_s = 0.0
        phase = closed_loop(self.clients, seconds, self._connect, self._op, self.op_index)
        phase.client_call_s = self.call_s
        return phase

    def engines(self) -> List[WatermarkEngine]:
        return [self.engine]


# ----------------------------------------------------------------------
# gauntlet-sweep: the batch CPU path
# ----------------------------------------------------------------------
class GauntletSweep(Workload):
    """``run_gauntlet`` over one OPT and one LLaMA-2 subject, 38 cells a sweep."""

    name = "gauntlet-sweep"
    tail_pct = 70.0
    required = (
        "gauntlet.cell", "attack.apply.overwrite", "attack.apply.rewatermark",
        "attack.apply.requantize", "attack.apply.pruning", "eval.evaluate",
        "engine.verify_pair", "engine.insert", "engine.plan_key",
    )

    def setup(self, rep: int) -> None:
        self.teardown()
        self.engine = WatermarkEngine()
        self._on_teardown(self.engine.close)
        seeds = owner_seeds(self.seed, "gauntlet-owners", 2)
        self.subjects = {}
        corpus = None
        for name, (d, s) in zip((OPT, LLAMA), seeds):
            substrate = build_substrate(name, with_harness=True)
            model, key = insert_owner(self.engine, substrate, d, s)
            self.subjects[name] = GauntletSubject(model=model, key=key, harness=substrate.harness)
            corpus = substrate.harness.calibration_corpus
        self.attacks = [
            build_attack(name, calibration_corpus=corpus) for name in GAUNTLET_STRENGTHS
        ]
        self.attack_seed = int(np.random.default_rng([self.seed, 3]).integers(2**31))
        self.cells = len(self.subjects) * sum(len(s) for s in GAUNTLET_STRENGTHS.values())
        self.digests: List[str] = []

    def warmup(self) -> None:
        run_gauntlet(
            {OPT: self.subjects[OPT]}, self.attacks,
            {name: (strengths[0],) for name, strengths in GAUNTLET_STRENGTHS.items()},
            engine=self.engine, seed=self.attack_seed,
        )

    def sweep(self) -> Tuple[List[float], int, List[str]]:
        report = run_gauntlet(
            self.subjects, self.attacks, GAUNTLET_STRENGTHS,
            engine=self.engine, seed=self.attack_seed,
        )
        failed, errors = 0, []
        if len(report.cells) != self.cells:
            failed += self.cells - len(report.cells)
            errors.append(f"{len(report.cells)} cells reported, {self.cells} expected")
        for cell in report.cells:
            if cell.strength == 0 and not (cell.owned and cell.wer_percent == 100.0):
                failed += 1
                errors.append(f"{cell.cell_id}: strength 0 not owned at 100% WER")
        self.digests.append(report.decision_digest())
        return [cell.attack_seconds * 1000.0 for cell in report.cells], failed, errors

    def run(self, seconds: float) -> Phase:
        """Whole sweeps, back to back: at least one, and another only while it
        is expected to end within ``seconds``."""
        latencies: List[float] = []
        attempted = failed = 0
        errors: List[str] = []
        start, cpu_start = time.perf_counter(), time.process_time()
        while True:
            lat, bad, errs = self.sweep()
            latencies += lat
            attempted += self.cells
            failed += bad
            errors += errs
            elapsed = time.perf_counter() - start
            sweeps = attempted // self.cells
            if elapsed * (sweeps + 1) / sweeps > seconds:
                break
        if len(set(self.digests)) != 1:
            failed += attempted
            errors.append(f"decision digest differs between sweeps: {sorted(set(self.digests))}")
        return Phase(
            latencies_ms=latencies, attempted=attempted, failed=failed,
            wall_s=time.perf_counter() - start, cpu_s=time.process_time() - cpu_start,
            errors=errors[:5],
        )

    def engines(self) -> List[WatermarkEngine]:
        return [self.engine]


# ----------------------------------------------------------------------
# fleet-verify: the sharded fleet behind the router
# ----------------------------------------------------------------------
class FleetVerify(VerifyWarm):
    """2 clients against a 2-shard router; OPT and LLaMA-2 on different shards."""

    name = "fleet-verify"
    tail_pct = 95.0
    clients = 2
    required = (
        "engine.plan_key", "engine.reproduce_locations", "engine.verify_fleet",
        "engine.verify_pair", "registry.active_keys",
    )

    def setup(self, rep: int) -> None:
        self.teardown()
        root = self._fresh_dir(f"fleet-{rep}")
        fleet = launch_fleet(FleetConfig(num_shards=2, registry_root=root))
        for shard in fleet.shards:
            self._on_teardown(shard.engine.close)
        self._on_teardown(fleet.close)
        self.port = fleet.port
        self.shard_port_list = list(fleet.shard_ports)
        self.registry = [root / label for label in fleet.labels]
        self.expected = {}
        shard_of_family = {}
        seeds = owner_seeds(self.seed, "fleet-owners", 4)
        with WatermarkEngine() as engine, VerificationClient(port=self.port) as client:
            for family, name in enumerate((OPT, LLAMA)):
                substrate = build_substrate(name)
                keys, shards, models = {}, set(), []
                for index in range(2):
                    model, key = insert_owner(engine, substrate, *seeds[2 * family + index])
                    models.append(model)
                    record = client.register_key(key, owner=f"{name}-owner-{index}")
                    keys[record["key_id"]] = key
                    shards.add(record["shard"])
                suspects = {f"{name}-owned": models[0], f"{name}-clean": substrate.quantized}
                for suspect_id, model in suspects.items():
                    shards.add(client.upload_suspect(model, suspect_id=suspect_id)["shard"])
                if len(shards) != 1:
                    raise RuntimeError(f"{name} keys and suspects span shards {sorted(shards)}")
                shard_of_family[name] = shards.pop()
                expected = reference_decisions(suspects, keys)
                if not expected[f"{name}-owned"][0][1] or any(
                    d[1] for d in expected[f"{name}-clean"]
                ):
                    raise RuntimeError(f"{name}: owned/clean reference verdicts are wrong")
                self.expected.update(expected)
        if len(set(shard_of_family.values())) != 2:
            raise RuntimeError(f"both families landed on one shard: {shard_of_family}")
        self.order = request_order(self.seed, list(self.expected))

    def server_ports(self) -> List[int]:
        return self.shard_port_list

    def is_fleet(self) -> bool:
        return True

    def registry_dirs(self) -> List[Path]:
        return self.registry


WORKLOADS = {cls.name: cls for cls in (VerifyWarm, OwnerOnboard, GauntletSweep, FleetVerify)}
