"""Tests for the server-side robustness gauntlet (``POST /robustness``)."""

import pytest

from repro.engine import WatermarkEngine
from repro.robustness import GauntletSubject, build_attack, run_gauntlet
from repro.service.client import ServiceError

ATTACKS = [
    {"name": "overwrite", "strengths": [0, 20]},
    {"name": "pruning", "strengths": [0.5]},
]


class TestRobustnessEndpoint:
    def test_gauntlet_on_stored_suspect(self, client):
        out = client.robustness("hit", attacks=ATTACKS, seed=3)
        assert out["suspect_id"] == "hit"
        assert out["key_id"].startswith("wmk-")
        report = out["report"]
        assert report["num_cells"] == 3
        cells = {(c["attack"], c["strength"]): c for c in report["cells"]}
        assert cells[("overwrite", 0.0)]["wer_percent"] == 100.0
        assert cells[("overwrite", 0.0)]["owned"] is True
        # Server-side runs are quality-free: no harness lives there.
        assert all(c["perplexity"] is None for c in report["cells"])
        assert set(report["min_wer_by_attack"]) == {"overwrite", "pruning"}

    def test_matches_direct_gauntlet(self, client, watermarked_and_key):
        """The endpoint's evidence is bit-identical to the library path."""
        watermarked, key = watermarked_and_key
        out = client.robustness("hit", attacks=ATTACKS, seed=3)
        key_id = out["key_id"]
        direct = run_gauntlet(
            {key_id: GauntletSubject(model=watermarked, key=key)},
            [build_attack("overwrite"), build_attack("pruning")],
            strengths={"overwrite": (0, 20), "pruning": (0.5,)},
            engine=WatermarkEngine(),
            evaluate_quality=False,
            seed=3,
        )
        assert out["report"]["decision_digest"] == direct.decision_digest()

    def test_process_executor_matches_streaming_digest(self, client):
        streaming = client.robustness("hit", attacks=ATTACKS, seed=3)
        process = client.robustness("hit", attacks=ATTACKS, seed=3, executor="process")
        assert process["report"]["executor"] == "process"
        assert (
            process["report"]["decision_digest"]
            == streaming["report"]["decision_digest"]
        )

    def test_serial_executor_pins_one_worker(self, client):
        out = client.robustness("hit", attacks=ATTACKS, seed=3, executor="serial")
        assert out["report"]["executor"] == "serial"
        assert out["report"]["workers"] == 1

    def test_unknown_executor_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown executor"):
            client.robustness("hit", attacks=ATTACKS, executor="quantum")

    def test_thread_executor_rejected_on_both_surfaces(self, client):
        # The in-process modes have one serial path; "thread" is not an executor.
        with pytest.raises(ServiceError, match="unknown executor") as sync_exc:
            client.robustness("hit", attacks=ATTACKS, executor="thread")
        with pytest.raises(ServiceError, match="unknown executor") as job_exc:
            client.submit_robustness_job("hit", attacks=ATTACKS, executor="thread")
        assert sync_exc.value.status == job_exc.value.status == 400

    def test_default_attacks_are_corpus_free(self, client):
        out = client.robustness("hit", attacks=[
            {"name": "overwrite", "strengths": [10]},
        ])
        assert out["report"]["num_cells"] == 1

    def test_corpus_attack_rejected(self, client):
        with pytest.raises(ServiceError, match="corpus"):
            client.robustness("hit", attacks=["rewatermark"])

    def test_unknown_attack_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown attack"):
            client.robustness("hit", attacks=["weight-exorcism"])

    def test_beyond_the_old_64_cell_cap_is_accepted(self, client):
        # The fixed 64-cell cap is gone: sweeps run in constant memory, so a
        # 100-cell grid admits under the CPU-time budget and completes.  A
        # small sweep first warms the cost estimator (the cold-start clamp
        # keeps unvalidated seed estimates from admitting big grids).
        client.robustness("hit", attacks=[{"name": "none", "strengths": [0]}])
        out = client.robustness(
            "hit",
            attacks=[{"name": "overwrite", "strengths": list(range(100))}],
            seed=11,
        )
        assert out["report"]["num_cells"] == 100

    def test_report_size_sanity_bound_rejected(self, client):
        with pytest.raises(ServiceError, match="report-size"):
            client.robustness(
                "hit",
                attacks=[{"name": "overwrite", "strengths": list(range(5000))}],
            )

    def test_unknown_suspect_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown suspect"):
            client.robustness("nobody", attacks=ATTACKS)

    def test_duplicate_attack_rejected_as_400(self, client):
        with pytest.raises(ServiceError, match="duplicate attack") as excinfo:
            client.robustness(
                "hit",
                attacks=["overwrite", {"name": "overwrite", "strengths": [10]}],
            )
        assert excinfo.value.status == 400

    def test_duplicate_strengths_rejected_as_400(self, client):
        with pytest.raises(ServiceError, match="invalid gauntlet grid") as excinfo:
            client.robustness(
                "hit", attacks=[{"name": "overwrite", "strengths": [10, 10]}]
            )
        assert excinfo.value.status == 400

    def test_unknown_key_id_rejected(self, client):
        with pytest.raises(ServiceError, match="key"):
            client.robustness("hit", key_id="wmk-does-not-exist", attacks=ATTACKS)

    def test_cells_enter_audit_log_and_counters(self, client):
        before = client.stats()
        out = client.robustness("hit", attacks=[{"name": "overwrite", "strengths": [0, 20]}])
        after = client.stats()
        decided = (
            after["server"]["decisions_owned"] + after["server"]["decisions_not_owned"]
            - before["server"]["decisions_owned"] - before["server"]["decisions_not_owned"]
        )
        assert decided == 2
        assert after["audit"]["entries"] == before["audit"]["entries"] + 2
        assert out["request_id"].startswith("req-")

    def test_non_watermarked_suspect_never_owned(self, client):
        out = client.robustness("miss", attacks=[{"name": "none", "strengths": [0]}])
        assert all(not c["owned"] for c in out["report"]["cells"])

    def test_gauntlet_counter_increments(self, client):
        before = client.stats()["server"]["gauntlets"]
        client.robustness("hit", attacks=[{"name": "none", "strengths": [0]}])
        assert client.stats()["server"]["gauntlets"] == before + 1

    def test_observed_cost_feeds_the_estimator(self, client):
        client.robustness("hit", attacks=[{"name": "overwrite", "strengths": [0, 20]}])
        gauntlet_stats = client.stats()["gauntlet"]
        assert gauntlet_stats["observed_cells"] >= 2
        assert gauntlet_stats["mean_cell_seconds"] > 0.0
        assert gauntlet_stats["cpu_budget_s"] is not None


class TestCpuBudgetGate:
    """The per-request CPU-time budget that replaced the 64-cell cap."""

    def test_projected_cost_over_budget_rejected_as_429(self, watermarked_and_key):
        from repro.engine import EngineConfig, WatermarkEngine
        from repro.service import (
            ServiceConfig,
            VerificationClient,
            VerificationServer,
            run_in_background,
        )

        watermarked, key = watermarked_and_key
        server = VerificationServer(
            engine=WatermarkEngine(EngineConfig()),
            # 1 s/cell seed estimate and a 5 s budget: a 6-cell grid projects
            # over budget deterministically, before any sweep has run.
            config=ServiceConfig(
                port=0,
                gauntlet_cpu_budget_s=5.0,
                gauntlet_initial_cell_cost_s=1.0,
            ),
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as client:
                client.register_key(key, owner="acme")
                client.upload_suspect(watermarked, suspect_id="hit")
                with pytest.raises(ServiceError, match="CPU cost") as excinfo:
                    client.robustness(
                        "hit", attacks=[{"name": "overwrite", "strengths": list(range(6))}]
                    )
                assert excinfo.value.status == 429
                # A grid inside the budget is admitted.
                out = client.robustness(
                    "hit", attacks=[{"name": "overwrite", "strengths": [0, 20]}]
                )
                assert out["report"]["num_cells"] == 2
                assert client.stats()["server"]["rejected_cpu_budget"] == 1

    def test_cold_server_clamps_to_64_cells_until_a_sweep_is_observed(
        self, watermarked_and_key
    ):
        from repro.service import (
            ServiceConfig,
            VerificationClient,
            VerificationServer,
            run_in_background,
        )

        watermarked, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as client:
                client.register_key(key, owner="acme")
                client.upload_suspect(watermarked, suspect_id="hit")
                # Cold: the seed estimate is unvalidated, big grids clamp.
                with pytest.raises(ServiceError, match="cold-start") as excinfo:
                    client.robustness(
                        "hit",
                        attacks=[{"name": "overwrite", "strengths": list(range(100))}],
                    )
                assert excinfo.value.status == 429
                # One observed sweep lifts the clamp; the budget governs.
                client.robustness("hit", attacks=[{"name": "none", "strengths": [0]}])
                out = client.robustness(
                    "hit",
                    attacks=[{"name": "overwrite", "strengths": list(range(100))}],
                )
                assert out["report"]["num_cells"] == 100

    def test_budget_disabled_with_none(self, watermarked_and_key):
        from repro.service.server import ServiceConfig, VerificationServer, _CellCostEstimator

        config = ServiceConfig(gauntlet_cpu_budget_s=None, gauntlet_initial_cell_cost_s=10.0)
        server = VerificationServer(config=config)
        assert server.config.gauntlet_cpu_budget_s is None
        # Estimator sanity: EWMA moves toward observations.
        estimator = _CellCostEstimator(1.0, smoothing=0.5)
        estimator.observe(10, 1.0)  # 0.1 s/cell observed
        assert estimator.estimate(10) < 10.0
        assert estimator.stats()["observed_cells"] == 10

    def test_bad_budget_config_rejected(self):
        from repro.service import ServiceConfig

        with pytest.raises(ValueError, match="gauntlet_cpu_budget_s"):
            ServiceConfig(gauntlet_cpu_budget_s=0.0)
        with pytest.raises(ValueError, match="gauntlet_initial_cell_cost_s"):
            ServiceConfig(gauntlet_initial_cell_cost_s=-1.0)
