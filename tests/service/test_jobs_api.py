"""End-to-end tests of the async jobs API (``/v1/jobs``).

Covers the full lifecycle — submit (202 + Location) → stream events
mid-run → report — plus cooperative cancellation, the checkpoint-backed
resume guarantee (a job interrupted by a server kill resumes on a fresh
server instance and yields a **bit-identical** decision digest), and the
admission limit on concurrent jobs.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.engine import EngineConfig, WatermarkEngine
from repro.service import (
    RateLimitedError,
    ServiceConfig,
    VerificationClient,
    VerificationServer,
    run_in_background,
)
from repro.service.client import ServiceError

ATTACKS = [
    {"name": "overwrite", "strengths": [0, 20]},
    {"name": "pruning", "strengths": [0.5]},
]

# The deliberately slow "slowmo" attack is registered by conftest.py; a
# four-cell serial grid of it stays mid-run long enough to observe.
SLOW_ATTACKS = [{"name": "slowmo", "strengths": [0, 1, 2, 3]}]


def _start_server(checkpoint_dir, **overrides):
    config = ServiceConfig(
        port=0, max_wait_ms=2.0, checkpoint_dir=checkpoint_dir, **overrides
    )
    server = VerificationServer(engine=WatermarkEngine(EngineConfig()), config=config)
    return run_in_background(server)


@pytest.fixture(scope="module")
def job_server(tmp_path_factory, watermarked_and_key, quantized_awq4):
    """A server with a checkpoint directory, key registered, suspects up."""
    watermarked, key = watermarked_and_key
    checkpoint_dir = tmp_path_factory.mktemp("job-checkpoints")
    with _start_server(checkpoint_dir) as handle:
        with VerificationClient(port=handle.port) as client:
            client.register_key(key, owner="acme")
            client.upload_suspect(watermarked, suspect_id="hit")
            client.upload_suspect(quantized_awq4, suspect_id="miss")
        yield handle, checkpoint_dir


@pytest.fixture()
def job_client(job_server):
    handle, _ = job_server
    with VerificationClient(port=handle.port) as active:
        yield active


class TestJobLifecycle:
    def test_submit_answers_202_with_location(self, job_server):
        handle, _ = job_server
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/jobs/robustness",
                body=json.dumps({"suspect_id": "hit", "attacks": ATTACKS, "seed": 3}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 202
            assert response.reason == "Accepted"
            payload = json.loads(response.read())
            job_id = payload["job"]["job_id"]
            assert response.getheader("Location") == f"/v1/jobs/{job_id}"
        finally:
            conn.close()

    def test_digest_matches_synchronous_endpoint(self, job_client):
        sync = job_client.robustness("hit", attacks=ATTACKS, seed=3)
        handle = job_client.submit_robustness_job("hit", attacks=ATTACKS, seed=3)
        status = handle.wait(timeout=120)
        assert status["state"] == "succeeded"
        assert status["completed_cells"] == status["total_cells"] == 3
        out = handle.report()
        assert out["suspect_id"] == "hit"
        assert out["report"]["decision_digest"] == sync["report"]["decision_digest"]

    def test_event_stream_yields_cells_then_end(self, job_client):
        handle = job_client.submit_robustness_job("hit", attacks=ATTACKS, seed=3)
        events = list(handle.events())
        kinds = [event["kind"] for event in events]
        assert kinds == ["cell"] * 3 + ["end"]
        assert [event["seq"] for event in events] == [0, 1, 2, 3]
        assert events[-1]["state"] == "succeeded"
        assert events[-1]["completed_cells"] == 3
        cell_ids = {event["cell_id"] for event in events[:-1]}
        assert len(cell_ids) == 3

    def test_events_since_skips_prefix(self, job_client):
        handle = job_client.submit_robustness_job("hit", attacks=ATTACKS, seed=3)
        handle.wait(timeout=120)
        tail = list(handle.events(since=2))
        assert [event["seq"] for event in tail] == [2, 3]

    def test_stream_is_readable_mid_run(self, job_client):
        handle = job_client.submit_robustness_job(
            "hit", attacks=SLOW_ATTACKS, seed=3, executor="serial"
        )
        stream = handle.events()
        first = next(stream)
        assert first["kind"] == "cell"
        # The stream delivered a verdict while the sweep is still going.
        status = handle.status()
        assert status["completed_cells"] < status["total_cells"]
        rest = list(stream)
        assert rest[-1]["kind"] == "end"
        assert rest[-1]["state"] == "succeeded"

    def test_status_listing_and_meta(self, job_client):
        handle = job_client.submit_robustness_job("hit", attacks=ATTACKS, seed=3)
        status = handle.wait(timeout=120)
        assert status["kind"] == "robustness"
        assert status["suspect_id"] == "hit"
        assert status["key_id"].startswith("wmk-")
        assert status["checkpoint"].endswith(".jsonl")
        assert handle.job_id in {job["job_id"] for job in job_client.jobs()}

    def test_unknown_job_is_404(self, job_client):
        with pytest.raises(ServiceError, match="unknown job") as excinfo:
            job_client.job_status("job-does-not-exist")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_report_before_finish_is_409(self, job_client):
        # seed=13 so no earlier test's checkpoint satisfies this grid and
        # the job really is mid-run when the report is requested.
        handle = job_client.submit_robustness_job(
            "hit", attacks=SLOW_ATTACKS, seed=13, executor="serial"
        )
        with pytest.raises(ServiceError, match="report not ready") as excinfo:
            handle.report()
        assert excinfo.value.status == 409
        assert excinfo.value.code == "job_not_finished"
        assert excinfo.value.retry_after is not None
        handle.wait(timeout=120)


class TestCancellation:
    def test_cancel_mid_run(self, job_client):
        handle = job_client.submit_robustness_job(
            "hit", attacks=SLOW_ATTACKS, seed=21, executor="serial"
        )
        stream = handle.events()
        next(stream)  # at least one cell done; the sweep is live
        status = handle.cancel()
        assert status["state"] in ("running", "cancelled")
        final = handle.wait(timeout=120)
        assert final["state"] == "cancelled"
        assert final["completed_cells"] < final["total_cells"]
        # The stream still terminates cleanly with the end record.
        *_, last = stream
        assert last["kind"] == "end"
        assert last["state"] == "cancelled"

    def test_report_of_cancelled_job_is_409(self, job_client):
        handle = job_client.submit_robustness_job(
            "hit", attacks=SLOW_ATTACKS, seed=22, executor="serial"
        )
        handle.cancel()
        handle.wait(timeout=120)
        with pytest.raises(ServiceError) as excinfo:
            handle.report()
        assert excinfo.value.status == 409
        assert excinfo.value.code == "job_cancelled"

    def test_cancel_of_finished_job_is_409(self, job_client):
        handle = job_client.submit_robustness_job("hit", attacks=ATTACKS, seed=3)
        handle.wait(timeout=120)
        with pytest.raises(ServiceError) as excinfo:
            handle.cancel()
        assert excinfo.value.status == 409
        assert excinfo.value.code == "job_finished"


class TestCheckpointResume:
    def test_resubmit_replays_from_checkpoint(self, job_server, job_client):
        _, checkpoint_dir = job_server
        first = job_client.submit_robustness_job("hit", attacks=ATTACKS, seed=7)
        first.wait(timeout=120)
        digest = first.report()["report"]["decision_digest"]
        assert list(checkpoint_dir.glob("*.jsonl"))

        again = job_client.submit_robustness_job("hit", attacks=ATTACKS, seed=7)
        events = list(again.events())
        assert all(event["replayed"] for event in events if event["kind"] == "cell")
        assert again.report()["report"]["decision_digest"] == digest
        assert again.status()["replayed_cells"] == 3

    def test_kill_server_mid_job_then_resume(
        self, tmp_path, watermarked_and_key
    ):
        """The tentpole guarantee: a job killed with the server resumes on a
        fresh instance from the shared checkpoint directory, replays the
        completed cells and lands on a bit-identical decision digest."""
        watermarked, key = watermarked_and_key

        with _start_server(tmp_path) as handle:
            with VerificationClient(port=handle.port) as client:
                client.register_key(key, owner="acme")
                client.upload_suspect(watermarked, suspect_id="prod")
                # Uninterrupted reference digest via the synchronous endpoint.
                reference = client.robustness(
                    "prod", attacks=SLOW_ATTACKS, seed=5, executor="serial"
                )["report"]["decision_digest"]
                victim = client.submit_robustness_job(
                    "prod", attacks=SLOW_ATTACKS, seed=5, executor="serial"
                )
                stream = victim.events()
                next(stream)  # ≥1 cell checkpointed
                stream.close()
            # Context exit kills the server with the job still in flight.

        assert list(tmp_path.glob("*.jsonl")), "checkpoint must survive the kill"

        with _start_server(tmp_path) as handle:
            with VerificationClient(port=handle.port) as client:
                client.register_key(key, owner="acme")
                client.upload_suspect(watermarked, suspect_id="prod")
                resumed = client.submit_robustness_job(
                    "prod", attacks=SLOW_ATTACKS, seed=5, executor="serial"
                )
                events = list(resumed.events())
                replayed = [
                    event for event in events
                    if event["kind"] == "cell" and event["replayed"]
                ]
                assert replayed, "completed cells must replay, not recompute"
                assert events[-1]["state"] == "succeeded"
                assert resumed.report()["report"]["decision_digest"] == reference


class TestJobAdmission:
    def test_active_job_limit_is_429(self, tmp_path, watermarked_and_key):
        watermarked, key = watermarked_and_key
        with _start_server(tmp_path, job_max_active=1) as handle:
            with VerificationClient(port=handle.port) as client:
                client.register_key(key, owner="acme")
                client.upload_suspect(watermarked, suspect_id="prod")
                running = client.submit_robustness_job(
                    "prod", attacks=SLOW_ATTACKS, seed=3, executor="serial"
                )
                with pytest.raises(RateLimitedError) as excinfo:
                    client.submit_robustness_job(
                        "prod", attacks=SLOW_ATTACKS, seed=4, executor="serial"
                    )
                assert excinfo.value.code == "job_limit"
                assert excinfo.value.retry_after is not None
                running.cancel()
                running.wait(timeout=120)

    def test_job_limit_rejection_has_its_own_counter(self, tmp_path, watermarked_and_key):
        watermarked, key = watermarked_and_key
        with _start_server(tmp_path, job_max_active=1) as handle:
            with VerificationClient(port=handle.port) as client:
                client.register_key(key, owner="acme")
                client.upload_suspect(watermarked, suspect_id="prod")
                running = client.submit_robustness_job(
                    "prod", attacks=SLOW_ATTACKS, seed=3, executor="serial"
                )
                with pytest.raises(RateLimitedError):
                    client.submit_robustness_job(
                        "prod", attacks=SLOW_ATTACKS, seed=4, executor="serial"
                    )
                server_stats = client.stats()["server"]
                assert server_stats["rejected_job_limit"] == 1
                assert server_stats["rejected_rate_limit"] == 0
                assert "repro_server_rejected_job_limit_total 1" in client.metrics()
                running.cancel()
                running.wait(timeout=120)

    def test_jobs_surface_in_stats(self, job_client):
        handle = job_client.submit_robustness_job("hit", attacks=ATTACKS, seed=3)
        handle.wait(timeout=120)
        jobs_stats = job_client.stats()["jobs"]
        assert jobs_stats["finished"]["succeeded"] >= 1
        assert jobs_stats["states"]["succeeded"] >= 1
        assert jobs_stats["retained"] >= 1
        assert jobs_stats["draining"] is False
