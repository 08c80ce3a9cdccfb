"""CLI smoke tests: ``--help`` for every sub-command plus an offline verify."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.service.codec import save_model
from repro.service.registry import KeyRegistry

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestHelp:
    @pytest.mark.parametrize("args", [("--help",), ("insert", "--help"),
                                      ("serve", "--help"),
                                      ("verify", "--help"), ("loadgen", "--help"),
                                      ("gauntlet", "--help"), ("audit", "--help")])
    def test_help_exits_zero(self, args):
        result = _run_cli(*args)
        assert result.returncode == 0, result.stderr
        assert "usage:" in result.stdout

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert "serve" in result.stdout and "loadgen" in result.stdout

    def test_missing_command_is_an_error(self):
        result = _run_cli()
        assert result.returncode != 0

    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["serve"]).command == "serve"
        assert parser.parse_args(
            ["verify", "--registry", "r", "--suspect", "s"]
        ).command == "verify"
        assert parser.parse_args(["loadgen", "--duration", "1"]).command == "loadgen"
        assert parser.parse_args(["gauntlet", "--attack", "overwrite"]).command == "gauntlet"
        args = parser.parse_args(["insert", "--owners", "3"])
        assert args.command == "insert" and args.owners == 3
        assert parser.parse_args(["audit", "--registry", "r"]).command == "audit"

    def test_gauntlet_executor_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["gauntlet", "--executor", "process", "--start-method", "spawn"]
        )
        assert args.executor == "process" and args.start_method == "spawn"
        assert parser.parse_args(["gauntlet"]).executor is None
        with pytest.raises(SystemExit):
            parser.parse_args(["gauntlet", "--executor", "quantum"])
        with pytest.raises(SystemExit):
            parser.parse_args(["gauntlet", "--executor", "thread"])
        with pytest.raises(SystemExit):
            parser.parse_args(["gauntlet", "--start-method", "psychic"])


class TestInsertCommand:
    def test_multi_owner_insert_registers_and_saves_keys(self, tmp_path, capsys):
        registry_dir = tmp_path / "registry"
        keys_dir = tmp_path / "keys"
        code = main([
            "insert", "--model", "opt-2.7b-sim", "--bits", "8",
            "--profile", "smoke", "--owners", "2",
            "--registry", str(registry_dir), "--output", str(keys_dir),
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["owners"] == 2
        assert len(payload["decisions"]) == 2
        for decision in payload["decisions"]:
            assert decision["owned"] is True
            assert decision["wer_percent"] == 100.0
            assert decision["co_residents"]
        # Keys landed in the registry, indexed under one model fingerprint.
        registry = KeyRegistry(registry_dir)
        assert len(registry) == 2
        assert registry.stats()["multi_owner_models"] == 1
        # And on disk, one directory per owner.
        assert sorted(p.name for p in keys_dir.iterdir()) == ["owner-0", "owner-1"]

    def test_invalid_owner_count_errors(self, capsys):
        assert main(["insert", "--owners", "0"]) == 2
        assert "--owners" in capsys.readouterr().err


class TestGauntletUsageErrors:
    """Grid mistakes must fail fast (exit 2) before the model is prepared."""

    def test_unknown_attack(self, capsys):
        assert main(["gauntlet", "--attack", "weight-exorcism"]) == 2
        assert "unknown attacks" in capsys.readouterr().err

    def test_duplicate_attack_flags(self, capsys):
        assert main(["gauntlet", "--attack", "overwrite", "--attack", "overwrite"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_orphaned_strengths(self, capsys):
        assert main(["gauntlet", "--attack", "overwrite",
                     "--strengths", "pruning=0.3"]) == 2
        assert "not in the grid" in capsys.readouterr().err

    def test_malformed_strengths(self, capsys):
        assert main(["gauntlet", "--strengths", "overwrite"]) == 2
        assert "NAME=V1,V2" in capsys.readouterr().err


class TestOfflineVerify:
    def test_verify_against_registry(
        self, watermarked_and_key, quantized_awq4, tmp_path, capsys
    ):
        """`repro verify` finds ownership of the watermarked deployment."""
        watermarked, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        registry.register(key, owner="acme")
        save_model(watermarked, tmp_path / "suspect-hit")
        save_model(quantized_awq4, tmp_path / "suspect-miss")

        code = main(["verify", "--registry", str(tmp_path / "reg"),
                     "--suspect", str(tmp_path / "suspect-hit"), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["decisions"][0]["owned"] is True

        code = main(["verify", "--registry", str(tmp_path / "reg"),
                     "--suspect", str(tmp_path / "suspect-miss"), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1  # exit 1: no ownership established
        assert out["decisions"][0]["owned"] is False

    def test_offline_audit_flags_a_collision(
        self, watermarked_and_key, tmp_path, capsys
    ):
        """`repro audit` re-verifies slot disjointness straight off the disk."""
        from dataclasses import replace

        _, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        registry.register(key, owner="acme")
        assert main(["audit", "--registry", str(tmp_path / "reg"), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True and out["models"] == 1

        registry.register(replace(key, signature=-key.signature), owner="mallory")
        assert main(["audit", "--registry", str(tmp_path / "reg"), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False and out["collisions"] == 1

    def test_verify_empty_registry_errors(self, quantized_awq4, tmp_path, capsys):
        save_model(quantized_awq4, tmp_path / "suspect")
        code = main(["verify", "--registry", str(tmp_path / "empty"),
                     "--suspect", str(tmp_path / "suspect")])
        capsys.readouterr()
        assert code == 2
