#!/usr/bin/env python3
"""Scenario: auditing watermark resilience before deployment.

A security team wants to know how much abuse a watermarked INT4 model can take
before the ownership signal degrades — and how much the abuse costs the
attacker in model quality.  The script runs the full robustness gauntlet:
every attack in the registry — parameter overwriting, re-watermarking,
magnitude pruning, LoRA fine-tuning, RTN and GPTQ re-quantization, scale
tampering, outlier-column rewrites, structured head/row pruning, the
adaptive (algorithm-aware) attacker and model souping — is swept on the
streaming pipeline: each attacked model is verified against the shared
key-plan session and released before the next cell starts, so the grid
size is bounded by CPU, not memory.

Run with:  python examples/attack_resilience_study.py [--profile smoke|default]
"""

from __future__ import annotations

import argparse

from repro import EmMark, EmMarkConfig, quantize_model
from repro.eval import EvaluationHarness
from repro.models import collect_activation_stats
from repro.models.registry import get_pretrained_model_and_data
from repro.robustness import GauntletSubject, build_attack, run_gauntlet
from repro.utils.logging import configure


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="smoke", choices=["smoke", "default"])
    parser.add_argument("--model", default="opt-2.7b-sim")
    args = parser.parse_args()
    configure()

    print(f"preparing watermarked {args.model} (AWQ INT4, {args.profile} profile)...")
    model, dataset = get_pretrained_model_and_data(args.model, profile=args.profile)
    activations = collect_activation_stats(model, dataset.calibration)
    quantized = quantize_model(model, "awq", bits=4, activations=activations)
    emmark = EmMark(EmMarkConfig.scaled_for_model(quantized))
    watermarked, key, _ = emmark.insert_with_key(quantized, activations)
    harness = EvaluationHarness(dataset, num_task_examples=16)

    attacks = [
        build_attack("none"),
        build_attack("overwrite"),
        build_attack("rewatermark", calibration_corpus=dataset.calibration),
        build_attack("pruning"),
        build_attack("lora-finetune", calibration_corpus=dataset.calibration),
        build_attack("requantize"),
        build_attack("gptq-requantize", calibration_corpus=dataset.calibration),
        build_attack("scale-tamper"),
        build_attack("outlier-rewrite"),
        build_attack("structured-prune"),
        build_attack("adaptive-overwrite", calibration_corpus=dataset.calibration),
        build_attack("adaptive-oracle", calibration_corpus=dataset.calibration),
        # True two-clone soup: a second owner watermarks the same virgin base.
        build_attack("soup", base_model=quantized, base_activations=activations),
    ]
    strengths = {
        "overwrite": (100, 300, 500),
        "rewatermark": (50, 150, 300),
        "pruning": (0.3, 0.6, 0.9),
        "lora-finetune": (20,),
        "requantize": (4,),
        "gptq-requantize": (4,),
        "scale-tamper": (0.1, 0.3),
        "outlier-rewrite": (1.0,),
        "structured-prune": (0.25, 0.5),
        "adaptive-overwrite": (100, 300),
        "adaptive-oracle": (0.5, 1.0),
        "soup": (0.5, 1.0),
    }
    print(f"running the gauntlet: {sum(len(s) for s in strengths.values()) + 1} cells...")
    report = run_gauntlet(
        {args.model: GauntletSubject(model=watermarked, key=key, harness=harness)},
        attacks,
        strengths=strengths,
        seed=7,
    )

    print()
    print(report.render())
    print("\nQuality-vs-WER frontier (what removal costs the attacker):")
    for entry in report.frontier():
        print(f"  WER {entry['wer_percent']:6.2f}%  PPL {entry['perplexity']:8.2f}  "
              f"acc {entry['zero_shot_accuracy']:5.2f}%  ← {entry['attack']}"
              f"@{entry['strength']:g}")
    print("\nReading: every attack strong enough to dent the WER has already cost the "
          "attacker far more model quality than the watermark cost the owner (none).")


if __name__ == "__main__":
    main()
