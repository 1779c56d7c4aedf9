#!/usr/bin/env python3
"""Offline pipeline demo on the bundled mini dataset.

Runs every stage with the deterministic mock provider, then compares the
three prompt formats on output cost and the four selection strategies, plus
balance on direct triple-set distances, on their annotation audit.
Everything is cached under --workdir, so reruns make zero provider calls.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from tripleforge.config import PipelineConfig
from tripleforge.pipeline import STAGES

ROOT = Path(__file__).resolve().parent.parent


def run_combo(workdir: Path, name: str, **overrides) -> dict:
    cfg = PipelineConfig(
        pool_path=ROOT / "data/conll04_mini/train.jsonl",
        test_path=ROOT / "data/conll04_mini/test.jsonl",
        run_dir=workdir / name,
        cache_dir=workdir / "cache",
        epochs=3,
        learning_rate=1e-3,
        **overrides,
    )
    for stage in STAGES.values():
        stage(cfg)
    eval_report = json.loads((cfg.run_dir / "eval_report.json").read_text())
    cost_report = json.loads((cfg.run_dir / "cost_report.json").read_text())
    selection = json.loads((cfg.run_dir / "selection.json").read_text())
    return {"eval": eval_report, "cost": cost_report, "selection": selection}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=ROOT / "runs" / "mock_demo")
    parser.add_argument("--budget", type=int, default=5)
    args = parser.parse_args()

    print("== output cost by prompt format (coverage selection) ==")
    print(f"{'format':<9} {'F1':>5} {'# Total':>8} {'# Avg.':>7} {'# Min.':>7} {'# Max.':>7}")
    for fmt in ("tableie", "textie", "codeie"):
        result = run_combo(args.workdir, f"fmt-{fmt}", format=fmt,
                           strategy="coverage", budget=args.budget)
        cost = result["cost"]
        print(f"{fmt:<9} {result['eval']['f1']:>5.3f} {cost['total_chars']:>8,} "
              f"{cost['avg_chars']:>7.2f} {cost['min_chars']:>7} {cost['max_chars']:>7}")

    print()
    print("== annotation audit by strategy (tableie) ==")
    print(f"{'strategy':<14} {'F1':>5} {'checked':>8} {'annotated':>10}  chosen")
    # the last row takes distances straight from the pre-extracted triples
    # of both splits, with no retriever
    combos = {f"strat-{strategy}": {"strategy": strategy}
              for strategy in ("topk", "balance", "coverage", "random")}
    combos["direct-balance"] = {"strategy": "balance", "distance_source": "direct"}
    for name, overrides in combos.items():
        result = run_combo(args.workdir, name, budget=args.budget, **overrides)
        sel = result["selection"]
        print(f"{name.removeprefix('strat-'):<14} {result['eval']['f1']:>5.3f} "
              f"{sel['oracle']['checked']:>8} {sel['oracle']['annotated']:>10}  "
              f"{', '.join(sel['chosen'])}")

    print()
    print(f"artifacts under {args.workdir}")


if __name__ == "__main__":
    main()
