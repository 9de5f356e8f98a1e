"""Shared benchmark fixtures: one output directory, paired timing.

Each ``bench_*`` module times one engine feature or ablation and
writes what it measured to ``benchmarks/output/<name>.txt``. The paper's
tables and figures and the extension studies are rendered by
``repro.core.report`` alone (``tools/gen_experiments.py`` writes them
into EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


def pytest_addoption(parser):
    parser.addoption(
        "--workers", default=str(os.cpu_count() or 1),
        help="worker threads for parallel-executor benchmarks",
    )
    parser.addoption(
        "--assert-speedup", default=None,
        help="fail the parallel smoke benchmark below this serial/parallel ratio",
    )


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def write_artifact(output_dir: Path, name: str, text: str) -> None:
    (output_dir / f"{name}.txt").write_text(text + "\n")


def paired_overhead(baseline, candidate, plan, repeats):
    """Median of per-round candidate/baseline wall-clock ratios.

    The two executors run back-to-back inside each round (pairing cancels
    the slow clock drift of a throttling host) and the order alternates
    between rounds (so within-round warm-up cannot systematically favor
    one side). Returns ``(median_ratio, best_baseline_s, best_candidate_s,
    (baseline_result, candidate_result))``.
    """
    sides = {"baseline": baseline, "candidate": candidate}
    ratios, best, results = [], dict.fromkeys(sides, float("inf")), {}
    for round_no in range(repeats):
        walls = {}
        order = list(sides)
        if round_no % 2:
            order.reverse()
        for name in order:
            start = time.perf_counter()
            results[name] = sides[name].execute(plan)
            walls[name] = time.perf_counter() - start
            best[name] = min(best[name], walls[name])
        ratios.append(walls["candidate"] / max(walls["baseline"], 1e-9))
    ratios.sort()
    median = ratios[len(ratios) // 2]
    return median, best["baseline"], best["candidate"], (
        results["baseline"], results["candidate"]
    )
