"""Generate the paper's tables: EXPERIMENTS.md's blocks and docs/paper_tables.json.

Run:  PYTHONPATH=src python tools/gen_experiments.py

Renders every artifact of ``repro.core.report.ARTIFACTS`` at the
calibration setting and splices each between its
``<!-- BEGIN generated: <id> -->`` / ``<!-- END generated: <id> -->``
markers in EXPERIMENTS.md, then writes every modeled cell and agreement
statistic to docs/paper_tables.json. Values in the JSON are rounded to
4 significant digits, so a last-bit float difference between hosts does
not read as a change. CI regenerates both and fails on a diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import (
    TABLE2_SF1_RUNTIMES,
    TABLE3_WIMPI_RUNTIMES,
    ExperimentStudy,
    StudyConfig,
    compare_grids,
)
from repro.core.report import ARTIFACTS

CONFIG = StudyConfig(base_sf=0.05)
ROOT = Path(__file__).parent.parent


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.4g}")
    if isinstance(value, dict):
        return {str(k): _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _agreement(measured, published) -> dict:
    comparison = compare_grids(measured, published)
    return {
        "cells": comparison.cells,
        "median_factor": comparison.median_factor,
        "p90_factor": comparison.p90_factor,
        "rank_corr": comparison.spearman_like,
    }


def paper_tables(study: ExperimentStudy) -> dict:
    """Every modeled cell of Tables II-III and Figs. 3-7, plus the
    paper-agreement statistics of Table II and the WIMPI grid."""
    table3 = study.table3()
    fig4: dict = {}
    for run in study.fig4():
        fig4.setdefault(run.platform, {}).setdefault(run.strategy, {})[run.query] = run.seconds
    return _rounded({
        "config": {
            "base_sf": study.config.base_sf,
            "seed": study.config.seed,
            "cluster_sizes": study.config.cluster_sizes,
        },
        "agreement": {
            "table2": _agreement(study.table2(), TABLE2_SF1_RUNTIMES),
            "wimpi": _agreement(
                {str(n): per for n, per in table3["wimpi"].items()},
                {str(n): per for n, per in TABLE3_WIMPI_RUNTIMES.items()},
            ),
        },
        "table2": study.table2(),
        "table3": {"servers": table3["servers"], "wimpi": table3["wimpi"]},
        "fig3": {"sf1": study.fig3_sf1(), "sf10": study.fig3_sf10()},
        "fig4": fig4,
        "fig5": study.fig5(),
        "fig6": study.fig6(),
        "fig7": study.fig7(),
    })


def splice(text: str, block_id: str, body: str) -> str:
    """Replace what lies between ``block_id``'s markers with ``body``."""
    begin = f"<!-- BEGIN generated: {block_id} -->"
    end = f"<!-- END generated: {block_id} -->"
    if text.count(begin) != 1 or text.count(end) != 1:
        raise SystemExit(f"EXPERIMENTS.md needs exactly one {begin} ... {end} pair")
    head, rest = text.split(begin)
    _, tail = rest.split(end)
    return f"{head}{begin}\n```text\n{body}\n```\n{end}{tail}"


def main() -> None:
    study = ExperimentStudy(CONFIG)
    doc = ROOT / "EXPERIMENTS.md"
    text = doc.read_text()
    for block_id, _, render in ARTIFACTS:
        text = splice(text, block_id, render(study))
    doc.write_text(text)
    tables = ROOT / "docs" / "paper_tables.json"
    tables.write_text(json.dumps(paper_tables(study), indent=1) + "\n")
    print(f"wrote {doc} ({len(ARTIFACTS)} blocks) and {tables}")


if __name__ == "__main__":
    main()
