"""Out-of-core execution benchmark: spill survives where in-memory dies.

The wimpy-node claim under test (§II's RAM-per-node axis): with a fixed
memory budget a node either refuses queries whose hash state exceeds RAM
(`--no-spill`: typed :class:`MemoryBudgetExceeded`) or — with Grace
spilling — admits and completes them with *identical* rows. This
benchmark walks a scale-factor ladder under one fixed budget and records
where the in-memory engine starts dying while the spilling engine keeps
answering.

Two gates:

* **survival** — at the top of the ladder the budget must be genuinely
  over-subscribed: the no-spill run raises ``MemoryBudgetExceeded`` and
  the spilling run completes with rows identical to the unbudgeted
  reference (and really spills).
* **overhead** — a budget the workload never hits must be free: with a
  1 GB budget (zero spilled bytes) the probe queries together stay
  within 5% of their unbudgeted wall clock (plus a small noise floor;
  rounds are interleaved and the gate sums across queries so one noisy
  sub-100 ms measurement cannot fail the suite).

Emits ``benchmarks/output/BENCH_spill.json``.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_spill.py -q
"""

from __future__ import annotations

import json
import time

import pytest

from repro.engine import DEFAULT_SETTINGS, Executor, MemoryBudgetExceeded
from repro.tpch import generate, get_query

from conftest import paired_overhead, write_artifact

# Scale ladder under one fixed budget: small enough to survive at the
# bottom, over-subscribed at the top.
LADDER_SFS = (0.02, 0.05, 0.1)
BUDGET_BYTES = 1 * 1024 * 1024  # 1 MB of operator working memory
# Q9's five-way join: once part ⋈ lineitem has run, *neither* input of
# the joins above it fits at the upper rungs. (A budgeted join builds over
# whichever input fits, so Q3 — small left inputs — now runs in memory on
# every rung.)
LADDER_QUERY = 9

# Overhead probes: join- and aggregate-heavy shapes at the top scale,
# run under a budget they never reach.
OVERHEAD_QUERIES = (1, 3, 6)
UNHIT_BUDGET = 1 << 30  # 1 GB
REPEATS = 7
MAX_OVERHEAD = 1.05
NOISE_FLOOR_S = 0.005


def _rows_identical(a, b) -> bool:
    return list(map(str, a)) == list(map(str, b))


def test_spill_survival_and_overhead(benchmark, output_dir):
    # ------------------------------------------------------------------
    # Survival ladder: fixed budget, growing data.
    # ------------------------------------------------------------------
    ladder = []
    for sf in LADDER_SFS:
        db = generate(sf, seed=42)
        plan = get_query(LADDER_QUERY).build(db, {"sf": sf})
        reference = Executor(db).execute(plan)

        no_spill = Executor(
            db, DEFAULT_SETTINGS.without_spilling(), memory_budget=BUDGET_BYTES
        )
        try:
            no_spill.execute(plan)
            in_memory = "completes"
        except MemoryBudgetExceeded:
            in_memory = "dies"

        start = time.perf_counter()
        spilled = Executor(db, memory_budget=BUDGET_BYTES).execute(plan)
        spill_wall = time.perf_counter() - start
        assert _rows_identical(reference.rows, spilled.rows), (
            f"SF {sf}: spilling changed Q{LADDER_QUERY}'s rows"
        )
        ladder.append({
            "sf": sf,
            "query": f"Q{LADDER_QUERY}",
            "budget_bytes": BUDGET_BYTES,
            "in_memory": in_memory,
            "spill": "completes",
            "spilled_bytes": spilled.profile.spilled_bytes,
            "spill_partitions": spilled.profile.spill_partitions,
            "spill_seconds": spill_wall,
        })

    # The ladder's top must be genuinely out-of-core: in-memory dies,
    # spilling answers (and really touched the disk to do it).
    top = ladder[-1]
    assert top["in_memory"] == "dies", (
        f"budget {BUDGET_BYTES} never over-subscribed Q{LADDER_QUERY} — "
        "raise the ladder"
    )
    assert top["spilled_bytes"] > 0
    first_death = next((e["sf"] for e in ladder if e["in_memory"] == "dies"), None)

    # ------------------------------------------------------------------
    # Overhead gate: an unhit budget must be free.
    # ------------------------------------------------------------------
    db = generate(LADDER_SFS[-1], seed=42)
    plain = Executor(db)
    budgeted = Executor(db, memory_budget=UNHIT_BUDGET)
    overhead = []
    for number in OVERHEAD_QUERIES:
        plan = get_query(number).build(db, {"sf": LADDER_SFS[-1]})
        ratio, t_plain, t_budget, (r_plain, r_budget) = paired_overhead(
            plain, budgeted, plan, REPEATS
        )
        assert r_budget.profile.spilled_bytes == 0, (
            f"Q{number}: a {UNHIT_BUDGET >> 20} MB budget should never spill "
            f"at SF {LADDER_SFS[-1]}"
        )
        assert _rows_identical(r_plain.rows, r_budget.rows)
        overhead.append({
            "query": f"Q{number}",
            "seconds_plain": t_plain,
            "seconds_budgeted": t_budget,
            "overhead": ratio,
        })

    benchmark.pedantic(
        lambda: budgeted.execute(
            get_query(LADDER_QUERY).build(db, {"sf": LADDER_SFS[-1]})
        ),
        rounds=1, iterations=1,
    )

    report = {
        "budget_bytes": BUDGET_BYTES,
        "ladder": ladder,
        "first_death_sf": first_death,
        "overhead_budget_bytes": UNHIT_BUDGET,
        "overhead": overhead,
    }
    (output_dir / "BENCH_spill.json").write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"out-of-core ladder: Q{LADDER_QUERY} under a "
        f"{BUDGET_BYTES >> 20} MB working-memory budget"
    ]
    for e in ladder:
        lines.append(
            f"  SF {e['sf']:<5g} in-memory: {e['in_memory']:<10} "
            f"spill: completes in {e['spill_seconds'] * 1e3:8.2f} ms "
            f"({e['spilled_bytes'] / 1e6:.2f} MB spilled across "
            f"{e['spill_partitions']} partition files)"
        )
    lines.append(
        f"overhead with an unhit {UNHIT_BUDGET >> 20} MB budget "
        f"(SF {LADDER_SFS[-1]:g}):"
    )
    for e in overhead:
        lines.append(
            f"  {e['query']:<4} {e['seconds_plain'] * 1e3:8.2f} ms -> "
            f"{e['seconds_budgeted'] * 1e3:8.2f} ms ({e['overhead']:.3f}x)"
        )
    text = "\n".join(lines)
    write_artifact(output_dir, "spill", text)
    print("\n" + text)

    # Time-weighted mean of the paired median ratios: long queries carry
    # their weight, and the NOISE_FLOOR_S allowance (expressed as a
    # fraction of the total plain time) absorbs scheduler jitter on a
    # workload of tens of milliseconds.
    total_plain = sum(e["seconds_plain"] for e in overhead)
    weighted = (
        sum(e["overhead"] * e["seconds_plain"] for e in overhead) / total_plain
    )
    allowed = MAX_OVERHEAD + NOISE_FLOOR_S / total_plain
    assert weighted <= allowed, (
        f"unhit budget cost {(weighted - 1) * 100:.1f}% across "
        f"{len(overhead)} probe queries (> {MAX_OVERHEAD - 1:.0%}): "
        + ", ".join(f"{e['query']}={e['overhead']:.3f}x" for e in overhead)
    )
