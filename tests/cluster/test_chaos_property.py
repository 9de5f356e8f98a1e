"""Property-based chaos testing (Hypothesis).

The contract the resilient runtime makes: *any* seeded fault plan that
is recoverable under replication 2 — every shard keeps at least one
holder that is not sticky-dead — yields results identical to the
committed fault-free goldens for all 22 TPC-H queries; an unrecoverable
plan degrades gracefully, reporting coverage < 1.0 instead of crashing.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import FaultPlan, ResilientDriver, replicate_database
from repro.tpch import ALL_QUERY_NUMBERS, get_query

N_NODES = 4
REPLICATION = 2

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tpch" / "data" / "golden_sf001_seed42.json").read_text()
)


def _numeric_sum(rows) -> float:
    total = 0.0
    for row in rows:
        for value in row:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if isinstance(value, float) and math.isnan(value):
                    continue
                total += float(value)
    return total


def _recoverable(plan: FaultPlan, layout) -> bool:
    """True when every shard keeps at least one live holder."""
    dead = plan.dead_nodes
    return all(any(n not in dead for n in holders) for holders in layout.holders)


def _assert_matches_golden(number: int, result) -> None:
    expected = GOLDEN[str(number)]
    assert len(result) == expected["rows"]
    assert result.column_names == expected["columns"]
    assert _numeric_sum(result.rows) == pytest.approx(
        expected["numeric_sum"], rel=1e-6, abs=0.02
    )


# Chaos probabilities are cranked well above the defaults so that drawn
# plans actually exercise the machinery (and unrecoverable plans occur).
def _chaos(seed: int) -> FaultPlan:
    return FaultPlan.chaos(
        seed, N_NODES, p_oom=0.2, p_hang=0.15, p_drop=0.2, p_straggler=0.2
    )


class TestChaosProperties:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_recoverable_plans_match_goldens(self, tpch_db, tpch_params, seed):
        layout = replicate_database(tpch_db, N_NODES, replication=REPLICATION)
        plan = _chaos(seed)
        if not _recoverable(plan, layout):
            # Unrecoverable draws are covered by the degradation property.
            driver = ResilientDriver(layout, fault_plan=plan)
            run = driver.run(get_query(6), tpch_params)
            assert run.degraded and run.coverage < 1.0
            return
        driver = ResilientDriver(layout, fault_plan=plan)
        for number in ALL_QUERY_NUMBERS:
            run = driver.run(get_query(number), tpch_params)
            assert run.coverage == 1.0, (
                f"Q{number} lost data under recoverable plan {plan.describe()}"
            )
            _assert_matches_golden(number, run.result)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_degraded_runs_report_honest_coverage(self, tpch_db, tpch_params, seed):
        """Whatever the plan, a lineitem query either covers everything
        or says exactly how much survived — never crashes, never lies."""
        layout = replicate_database(tpch_db, N_NODES, replication=REPLICATION)
        plan = _chaos(seed)
        driver = ResilientDriver(layout, fault_plan=plan)
        run = driver.run(get_query(1), tpch_params)
        if _recoverable(plan, layout):
            assert run.coverage == 1.0
        else:
            assert run.coverage < 1.0
            dead = plan.dead_nodes
            lost_rows = sum(
                layout.shard_rows(s)
                for s, holders in enumerate(layout.holders)
                if all(n in dead for n in holders)
            )
            assert run.coverage == pytest.approx(
                1.0 - lost_rows / layout.total_rows
            )

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_runs_are_replayable(self, tpch_db, tpch_params, seed):
        """Same seed, same layout -> same recovery log and same rows."""
        plan = _chaos(seed)
        outcomes = []
        for _ in range(2):
            layout = replicate_database(tpch_db, N_NODES, replication=REPLICATION)
            driver = ResilientDriver(layout, fault_plan=plan)
            outcomes.append(driver.run(get_query(6), tpch_params))
        a, b = outcomes
        assert a.recovery.signature() == b.recovery.signature()
        assert a.coverage == b.coverage
        if a.result is not None:
            assert a.result.rows == b.result.rows
