"""The benchmark trajectory across PRs, from the committed paired runs.

    python tools/bench_diff.py [--workload W] [--metric M]

reads every ``BENCH_PR<n>.json`` at the repo root (the records
``tools/bench_pairs.py --out`` writes) and prints, per workload and
end-to-end metric, one row per PR and seed: base and change medians,
their ratio, wins / pairs and the verdict. ``--workload`` and
``--metric`` filter the table. A record missing a field ``bench_pairs.py
--out`` writes is an error: the file and the field are named on stderr
and the exit status is 2. So is a ``CHANGES.md`` entry tagged
``[perf_opt]`` whose PR has no ``BENCH_PR<n>.json``, unless ``UNRECORDED``
names the PR and why; each such exception is printed on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RECORD_FIELDS = ("workload", "seed", "smoke", "base", "pairs", "failed",
                 "attempted", "metrics", "runs")
METRIC_FIELDS = ("base_median", "change_median", "base_iqr", "change_iqr",
                 "allowed", "wins", "pairs", "verdict")

# ``[perf_opt]`` PRs without a record, and why none can be committed.
UNRECORDED = {
    19: "predates the ledger (tools/bench_pairs.py --out)",
    20: "predates the ledger (tools/bench_pairs.py --out)",
    26: "committed no record, and its gain cannot be measured honestly after the fact",
}


class MalformedRecord(ValueError):
    pass


def load(root: Path) -> list[tuple[int, dict]]:
    """``(pr, record)`` for every record of every ``BENCH_PR<n>.json``
    under ``root``, in PR order; each record checked field by field."""
    entries = []
    for path in root.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match is None:
            continue
        for i, rec in enumerate(json.loads(path.read_text())):
            where = f"{path.name} record {i}"
            missing = [f for f in RECORD_FIELDS if f not in rec]
            for name, stats in rec.get("metrics", {}).items():
                missing += [f"metrics.{name}.{f}" for f in METRIC_FIELDS if f not in stats]
            if missing:
                raise MalformedRecord(f"{where}: missing {', '.join(missing)}")
            entries.append((int(match.group(1)), rec))
    return sorted(entries, key=lambda e: (e[0], e[1]["workload"], e[1]["seed"]))


def unrecorded_claims(root: Path, entries) -> list[int]:
    """PRs whose ``CHANGES.md`` entry under ``root`` is tagged
    ``[perf_opt]`` but that have no record and no ``UNRECORDED`` reason."""
    changes = root / "CHANGES.md"
    if not changes.exists():
        return []
    claimed = re.findall(r"^- PR (\d+): \[perf_opt\]", changes.read_text(), re.MULTILINE)
    recorded = {pr for pr, _ in entries}
    return [int(pr) for pr in claimed if int(pr) not in recorded | set(UNRECORDED)]


def render(entries, workload: str | None = None, metric: str | None = None) -> str:
    """One section per (workload, metric), one row per PR and seed."""
    rows: dict[tuple[str, str], list[str]] = {}
    for pr, rec in entries:
        if workload is not None and rec["workload"] != workload:
            continue
        for name, m in rec["metrics"].items():
            if metric is not None and name != metric:
                continue
            ratio = m["change_median"] / m["base_median"] if m["base_median"] else float("nan")
            smoke = " [smoke]" if rec["smoke"] else ""
            rows.setdefault((rec["workload"], name), []).append(
                f"  PR {pr:<4} {rec['seed']:>5} {m['base_median']:>12.4f} "
                f"{m['change_median']:>12.4f} {ratio:>7.3f} "
                f"{m['wins']:>3}/{m['pairs']:<3} {m['verdict']}{smoke}"
            )
    out = []
    for (wl, name), lines in rows.items():
        out.append(f"{wl}  {name}")
        out.append(f"  {'':<7} {'seed':>5} {'base p50':>12} {'change p50':>12} "
                   f"{'ratio':>7} {'wins':>7} verdict")
        out.extend(lines)
        out.append("")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="only this workload")
    parser.add_argument("--metric", help="only this end-to-end metric")
    args = parser.parse_args(argv)
    try:
        entries = load(REPO)
    except MalformedRecord as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2
    if not entries:
        print(f"bench_diff: no BENCH_PR<n>.json under {REPO}", file=sys.stderr)
        return 2
    for pr, reason in UNRECORDED.items():
        print(f"bench_diff: PR {pr} has no record: {reason}", file=sys.stderr)
    missing = unrecorded_claims(REPO, entries)
    if missing:
        for pr in missing:
            print(f"bench_diff: CHANGES.md tags PR {pr} [perf_opt] "
                  f"but BENCH_PR{pr}.json is missing", file=sys.stderr)
        return 2
    print(render(entries, args.workload, args.metric))
    return 0


if __name__ == "__main__":
    sys.exit(main())
