"""Paired A/B runs of the committed benchmark, judged the way the PR
driver judges them (choosing-metrics §8).

    python tools/bench_pairs.py --base HEAD~1 --workload tpch_power --pairs 10

checks ``--base`` out into a temporary clone, then runs each tree's own,
unmodified ``benchmarks/suite/run.py --workload W --trace 0`` ``--pairs``
times per side, alternating which side goes first. Run length, metric
directions and bounds are read from ``BENCHMARK.json``; nothing is
imported from or written into ``benchmarks/suite/``. Per end-to-end
metric it prints both medians, both quartile distances against the bound
(a fraction of the *base's* median), wins / pairs and a verdict:

* ``gain``          — the change wins >= 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the base's own
  quartile distance;
* ``REGRESSION``    — the change's median is worse by more than the bound;
* ``unresolved``    — either side's quartile distance exceeds the bound, so
  "unchanged" cannot be told from "moved" (unless every run of the change
  beats every run of the base);
* ``within bound``  — none of the above.

``--smoke`` forwards ``run.py --smoke`` (SF 0.01, two passes): an A/A
plumbing check for CI, its timings mean nothing.

``--out PATH`` records the comparison as data: PATH holds a JSON list
with one record per (workload, seed) — base sha, pairs, failed counts,
the statistics above per metric, and every run's raw result line — and
a later invocation replaces the record of the same (workload, seed) and
keeps the others, so one file (``BENCH_PR<n>.json`` at the repo root)
collects a PR's whole measurement.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def checkout(ref: str, into: Path) -> tuple[Path, str]:
    """A detached checkout of ``ref`` in a fresh clone that borrows this
    repository's object store (no copy, and nothing is left behind in
    ``.git`` when the directory is removed), and the sha it resolved to."""
    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    tree = into / "base"
    subprocess.run(
        ["git", "clone", "--quiet", "--shared", "--no-checkout", str(REPO), str(tree)],
        check=True,
    )
    subprocess.run(
        ["git", "-C", str(tree), "checkout", "--quiet", "--detach", sha], check=True
    )
    return tree, sha


def run_once(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One fresh-process run of ``tree``'s benchmark: its result object."""
    cmd = [sys.executable, str(tree / "benchmarks" / "suite" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    cmd += ["--smoke"] if smoke else ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartile_distance(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(base: list, change: list, higher_is_better: bool, bound: float) -> dict:
    """The §8 statistics and verdict for one metric over paired runs."""
    sign = 1.0 if higher_is_better else -1.0
    base_med, change_med = statistics.median(base), statistics.median(change)
    base_iqr, change_iqr = quartile_distance(base), quartile_distance(change)
    allowed = bound * abs(base_med)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    better_by = sign * (change_med - base_med)
    separated = min(sign * c for c in change) > max(sign * b for b in base)
    if wins >= 0.9 * len(base) and better_by > base_iqr:
        verdict = "gain"
    elif -better_by > allowed:
        verdict = "REGRESSION"
    elif max(base_iqr, change_iqr) > allowed and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base_median": base_med, "change_median": change_med,
        "base_iqr": base_iqr, "change_iqr": change_iqr, "allowed": allowed,
        "wins": wins, "pairs": len(base), "verdict": verdict,
    }


def record(path: Path, entry: dict) -> None:
    """Put ``entry`` into the JSON list at ``path`` (one record per line),
    replacing the record of the same (workload, seed), keeping the rest."""
    def key(e):
        return (e["workload"], e["seed"])
    old = json.loads(path.read_text()) if path.exists() else []
    kept = [e for e in old if key(e) != key(entry)]
    path.write_text("[\n" + ",\n".join(json.dumps(e) for e in kept + [entry]) + "\n]\n")


def main() -> int:
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="forward run.py --smoke (plumbing check only)")
    parser.add_argument("--out", type=Path,
                        help="JSON file to record this comparison in")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    runs = {"base": [], "change": []}
    try:
        base_tree, base_sha = checkout(args.base, scratch)
        trees = {"base": base_tree, "change": REPO}
        for pair in range(args.pairs):
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                result = run_once(trees[side], args.workload, args.seed,
                                  manifest["run_seconds"], args.smoke)
                runs[side].append(result)
                print(f"pair {pair + 1}/{args.pairs} {side:<6} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{name}={m['value']:.6g}"
                                 for name, m in result["metrics"].items()),
                      flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"\n{args.workload} seed={args.seed} pairs={args.pairs} base={args.base}"
          + (" [smoke: timings mean nothing]" if args.smoke else "")
          + (" [fewer than ten pairs: verdicts are indicative only]"
             if args.pairs < 10 else ""))
    totals = {count: {side: sum(r[count] for r in results)
                      for side, results in runs.items()}
              for count in ("failed", "attempted")}
    for side in runs:
        print(f"  {side:<6} failed {totals['failed'][side]} "
              f"of {totals['attempted'][side]} attempted")
    header = (f"  {'metric':<20} {'base p50':>11} {'change p50':>11} {'ratio':>7} "
              f"{'base IQR':>10} {'chg IQR':>10} {'bound':>10} {'wins':>6}  verdict")
    print(header)
    # Failed requests always fail the run; a verdict only off --smoke.
    failed = totals["failed"]["change"] > 0
    judged = {}
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in runs.items()}
        j = judge(values["base"], values["change"], metric["better"] == "higher",
                  metric["bound"])
        ratio = j["change_median"] / j["base_median"] if j["base_median"] else float("nan")
        print(f"  {name:<20} {j['base_median']:>11.4f} {j['change_median']:>11.4f} "
              f"{ratio:>7.3f} {j['base_iqr']:>10.4f} {j['change_iqr']:>10.4f} "
              f"{j['allowed']:>10.4f} {j['wins']:>3}/{j['pairs']:<2}  {j['verdict']}")
        failed |= j["verdict"] == "REGRESSION" and not args.smoke
        judged[name] = j
    if args.out is not None:
        record(args.out, {
            "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "base": base_sha, "pairs": args.pairs, **totals,
            "metrics": judged, "runs": runs,
        })
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
