"""A/A check: does the benchmark repeat on unchanged code?

Runs every workload ``--runs`` times with seeds ``seed, seed+1, ...``
and then does it all again, the way the driver judges a benchmark. For
each workload x end-to-end metric it prints the median of each set, each
set's spread (distance between first and third quartile as a share of
the median) and how much worse the second median is than the first,
beside the metric's bound. Exits non-zero when a spread (``setup_s``
excepted) or a worsening exceeds its bound::

    python3 benchmarks/suite/aa.py                 # 10 runs x 2 sets, ~35 min
    python3 benchmarks/suite/aa.py --runs 1        # one back-to-back pair
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run
import spec


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, action="append")
    args = parser.parse_args()

    excess = 0
    for name in args.workload or spec.WORKLOAD_NAMES:
        sets = []
        for _ in range(2):
            results = [
                run.run_child(name, args.seed + i, args.seconds, 0, args.smoke, echo=False)
                for i in range(args.runs)
            ]
            failed = sum(r["failed"] for r in results)
            if failed:
                print(f"{name}: {failed} failed requests")
                excess += 1
            sets.append(results)
        print(f"{name}  ({args.runs} runs per set)")
        print(f"  {'metric':<20} {'median A':>12} {'median B':>12} "
              f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}")
        for metric, _, better, bound in spec.END_TO_END:
            a, b = ([r["metrics"][metric]["value"] for r in results] for results in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if better == "lower" else -1)
            spreads = (spread(a), spread(b))
            bad = worse > bound or (metric != "setup_s" and max(spreads) > bound)
            excess += bad
            print(f"  {metric:<20} {med_a:12.4f} {med_b:12.4f} {spreads[0]:9.2%} "
                  f"{spreads[1]:9.2%} {worse:+8.2%} {bound:6.0%}"
                  f"{'  EXCEEDED' if bad else ''}")
        sys.stdout.flush()
    print("A/A:", f"{excess} excess" if excess else "ok")
    return 1 if excess else 0


if __name__ == "__main__":
    sys.exit(main())
