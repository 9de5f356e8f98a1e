"""The one renderer of the paper's artifacts.

Each artifact — Table I through Fig. 7 — has one function here that
renders it from an :class:`ExperimentStudy`: the modeled numbers, the
paper's numbers beside them where the paper published a grid, and the
lines of :mod:`repro.core.claims` that judge it. ``ARTIFACTS`` lists
them in the paper's order. ``EXTENSIONS`` does the same for the studies
of the paper's proposals (:mod:`repro.core.extensions`,
:mod:`repro.mlbench`): each block's numbers are computed once, as a
plain dict, and the block prints them. ``full_report(study)`` joins the
blocks (the extensions on request) as one plain-text document, and
``tools/gen_experiments.py`` splices the same blocks into EXPERIMENTS.md
and writes the numbers to docs/paper_tables.json.
"""

from __future__ import annotations

import statistics

from repro.analysis import (
    break_even_nodes,
    median_relative,
    render_matrix,
    render_runtime_table,
    render_series,
    speedup_table,
)
from repro.hardware import CLOUD, ON_PREMISES, PI_KEY, SERVER_KEYS
from repro.strategies import ALL_STRATEGIES, FIG4_PLATFORMS
from repro.tpch import ALL_QUERY_NUMBERS, CHOKEPOINTS

from .claims import CLAIMS, ClaimResult, evaluate_claims
from .compare import compare_grids
from .paperdata import TABLE2_SF1_RUNTIMES, TABLE3_SF10_RUNTIMES, TABLE3_WIMPI_RUNTIMES
from .study import ExperimentStudy

__all__ = ["ARTIFACTS", "EXTENSIONS", "full_report", "render_claims"]

def _header(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{bar}\n{title}\n{bar}\n"


def render_claims(results: list[ClaimResult]) -> str:
    """One verdict line and one measured-detail line per claim."""
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.claim_id:<8} {r.quote}")
        lines.append(f"        -> {r.detail}")
    return "\n".join(lines)


def _claims(study: ExperimentStudy, *claim_ids: str) -> str:
    chosen = tuple(c for c in CLAIMS if c.claim_id in claim_ids)
    return "claims:\n" + render_claims(evaluate_claims(study, chosen))


def _queries(order) -> str:
    return ", ".join(f"Q{q}" for q in order) or "none"


# ----------------------------------------------------------------------
# One function per artifact
# ----------------------------------------------------------------------


def _table1(study: ExperimentStudy) -> str:
    def dash(value, fmt="{}"):
        return "-" if value is None else fmt.format(value)

    rows = [
        (r["name"], r["category"], r["cpu"], f'{r["frequency_ghz"]:g}', r["cores"],
         f'{r["llc_mb"]:g}', dash(r["msrp_usd"], "{:g}"),
         dash(r["hourly_usd"], "{:.4g}"), dash(r["tdp_w"], "{:g}"))
        for r in study.table1()
    ]
    return render_matrix(
        rows, ["name", "category", "cpu", "GHz", "cores", "LLC(MB)", "MSRP($)",
               "hourly($)", "TDP(W)"],
    )


def _fig2(study: ExperimentStudy) -> str:
    micro = study.fig2()["micro"]
    pi = micro[PI_KEY]
    raw = render_matrix(
        [
            (m.platform,
             round(m.whetstone_mwips_1core), round(m.whetstone_mwips_all),
             round(m.dhrystone_dmips_1core), round(m.dhrystone_dmips_all),
             f"{m.sysbench_s_1core:.2f}", f"{m.sysbench_s_all:.2f}",
             f"{m.membw_gbs_1core:.1f}", f"{m.membw_gbs_all:.1f}")
            for m in micro.values()
        ],
        ["platform", "whet-1c", "whet-all", "dhry-1c", "dhry-all",
         "sysb-1c(s)", "sysb-all(s)", "bw-1c", "bw-all"],
        title="measured (MWIPS / DMIPS / seconds / GB/s)",
    )
    ratios = render_matrix(
        [
            (m.platform,
             f"{m.whetstone_mwips_1core / pi.whetstone_mwips_1core:.2f}",
             f"{m.whetstone_mwips_all / pi.whetstone_mwips_all:.1f}",
             f"{m.dhrystone_dmips_1core / pi.dhrystone_dmips_1core:.2f}",
             f"{m.dhrystone_dmips_all / pi.dhrystone_dmips_all:.1f}",
             f"{pi.sysbench_s_1core / m.sysbench_s_1core:.2f}",
             f"{pi.sysbench_s_all / m.sysbench_s_all:.1f}",
             f"{m.membw_gbs_1core / pi.membw_gbs_1core:.1f}",
             f"{m.membw_gbs_all / pi.membw_gbs_all:.1f}")
            for m in micro.values() if m.platform != PI_KEY
        ],
        ["platform", "whet-1c", "whet-all", "dhry-1c", "dhry-all",
         "sysb-1c", "sysb-all", "bw-1c", "bw-all"],
        title="ratios vs the Raspberry Pi 3B+ (sysbench: Pi seconds / server seconds)",
    )
    return "\n\n".join([
        raw, ratios,
        f"network: {study.fig2()['network_mbps']:.0f} Mbps node-to-node",
        _claims(study, "II-C1a", "II-C1b", "II-C2", "II-C3"),
    ])


def _table2(study: ExperimentStudy) -> str:
    table2 = study.table2()
    comparison = compare_grids(table2, TABLE2_SF1_RUNTIMES)
    ratio = {
        platform: {q: per[q] / TABLE2_SF1_RUNTIMES[platform][q] for q in per}
        for platform, per in table2.items()
    }
    ours_over_paper = {
        "all platforms (median)": {q: statistics.median(per[q] for per in ratio.values())
                   for q in ALL_QUERY_NUMBERS},
        PI_KEY: ratio[PI_KEY],
    }
    # The Pi's queries from relatively worst to best: median over the
    # servers of t_pi / t_server.
    slowdown = {
        q: statistics.median(table2[PI_KEY][q] / table2[s][q] for s in SERVER_KEYS)
        for q in ALL_QUERY_NUMBERS
    }
    return "\n\n".join([
        render_runtime_table(table2, title="modeled runtimes (s)"),
        render_runtime_table(ours_over_paper, title="ours / paper, per query"),
        f"vs paper: median factor {comparison.median_factor:.2f}x, "
        f"p90 {comparison.p90_factor:.2f}x, rank corr {comparison.spearman_like:.2f} "
        f"({comparison.cells} cells)",
        "Pi's queries, worst to best (median t_pi / t_server): "
        + _queries(sorted(slowdown, key=slowdown.get, reverse=True)),
        _claims(study, "II-D1a", "II-D1b"),
    ])


def _wins(relative: dict[str, dict[int, float]]) -> list[int]:
    """Queries on which the Pi configuration beats at least one server."""
    return sorted({q for per in relative.values() for q, v in per.items() if v > 1.0})


def _fig3(study: ExperimentStudy) -> str:
    ours = median_relative(study.fig3_sf1())
    paper = median_relative(speedup_table(
        {k: v for k, v in TABLE2_SF1_RUNTIMES.items() if k != PI_KEY},
        TABLE2_SF1_RUNTIMES[PI_KEY],
    ))
    sf1 = render_matrix(
        [(server, f"{paper[server]:.3f}", f"{ours[server]:.3f}") for server in ours],
        ["server", "paper", "ours"],
        title="SF 1: median relative performance of the Pi (t_server / t_pi)",
    )
    sf1_cells = [v for per in study.fig3_sf1().values() for v in per.values()]
    sf10 = study.fig3_sf10()
    sizes = sorted(sf10)
    series = render_series(
        {f"Q{q}": {n: sf10[n]["op-e5"][q] for n in sizes} for q in CHOKEPOINTS},
        "SF 10: WIMPI relative performance vs op-e5 (t_server / t_wimpi)",
        x_label="n=", break_even=1.0,
    )
    largest = sizes[-1]
    wins = f"ours {_queries(_wins(sf10[largest]))}"
    if largest in TABLE3_WIMPI_RUNTIMES:
        paper_sf10 = speedup_table(TABLE3_SF10_RUNTIMES, TABLE3_WIMPI_RUNTIMES[largest])
        wins += f"; paper {_queries(_wins(paper_sf10))}"
    return "\n\n".join([
        sf1,
        f"SF 1 cells where the Pi beats a server: "
        f"{sum(v > 1.0 for v in sf1_cells)} of {len(sf1_cells)}",
        series,
        f"queries on which {largest} nodes beat at least one server: {wins}",
    ])


def _table3(study: ExperimentStudy) -> str:
    data = study.table3()
    grid = dict(data["servers"])
    for nodes, runtimes in data["wimpi"].items():
        grid[f"pi3b+ x{nodes}"] = runtimes
    wimpi_cmp = compare_grids(
        {str(n): per for n, per in data["wimpi"].items()},
        {str(n): per for n, per in TABLE3_WIMPI_RUNTIMES.items()},
    )
    small, large = min(data["wimpi"]), max(data["wimpi"])

    def paper(n, q):
        return f"{TABLE3_WIMPI_RUNTIMES[n][q]:.2f}" if n in TABLE3_WIMPI_RUNTIMES else "-"

    side_by_side = render_matrix(
        [
            (f"Q{q}", paper(small, q), f"{data['wimpi'][small][q]:.2f}",
             paper(large, q), f"{data['wimpi'][large][q]:.2f}")
            for q in CHOKEPOINTS
        ],
        ["query", f"paper x{small}", f"ours x{small}", f"paper x{large}", f"ours x{large}"],
        title="WIMPI side by side (s)",
    )
    return "\n\n".join([
        render_runtime_table(grid, title="modeled runtimes (s)"),
        side_by_side,
        f"WIMPI vs paper: median factor {wimpi_cmp.median_factor:.2f}x, "
        f"p90 {wimpi_cmp.p90_factor:.2f}x, rank corr {wimpi_cmp.spearman_like:.2f} "
        f"({wimpi_cmp.cells} cells)",
        _claims(study, "II-D2a", "II-D2b", "II-D2c"),
    ])


def _fig4(study: ExperimentStudy) -> str:
    cells = {(r.platform, r.strategy, r.query): r.seconds for r in study.fig4()}
    strategies = [s.name for s in ALL_STRATEGIES]
    rows = [
        (platform, strategy) + tuple(round(cells[(platform, strategy, q)], 3)
                                     for q in CHOKEPOINTS)
        for platform in FIG4_PLATFORMS for strategy in strategies
    ]
    gaps = {
        platform: statistics.median(
            cells[(platform, "data-centric", q)] / cells[(platform, "access-aware", q)]
            for q in CHOKEPOINTS
        )
        for platform in FIG4_PLATFORMS
    }
    pi_over = {
        server: [cells[(PI_KEY, strategy, q)] / cells[(server, strategy, q)]
                 for strategy in strategies for q in CHOKEPOINTS]
        for server in FIG4_PLATFORMS if server != PI_KEY
    }
    return "\n\n".join([
        render_matrix(rows, ["platform", "strategy"] + [f"Q{q}" for q in CHOKEPOINTS],
                      title="modeled runtimes (s), single-threaded SF 1"),
        "median data-centric / access-aware gap: "
        + ", ".join(f"{p} {g:.2f}x" for p, g in gaps.items()),
        "Pi runtime over every strategy and query: " + ", ".join(
            f"{min(r):.1f}-{max(r):.1f}x {server}'s" for server, r in pi_over.items()
        ),
        _claims(study, "II-D3"),
    ])


def _normalized(study: ExperimentStudy) -> list[tuple[str, str, str, dict]]:
    """(figure, its break-even metric, server, the figure's data) for
    every server each of Figs. 5-7 compares against."""
    figures = (("Fig. 5", "msrp", study.fig5(), ON_PREMISES),
               ("Fig. 6", "hourly", study.fig6(), CLOUD),
               ("Fig. 7", "energy", study.fig7(), ON_PREMISES))
    return [(fig, metric, server, data)
            for fig, metric, data, servers in figures for server in servers]


def _figs5_7_sf1(study: ExperimentStudy) -> str:
    rows = []
    for fig, metric, server, data in _normalized(study):
        per = data["sf1"][server]
        rows.append((fig, metric, server, f"{min(per.values()):.1f}",
                     f"{statistics.median(per.values()):.1f}", f"{max(per.values()):.1f}",
                     f"Q{max(per, key=per.get)}", f"Q{min(per, key=per.get)}"))
    return "\n\n".join([
        render_matrix(
            rows, ["figure", "metric", "server", "min", "median", "max", "best", "worst"],
            title="SF 1 improvement of the single Pi over 22 queries (>1 favors the Pi)",
        ),
        _claims(study, "III-A1a", "III-A2", "III-B1a", "III-B1b"),
    ])


def _figs5_7_sf10(study: ExperimentStudy) -> str:
    data = study.table3()
    sizes = sorted(data["wimpi"])
    largest = sizes[-1]
    break_even, at_largest, best = {}, {}, {}
    for fig, metric, server, fig_data in _normalized(study):
        row, sf10 = f"{fig} {server}", fig_data["sf10"][server]
        break_even[row] = {
            q: break_even_nodes(server, data["servers"][server][q],
                                {n: data["wimpi"][n][q] for n in sizes}, metric=metric)
            for q in CHOKEPOINTS
        }
        at_largest[row] = {q: sf10[largest][q] for q in CHOKEPOINTS}
        best[row] = {q: max(sf10[n][q] for n in sizes) for q in CHOKEPOINTS}
    return "\n\n".join([
        render_runtime_table(
            break_even,
            title="break-even cluster size (smallest n whose improvement >= 1; - never)",
        ),
        render_runtime_table(
            at_largest, title=f"improvement at n={largest} (>1 favors the cluster)"
        ),
        render_runtime_table(best, title="best improvement over every cluster size"),
        _claims(study, "III-A1b"),
    ])


# (block id, title, renderer): the paper's artifacts in the paper's order.
ARTIFACTS = (
    ("table1", "Table I — hardware", _table1),
    ("fig2", "Fig. 2 — microbenchmarks", _fig2),
    ("table2", "Table II — TPC-H SF 1", _table2),
    ("fig3", "Fig. 3 — relative performance of the Pi", _fig3),
    ("table3", "Table III — TPC-H SF 10", _table3),
    ("fig4", "Fig. 4 — execution strategies", _fig4),
    ("figs5-7-sf1", "Figs. 5-7 — normalized comparisons (SF 1)", _figs5_7_sf1),
    ("figs5-7-sf10", "Figs. 5-7 — normalized comparisons (SF 10)", _figs5_7_sf10),
)


# ----------------------------------------------------------------------
# The extension studies: numbers(study) -> dict, render(numbers) -> text
# (each study module is imported when its block is priced, so importing
# the package does not load them)
# ----------------------------------------------------------------------


def _compression_numbers(study: ExperimentStudy) -> dict:
    from .extensions import compression_study

    result = compression_study(base_sf=study.config.base_sf)
    speedup: dict = {}
    for r in result["single_node"]:
        speedup.setdefault(r.platform, {})[r.query] = r.speedup
    return {"ratio": result["ratio"], "speedup": speedup, "cliff": result["cliff"]}


def _compression(numbers: dict) -> str:
    cliff = numbers["cliff"]
    return "\n\n".join([
        f"lineitem compression ratio {numbers['ratio']:.2f}x",
        render_runtime_table(
            numbers["speedup"],
            title="single-node speedup at SF 10, plain / compressed seconds "
                  "(decode charged, encoded execution off)",
        ),
        "Q1 at 4 nodes: " + ", ".join(
            f"{storage} {cliff[storage]['seconds']:.2f} s "
            f"(pressure {cliff[storage]['pressure']:.2f})"
            for storage in ("plain", "compressed")
        ),
    ])


def _nam(numbers: dict) -> str:
    return "\n\n".join([
        render_matrix(
            [(f"Q{q}", f"{row['plain_seconds']:.2f}", f"{row['nam_seconds']:.2f}",
              row["offloaded_nodes"])
             for q, row in numbers["queries"].items()],
            ["query", "WIMPI (s)", "WIMPI+NAM (s)", "fragments offloaded"],
            title="4 Pi 3B+ nodes at SF 10, without and with a memory server",
        ),
        f"hardware: MSRP ${numbers['plain_msrp']:,.0f} -> ${numbers['nam_msrp']:,.0f}, "
        f"peak power {numbers['plain_power_w']:.1f} W -> {numbers['nam_power_w']:.1f} W",
    ])


def _proportionality(numbers: dict) -> str:
    return render_matrix(
        [("cluster, nodes powered to the load", f"{numbers['cluster_scaled_wh']:,.1f}", "-"),
         ("cluster, every node always on", f"{numbers['cluster_always_on_wh']:,.1f}",
          f"{numbers['savings_vs_always_on']:.0%}"),
         ("op-e5, always on", f"{numbers['server_wh']:,.1f}",
          f"{numbers['savings_vs_server']:.0%}")],
        ["configuration", "energy (Wh)", "saved by power gating"],
        title=f"energy over a {numbers['trace_hours']}-hour utilization trace, "
              "24 Pi 3B+ nodes vs op-e5",
    )


def _nam_numbers(study: ExperimentStudy) -> dict:
    from .extensions import nam_study

    return nam_study(base_sf=study.config.base_sf)


def _proportionality_numbers(study: ExperimentStudy) -> dict:
    from .extensions import proportionality_study

    return proportionality_study()


def _ml_numbers(study: ExperimentStudy) -> dict:
    from repro.mlbench import ml_study

    result = ml_study(base_sf=study.config.base_sf)
    platforms: dict = {}
    for r in result["platforms"]:
        platforms.setdefault(r.kernel, {})[r.platform] = {
            "seconds": r.seconds, "msrp_seconds_usd": r.msrp_seconds_usd,
        }
    return {"platforms": platforms, "cluster": result["cluster"]}


def _ml(numbers: dict) -> str:
    cluster = numbers["cluster"]
    return "\n\n".join([
        render_matrix(
            [(kernel, platform, f"{row['seconds']:.2f}", f"{row['msrp_seconds_usd']:,.0f}")
             for kernel, per in numbers["platforms"].items()
             for platform, row in per.items()],
            ["kernel", "platform", "train (s)", "s x MSRP ($)"],
            title="training on lineitem features at SF 1 (lower is better)",
        ),
        f"data-parallel logistic regression on WIMPI: one Pi "
        f"{cluster['single_pi_seconds']:.1f} s; " + ", ".join(
            f"{n} nodes {seconds:.1f} s" for n, seconds in cluster["by_nodes"].items()
        ),
    ])


def _cluster_variants_numbers(study: ExperimentStudy) -> dict:
    from .extensions import cluster_variants_study

    return cluster_variants_study(base_sf=study.config.base_sf)


def _cluster_variants(numbers: dict) -> str:
    runs = [(variant, n, row) for variant, per in numbers.items() for n, row in per.items()]
    queries = list(runs[0][2]["seconds"])

    def cell(value) -> str:
        return value if isinstance(value, str) else f"{value:.2f}"

    return render_matrix(
        [(variant, n, f"{row['msrp_usd']:,.0f}", f"{row['peak_power_w']:.1f}")
         + tuple(cell(row["seconds"][q]) for q in queries)
         for variant, n, row in runs],
        ["variant", "nodes", "MSRP ($)", "peak (W)"] + [f"Q{q}" for q in queries],
        title="WimPiCluster(n, **variant) at SF 10: seconds, or the typed "
              "error the memory model raises",
    )


# (block id, title, numbers(study), render(numbers)): the extension
# studies, each priced once and printed from what it returned.
EXTENSIONS = (
    ("ext-compression", "Extension: compression (§III-C2)",
     _compression_numbers, _compression),
    ("ext-nam", "Extension: NAM hybrid cluster (§III-C1)",
     _nam_numbers, _nam),
    ("ext-proportionality", "Extension: power gating (§III-B2)",
     _proportionality_numbers, _proportionality),
    ("ext-ml", "Extension: ML training (§V)", _ml_numbers, _ml),
    ("ext-cluster-variants",
     "Extension: cluster variants (§III-C1, §III-C4, §II-D2)",
     _cluster_variants_numbers, _cluster_variants),
)


def full_report(study: ExperimentStudy, include_extensions: bool = False) -> str:
    """Render the whole study (optionally including the extension
    studies, which add a few seconds of runtime)."""
    parts: list[str] = []
    parts.append(_header("Reproduction report — In-Memory OLAP on 'Wimpy' Nodes"))
    parts.append(
        f"base scale factor {study.config.base_sf:g}; cluster sizes "
        f"{study.config.cluster_sizes}; all runtimes are model outputs over "
        "really-executed queries (see DESIGN.md)."
    )
    for _, title, render in ARTIFACTS:
        parts.append(_header(title))
        parts.append(render(study))
    if include_extensions:
        for _, title, numbers, render in EXTENSIONS:
            parts.append(_header(title))
            parts.append(render(numbers(study)))
    return "\n".join(parts) + "\n"
