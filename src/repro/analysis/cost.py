"""Cost-normalized analysis (Fig. 5: MSRP, Fig. 6: hourly).

The paper's normalization: improvement = (t_server x price_server) /
(t_pi_config x price_pi_config). Above 1 (the dotted break-even line) the
Pi configuration delivers more performance per dollar.
"""

from __future__ import annotations

from repro.hardware import PLATFORMS, PI_KEY, PlatformSpec, get_platform

from .energy import energy_improvement

__all__ = ["msrp_improvement", "hourly_improvement", "break_even_nodes",
           "normalized_improvement"]


def normalized_improvement(
    server_seconds: float,
    server_price: float,
    pi_seconds: float,
    pi_price: float,
) -> float:
    """Generic cost-normalized improvement factor (paper §III)."""
    if min(server_seconds, server_price, pi_seconds, pi_price) <= 0:
        raise ValueError("runtimes and prices must be positive")
    return (server_seconds * server_price) / (pi_seconds * pi_price)


def msrp_improvement(
    server: "str | PlatformSpec",
    server_seconds: float,
    pi_seconds: float,
    n_nodes: int = 1,
) -> float:
    """Fig. 5 cell: MSRP-normalized improvement of an n-node Pi
    configuration over a server. On-premises servers are dual-socket, so
    their list price is doubled (``total_msrp_usd``), as in the paper."""
    spec = get_platform(server) if isinstance(server, str) else server
    if spec.total_msrp_usd is None:
        raise ValueError(f"{spec.key!r} has no public MSRP (custom cloud SKU)")
    pi = PLATFORMS[PI_KEY]
    return normalized_improvement(
        server_seconds, spec.total_msrp_usd, pi_seconds, pi.msrp_usd * n_nodes
    )


def hourly_improvement(
    server: "str | PlatformSpec",
    server_seconds: float,
    pi_seconds: float,
    n_nodes: int = 1,
) -> float:
    """Fig. 6 cell: hourly-cost-normalized improvement (cloud servers use
    their EC2 on-demand price; the Pi uses its electricity cost)."""
    spec = get_platform(server) if isinstance(server, str) else server
    if spec.hourly_usd is None:
        raise ValueError(f"{spec.key!r} has no hourly price (on-premises)")
    pi = PLATFORMS[PI_KEY]
    return normalized_improvement(
        server_seconds, spec.hourly_usd, pi_seconds, pi.hourly_usd * n_nodes
    )


def break_even_nodes(
    server: "str | PlatformSpec",
    server_seconds: float,
    cluster_seconds_by_nodes: dict[int, float],
    metric: str = "msrp",
) -> int | None:
    """Smallest cluster size whose normalized improvement crosses 1.0
    (the paper's dotted break-even line), or None if none does.
    ``metric`` is Fig. 5's ``"msrp"``, Fig. 6's ``"hourly"`` or Fig. 7's
    ``"energy"``."""
    improve = {
        "msrp": msrp_improvement,
        "hourly": hourly_improvement,
        "energy": energy_improvement,
    }[metric]
    for nodes in sorted(cluster_seconds_by_nodes):
        if improve(server, server_seconds, cluster_seconds_by_nodes[nodes], nodes) >= 1.0:
            return nodes
    return None
