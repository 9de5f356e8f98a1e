"""The ad-events query family: named SQL templates over the star schema.

Like the TPC-H side (:mod:`repro.tpch.sqltext`), this family is
SQL-only: the texts below are the reference definitions and the
differential harness checks serial vs parallel execution and committed
goldens. Together they
exercise every generalized frontend construct: CASE pivots, BETWEEN,
UNION, NOT EXISTS, correlated scalar subqueries, IN (SELECT ... HAVING),
derived tables, and the string functions (UPPER / CONCAT / SUBSTRING).
"""

from __future__ import annotations

from repro.engine import Database, Q
from repro.engine.sql import sql

__all__ = ["ADEVENTS_QUERIES", "QUERY_NAMES", "build"]

ADEVENTS_QUERIES: dict[str, str] = {
    # Funnel pivot: one pass over the fact, CASE-encoded counters.
    "daily_funnel": """
        SELECT ev_day,
               COUNT(*) AS events,
               SUM(CASE WHEN ev_type = 'click' THEN 1 ELSE 0 END) AS clicks,
               SUM(CASE WHEN ev_type = 'conversion' THEN 1 ELSE 0 END)
                   AS conversions,
               SUM(ev_cost) AS spend
        FROM events
        GROUP BY ev_day
        ORDER BY ev_day
    """,
    # Click-through rate per channel: dimension join + CASE ratio.
    "channel_ctr": """
        SELECT st_channel,
               SUM(CASE WHEN ev_type = 'click' THEN 1 ELSE 0 END)
               / SUM(CASE WHEN ev_type = 'impression' THEN 1 ELSE 0 END) AS ctr,
               SUM(ev_cost) AS spend
        FROM events
        JOIN site ON ev_sitekey = st_sitekey
        GROUP BY st_channel
        ORDER BY st_channel
    """,
    # Snowflake join through campaign to advertiser, date-range BETWEEN.
    "top_advertisers": """
        SELECT a_name, SUM(ev_cost) AS spend, SUM(ev_revenue) AS revenue
        FROM events
        JOIN campaign ON ev_campkey = cm_campkey
        JOIN advertiser ON cm_advkey = a_advkey
        WHERE ev_day BETWEEN DATE '2024-02-01' AND DATE '2024-03-31'
        GROUP BY a_name
        ORDER BY spend DESC, a_name
        LIMIT 10
    """,
    # Correlated scalar subquery: campaigns whose spend exceeds budget.
    "overspent_campaigns": """
        SELECT cm_name, cm_budget
        FROM campaign
        WHERE cm_budget < (
            SELECT SUM(ev_cost) FROM events WHERE ev_campkey = cm_campkey)
        ORDER BY cm_name
    """,
    # Anti-join via NOT EXISTS: sites with no traffic at all.
    "dead_sites": """
        SELECT st_name, st_channel
        FROM site
        WHERE NOT EXISTS (
            SELECT * FROM events WHERE ev_sitekey = st_sitekey)
        ORDER BY st_name
    """,
    # UNION (distinct) of two site populations.
    "premium_reach": """
        SELECT st_name FROM site WHERE st_tier = 1
        UNION
        SELECT st_name FROM site WHERE st_channel = 'video'
        ORDER BY st_name
    """,
    # String function in the group key (UPPER) plus an IN-list filter.
    "category_revenue": """
        SELECT UPPER(a_category) AS category,
               SUM(ev_revenue) AS revenue,
               COUNT(*) AS events
        FROM events
        JOIN campaign ON ev_campkey = cm_campkey
        JOIN advertiser ON cm_advkey = a_advkey
        WHERE a_country IN ('US', 'DE', 'JP')
        GROUP BY category
        ORDER BY category
    """,
    # SUBSTRING in the group key over the dictionary-encoded name column.
    "site_prefixes": """
        SELECT SUBSTRING(st_name FROM 5 FOR 2) AS bucket,
               COUNT(*) AS n_sites
        FROM site
        GROUP BY bucket
        ORDER BY bucket
    """,
    # CONCAT-built segment label as the group key.
    "advertiser_segments": """
        SELECT CONCAT(a_country, '-', a_category) AS segment,
               COUNT(*) AS n_advertisers
        FROM advertiser
        GROUP BY segment
        ORDER BY segment
    """,
    # Semi-join via IN (SELECT ... GROUP BY ... HAVING): activity of
    # repeat-converter "whale" users.
    "whale_share": """
        SELECT COUNT(*) AS whale_events, SUM(ev_cost) AS whale_spend
        FROM events
        WHERE ev_userkey IN (
            SELECT ev_userkey FROM events
            WHERE ev_type = 'conversion'
            GROUP BY ev_userkey
            HAVING COUNT(*) >= 3)
    """,
    # Derived table with per-campaign margins, re-aggregated with a CASE
    # over the aggregate outputs.
    "campaign_margin": """
        SELECT cm_objective,
               COUNT(*) AS n_campaigns,
               SUM(CASE WHEN margin > 0 THEN 1 ELSE 0 END) AS n_profitable
        FROM (
            SELECT cm_objective, cm_campkey,
                   SUM(ev_revenue) - SUM(ev_cost) AS margin
            FROM events
            JOIN campaign ON ev_campkey = cm_campkey
            GROUP BY cm_objective, cm_campkey
        ) AS per_campaign
        GROUP BY cm_objective
        ORDER BY cm_objective
    """,
}

QUERY_NAMES = tuple(ADEVENTS_QUERIES)


def build(db: Database, name: str) -> Q:
    """Plan the named ad-events query against ``db``."""
    try:
        text = ADEVENTS_QUERIES[name]
    except KeyError:
        raise KeyError(f"unknown adevents query {name!r}") from None
    return sql(db, text)
