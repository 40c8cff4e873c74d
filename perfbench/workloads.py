"""Benchmark workloads: sweep campaigns generated from the benchmark seed.

Each workload is a fixed sweep grid.  A run executes a sequence of
campaigns of that grid; campaign ``c`` widens the ``seeds`` axis to the
block ``[c*K, (c+1)*K)`` (``K`` = the workload's seeds per campaign) and
takes the benchmark's ``--seed`` as its ``base_seed``.  Every campaign's
spec is therefore a pure function of (workload, seed, campaign number).

The grids are written out here rather than read from ``examples/`` so
that editing a shipped scenario pack never silently changes the
benchmark.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["WORKLOADS", "campaign_spec"]

#: workload -> (seeds per campaign, the grid's other spec keys)
WORKLOADS: Dict[str, tuple] = {
    # perf_guard's grid16 shape: a three-node SYN scan over Gilbert-Elliott
    # loss, single-shot vs retry-4; no tap, censor, MVR or rule engine.
    "lossy_scan": (16, {
        "loss_rates": [0.02, 0.05],
        "retry_policies": ["single-shot", "retry-4"],
        "port_count": 300,
        "duration": 300.0,
    }),
    # 1000 synthetic users at the default hybrid fidelity, with the censor
    # and the surveillance tap attached (censored-as points).
    "tapped_population": (4, {
        "techniques": ["overt-http", "scan"],
        "topologies": ["censored-as"],
        "loss_rates": [0.0],
        "retry_policies": ["retry-3"],
        "populations": [1000],
        "duration": 5.0,
    }),
}


def campaign_spec(workload: str, seed: int, campaign: int) -> Mapping[str, object]:
    """The sweep-spec mapping of campaign number ``campaign`` of a run."""
    per_campaign, grid = WORKLOADS[workload]
    first = campaign * per_campaign
    return {
        "name": f"perfbench-{workload}",
        "base_seed": seed,
        "seeds": list(range(first, first + per_campaign)),
        **grid,
    }
