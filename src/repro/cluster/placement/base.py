"""The placement-policy protocol."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.cluster.topology import ClusterConfig


@runtime_checkable
class PlacementPolicy(Protocol):
    """Pure, seeded choice of each PG's nodes.

    Implementations must be deterministic in ``config`` alone (draw all
    randomness from ``config.pg_seed``) and pick ``config.n`` distinct
    nodes for each of ``config.n_pgs`` groups.  Which disk of a node a
    pick takes, and which role it plays, is
    :func:`~repro.cluster.placement.pg_disks`'s decision, the same for
    every policy.
    """

    #: Registry name (what ``ClusterConfig.placement`` holds).
    name: str

    def node_picks(self, config: ClusterConfig) -> np.ndarray:
        """The ``(n_pgs, n)`` int array of each PG's nodes, PG by PG in
        pick order."""
        ...
