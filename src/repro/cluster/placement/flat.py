"""``flat_random``: the historical rack-blind randomised builder.

Extracted verbatim from ``repro.cluster.topology._build_pgs`` — same rng
stream, same tie-breaks — so a cluster built with the default policy is
byte-identical to the pre-policy layout (pinned by
``results/expected_all_300.json.gz``).
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.placement.base import least_loaded_disk, rotated
from repro.cluster.topology import ClusterConfig, PlacementGroup


class FlatRandomPolicy:
    """Randomised, balanced PG construction (seeded, deterministic).

    Each PG picks ``n`` distinct nodes at random and, within every chosen
    node, its least-PG-loaded disk — spreading membership (and therefore
    recovery helper traffic) evenly across all disks, like Ceph's CRUSH
    with the paper's "maximal amount of disks correlated to recovery"
    directory policy.  Racks are ignored: a stripe lands wherever the node
    permutation says, which is the paper's single-rack world view.
    """

    name = "flat_random"

    def build_pgs(self, config: ClusterConfig) -> Iterable[PlacementGroup]:
        import numpy as np

        rng = np.random.default_rng(config.pg_seed)
        n = config.n
        picks = [0] * config.n_nodes
        for p in range(config.n_pgs):
            nodes = rng.permutation(config.n_nodes)[:n]
            disks = [least_loaded_disk(config, int(node), picks)
                     for node in nodes]
            yield PlacementGroup(p, rotated(disks, p, n))
