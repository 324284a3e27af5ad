"""``flat_random``: the historical rack-blind randomised builder.

The node draws of ``repro.cluster.topology._build_pgs`` — same rng
stream, one permutation per PG — and the shared pick-to-disk step give
the same disks, so a cluster built with the default policy is
byte-identical to the pre-policy layout (pinned by
``results/expected_all_300.json.gz``).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import ClusterConfig


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

    def node_picks(self, config: ClusterConfig) -> np.ndarray:
        rng = np.random.default_rng(config.pg_seed)
        # Rows are copied out: a list of slices would keep every PG's
        # whole n_nodes permutation alive.
        picks = np.empty((config.n_pgs, config.n), dtype=np.int64)
        for p in range(config.n_pgs):
            picks[p] = rng.permutation(config.n_nodes)[:config.n]
        return picks
