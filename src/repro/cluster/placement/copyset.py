"""``copyset``: a small pool of node sets instead of independent draws.

Random placement makes *every* combination of ``n`` nodes a potential
stripe, so once the cluster is moderately busy, almost any ``r + 1``
simultaneous node failures hit some stripe and lose data.  Copyset
placement (Cidon et al., ATC '13) caps that exposure: chop a few node
permutations into disjoint ``n``-wide sets and only ever place stripes on
those, shrinking the number of fatal failure combinations from
``C(n_nodes, r+1)`` to roughly ``pool_size * C(n, r+1)`` at the price of
less recovery parallelism (a failed disk's helpers concentrate on the few
nodes sharing its copysets).
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.placement.base import least_loaded_disk, rotated
from repro.cluster.topology import ClusterConfig, PlacementGroup


class CopysetPolicy:
    """Cycle PGs through permutation-chopped copysets (scatter width ~2n)."""

    name = "copyset"

    #: Number of seeded permutations chopped into the pool.  Two gives each
    #: node membership in ~2 copysets — the paper's sweet spot between
    #: data-loss probability and recovery scatter width.
    n_permutations = 2

    def build_pgs(self, config: ClusterConfig) -> Iterable[PlacementGroup]:
        import numpy as np

        rng = np.random.default_rng(config.pg_seed)
        n = config.n
        sets_per_perm = config.n_nodes // n
        if sets_per_perm < 1:
            raise ValueError(
                f"copyset needs at least n={n} nodes, have {config.n_nodes}")
        pool: list[list[int]] = []
        for _ in range(self.n_permutations):
            perm = [int(x) for x in rng.permutation(config.n_nodes)]
            pool.extend(perm[s * n:(s + 1) * n]
                        for s in range(sets_per_perm))
        picks = [0] * config.n_nodes
        for p in range(config.n_pgs):
            nodes = pool[p % len(pool)]
            disks = [least_loaded_disk(config, node, picks) for node in nodes]
            yield PlacementGroup(p, rotated(disks, p, n))
