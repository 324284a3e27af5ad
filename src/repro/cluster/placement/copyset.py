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

import numpy as np

from repro.cluster.topology import ClusterConfig


class CopysetPolicy:
    """Cycle PGs through permutation-chopped copysets (scatter width ~2n)."""

    name = "copyset"

    #: Number of seeded permutations chopped into the pool.  Two gives each
    #: node membership in ~2 copysets — the paper's sweet spot between
    #: data-loss probability and recovery scatter width.
    n_permutations = 2

    def node_picks(self, config: ClusterConfig) -> np.ndarray:
        rng = np.random.default_rng(config.pg_seed)
        n = config.n
        sets_per_perm = config.n_nodes // n
        if sets_per_perm < 1:
            raise ValueError(
                f"copyset needs at least n={n} nodes, have {config.n_nodes}")
        pool = np.concatenate([
            rng.permutation(config.n_nodes)[:sets_per_perm * n]
            .reshape(sets_per_perm, n)
            for _ in range(self.n_permutations)])
        return pool[np.arange(config.n_pgs) % len(pool)]
