"""``rack_aware``: rack-fault-tolerant stripes with minimal rack span.

Two constraints pull against each other across racks.  Durability wants a
stripe *spread*: no rack may hold more than ``r`` of its chunks, or a
whole-rack outage makes the stripe unrecoverable.  Repair wants a stripe
*packed*: every helper chunk outside the repairing server's rack crosses
the ToR uplinks and the oversubscribed aggregation link (Rashmi et al.'s
Facebook measurement — cross-rack repair traffic is the binding constraint
at fleet scale).

This policy takes the durability constraint as a hard cap and then
minimises span: each PG occupies the fewest racks that keep any one rack's
share at most ``min(r, rack capacity)`` chunks, choosing the least-loaded
racks (and least-loaded nodes within them) so load still spreads cluster-
wide.  Versus ``flat_random`` — which scatters a 14-wide stripe over
nearly every rack — this cuts the cross-rack share of repair helper bytes
while *adding* a guarantee flat placement lacks: a rack loss never exceeds
the code's erasure budget.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import ClusterConfig


class RackAwarePolicy:
    """Fewest-racks placement under a per-rack chunk cap of ``r``."""

    name = "rack_aware"

    def node_picks(self, config: ClusterConfig) -> np.ndarray:
        rng = np.random.default_rng(config.pg_seed)
        n = config.n
        picks = np.empty((config.n_pgs, n), dtype=np.int64)
        # Chunks placed per node: it orders a rack's nodes below.
        node_load = [0] * config.n_nodes
        rack_load = [0] * config.n_racks
        rack_nodes = [list(config.nodes_in_rack(r))
                      for r in range(config.n_racks)]
        # Per-rack chunk cap: the erasure budget, bounded by how many
        # distinct nodes the rack physically offers.  When the cluster is
        # too small to honour r (cap * n_racks < n), relax to an even
        # spread — the best any policy can do.
        cap = max(min(config.r, config.rack_size), -(-n // config.n_racks))
        for p in range(config.n_pgs):
            # Least-loaded racks first; ties broken by a per-PG random
            # permutation so equal-load racks are not always drained in
            # index order.
            # (load, tiebreak) pairs are distinct, a tiebreak being a
            # permutation, so these sorts never compare the third field.
            tiebreak = rng.permutation(config.n_racks).tolist()
            order = [r for _, _, r in sorted(
                zip(rack_load, tiebreak, range(config.n_racks)))]
            picked: list[int] = []
            remaining = n
            for rack in order:
                if remaining <= 0:
                    break
                nodes = rack_nodes[rack]
                take = min(cap, len(nodes), remaining)
                if take <= 0:
                    continue
                node_tiebreak = rng.permutation(len(nodes)).tolist()
                chosen = sorted(zip([node_load[x] for x in nodes],
                                    node_tiebreak, nodes))[:take]
                for _, _, node in chosen:
                    picked.append(node)
                    node_load[node] += 1
                rack_load[rack] += take
                remaining -= take
            if remaining > 0:
                raise ValueError(
                    f"rack_aware cannot place a {n}-wide stripe on "
                    f"{config.n_nodes} nodes across {config.n_racks} racks")
            picks[p] = picked
        return picks
