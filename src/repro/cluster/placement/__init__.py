"""Pluggable placement policies: which disks form each placement group.

A policy is pure, seeded construction — it turns a
:class:`~repro.cluster.topology.ClusterConfig` into each PG's nodes, one
``(n_pgs, n)`` array, and nothing else.  All randomness comes from
``config.pg_seed``, so a policy's output is a bit-reproducible function of
the config (the same contract the scenario runner relies on for caching
and ``--jobs`` fan-out).  One shared step, :func:`pg_disks`, turns the
picks into disks and roles; the
:class:`~repro.cluster.topology.Cluster` RCStor runs on and the fleet
durability engine both read its array.

Three built-in policies:

``flat_random``
    The historical builder, extracted verbatim: every PG picks ``n``
    distinct nodes at random and the least-loaded disk within each.  The
    default, and byte-identical to the pre-policy ``Cluster`` output.
``rack_aware``
    Rack-fault-tolerant minimal span: each PG spreads over the fewest
    least-loaded racks that keep any single rack's share at most ``r``
    chunks (a whole-rack loss stays repairable), which also concentrates
    repair helper traffic and cuts cross-rack bytes versus ``flat_random``.
``copyset``
    Copyset placement (Cidon et al., ATC '13) adapted to wide stripes: PGs
    draw from a small pool of permutation-chopped node sets instead of
    independent random sets, trading recovery parallelism for a much lower
    probability that some r+1 simultaneous node failures share a stripe.

Register custom policies with :func:`register_policy`; name them in
``ClusterConfig.placement``.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.placement.base import PlacementPolicy
from repro.cluster.placement.copyset import CopysetPolicy
from repro.cluster.placement.flat import FlatRandomPolicy
from repro.cluster.placement.rack_aware import RackAwarePolicy
from repro.cluster.topology import ClusterConfig

__all__ = [
    "PlacementPolicy",
    "FlatRandomPolicy",
    "RackAwarePolicy",
    "CopysetPolicy",
    "POLICIES",
    "get_policy",
    "register_policy",
    "policy_names",
    "pg_disks",
]

#: Name -> policy instance.  Policies are stateless between builds, so one
#: shared instance per name is safe.
POLICIES: dict[str, PlacementPolicy] = {}


def register_policy(policy: PlacementPolicy) -> PlacementPolicy:
    """Add a policy to the registry (last registration wins)."""
    POLICIES[policy.name] = policy
    return policy


def get_policy(name: str | PlacementPolicy) -> PlacementPolicy:
    """Resolve a policy by registry name (instances pass through)."""
    if not isinstance(name, str):
        return name
    try:
        return POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(
            f"unknown placement policy {name!r} (known: {known})") from None


def policy_names() -> list[str]:
    """Registered policy names, sorted."""
    return sorted(POLICIES)


def pg_disks(config: ClusterConfig) -> np.ndarray:
    """``config``'s placement groups as one ``(n_pgs, n)`` int array: row
    ``p`` holds PG ``p``'s disk ids in role order.

    The policy picks each PG's nodes.  The ``c``-th pick of a node,
    counting PG by PG in pick order, takes the node's disk
    ``c % disks_per_node``.  No other membership loads a disk, so this
    round robin is the least-PG-loaded disk of the node, lowest id on
    ties, at every pick: after ``c`` picks the node's loads differ by at
    most one, and the disks still one short are exactly
    ``c % disks_per_node`` and up.  Row ``p`` is then rotated left by
    ``p % n``, so each disk plays every code-node index (and all four
    Clay repair cases) across its PGs.
    """
    nodes = get_policy(config.placement).node_picks(config)
    n_pgs, n = nodes.shape
    flat = nodes.ravel()
    # A stable sort keeps each node's picks in pick order, so a pick's
    # place in its node's run is the node's pick count before it.
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=config.n_nodes)
    first = np.cumsum(counts) - counts
    rank = np.empty_like(flat)
    rank[order] = np.arange(flat.size) - first[flat[order]]
    disks = flat * config.disks_per_node + rank % config.disks_per_node
    roles = (np.arange(n) + (np.arange(n_pgs) % n)[:, None]) % n
    return np.take_along_axis(disks.reshape(n_pgs, n), roles, axis=1)


register_policy(FlatRandomPolicy())
register_policy(RackAwarePolicy())
register_policy(CopysetPolicy())
