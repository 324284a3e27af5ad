"""The placement-policy protocol and shared construction helpers."""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.cluster.topology import ClusterConfig, PlacementGroup


@runtime_checkable
class PlacementPolicy(Protocol):
    """Pure, seeded PG construction.

    Implementations must be deterministic in ``config`` alone (draw all
    randomness from ``config.pg_seed``) and yield ``config.n_pgs`` groups of
    ``config.n`` disks on distinct nodes, with roles rotated per PG so that
    every disk plays all code-node indices across its PGs.
    """

    #: Registry name (what ``ClusterConfig.placement`` holds).
    name: str

    def build_pgs(self, config: ClusterConfig) -> Iterable[PlacementGroup]:
        """Yield the cluster's placement groups in PG-id order."""
        ...


def least_loaded_disk(config: ClusterConfig, node: int,
                      picks: list[int]) -> int:
    """The least-PG-loaded disk of ``node`` (lowest id on ties), with the
    pick counted into ``picks[node]`` — the per-node step every builder
    shares.

    Every pick of every policy comes through here, one PG membership at a
    time, so a node's disks gain load from nothing else.  From all-zero
    loads the least-loaded, lowest-id disk is then always the next one
    round robin: after ``c`` picks the loads differ by at most one, and
    the disks still one short are exactly ``c % disks_per_node`` and up.
    The node's pick count names the disk without scanning the node.
    """
    count = picks[node]
    picks[node] = count + 1
    return node * config.disks_per_node + count % config.disks_per_node


def rotated(disks: list[int], pg_id: int, n: int) -> tuple[int, ...]:
    """Role rotation: shift the disk order by ``pg_id % n`` so each disk
    plays every code-node index (and all four Clay repair cases) across
    its PGs."""
    rotation = pg_id % n
    return tuple(disks[rotation:] + disks[:rotation])
