"""Cluster shape: racks, nodes, disks, and placement groups (§5.1).

A placement group (PG) is a set of ``k + r`` disks on distinct nodes; the
position of a disk inside a PG is its *role* (code node index 0..n-1), and
roles are rotated across PGs so that every disk plays data and parity roles
— and, for Clay, all four Figure 2 repair cases — in equal measure.  When a
disk fails, every PG it belongs to recovers independently, recruiting the
bandwidth of many disks (the paper's reason for using PGs at all).

The paper's testbed is a single 16-node rack where "the network is not the
bottleneck for recovery" (Table 3).  At fleet scale the aggregation layer
is, so the cluster shape optionally carries a rack/switch hierarchy:
``n_racks`` racks of ``nodes_per_rack`` nodes behind per-rack ToR uplinks
and a shared, possibly oversubscribed aggregation link (see
:class:`~repro.cluster.network.Fabric`).  The default — one rack — keeps
the fabric degenerate and every simulated number bit-identical to the flat
model.

*Which* disks form a PG is delegated to a pluggable
:mod:`repro.cluster.placement` policy named by ``ClusterConfig.placement``;
the default ``flat_random`` policy reproduces the historical randomised
builder byte-for-byte.  :class:`Cluster` wraps the placement's disk
array into :class:`PlacementGroup` objects for RCStor; the fleet
durability engine reads the array itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.disk import HDD, DiskModel

#: 1 Gbit/s in bytes/second (network gigabits); mirrors
#: :data:`repro.cluster.network.GBPS` without importing the network layer.
_GBPS = 125 * (1 << 20)


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the testbed (defaults: the paper's W1 rig)."""

    n_nodes: int = 16
    disks_per_node: int = 6
    disk_model: DiskModel = HDD
    k: int = 10
    r: int = 4
    n_pgs: int = 768
    pg_seed: int = 1
    client_gbps: float = 1.0
    #: Foreground (busy-system) load shape: per-disk read size and target
    #: disk utilization (§6.2 Methodology; set per workload).
    foreground_read_bytes: int = 32 * (1 << 20)
    foreground_utilization: float = 0.5
    #: Per-node NIC goodput (56 Gbps IPoIB in the paper's testbed ~ 6.5
    #: GB/s); lower it to study network-bound repair (the ECPipe regime).
    nic_bandwidth: float = 50 * 125 * (1 << 20)
    #: Rack/switch hierarchy.  ``n_racks == 1`` (the default) is the
    #: paper's flat single-rack fabric: transfers charge only the
    #: destination NIC and the ToR/aggregation knobs are inert.  With more
    #: racks, cross-rack transfers serialise through per-rack ToR uplinks
    #: (``tor_gbps``) and a shared aggregation link whose bandwidth is
    #: derived from the oversubscription ratio (total ToR uplink capacity
    #: / aggregation capacity).
    n_racks: int = 1
    nodes_per_rack: int = 0  # 0 = derived: ceil(n_nodes / n_racks)
    tor_gbps: float = 40.0
    oversubscription: float = 1.0
    #: Placement-policy name (see :mod:`repro.cluster.placement`).
    placement: str = "flat_random"

    def __post_init__(self):
        if self.n_nodes < self.k + self.r:
            raise ValueError(
                f"need at least k+r={self.k + self.r} nodes, have {self.n_nodes}")
        if self.disks_per_node < 1 or self.n_pgs < 1:
            raise ValueError("invalid cluster shape")
        if self.n_racks < 1:
            raise ValueError(f"n_racks {self.n_racks} must be >= 1")
        if self.nodes_per_rack < 0:
            raise ValueError("nodes_per_rack must be >= 0 (0 = derived)")
        if self.n_racks * self.rack_size < self.n_nodes:
            raise ValueError(
                f"{self.n_racks} racks of {self.rack_size} nodes cannot "
                f"hold {self.n_nodes} nodes")
        if self.n_racks > 1:
            if self.tor_gbps <= 0:
                raise ValueError("hierarchical fabric needs tor_gbps > 0")
            if self.oversubscription < 1.0:
                raise ValueError(
                    f"oversubscription {self.oversubscription} must be >= 1 "
                    "(1 = non-blocking)")

    @property
    def n(self) -> int:
        """Total nodes/disks in the stripe (k + r)."""
        return self.k + self.r

    @property
    def n_disks(self) -> int:
        """Total disk count in the cluster."""
        return self.n_nodes * self.disks_per_node

    def node_of(self, disk_id: int) -> int:
        """Node index hosting a global disk id."""
        return disk_id // self.disks_per_node

    # ------------------------------------------------------------------
    # Rack hierarchy
    # ------------------------------------------------------------------
    @property
    def rack_size(self) -> int:
        """Nodes per rack (explicit, or derived to cover all nodes)."""
        if self.nodes_per_rack:
            return self.nodes_per_rack
        return -(-self.n_nodes // self.n_racks)

    def rack_of(self, node: int) -> int:
        """Rack index hosting a node (alongside :meth:`node_of`)."""
        return node // self.rack_size

    def nodes_in_rack(self, rack: int) -> range:
        """Node indices physically in ``rack`` (the last rack may be short)."""
        first = rack * self.rack_size
        return range(first, min(first + self.rack_size, self.n_nodes))

    @property
    def tor_bandwidth(self) -> float:
        """ToR uplink bandwidth in bytes/second."""
        return self.tor_gbps * _GBPS

    @property
    def agg_bandwidth(self) -> float:
        """Aggregation-link bandwidth in bytes/second, sized so that
        ``total ToR uplink capacity / agg capacity == oversubscription``."""
        return self.n_racks * self.tor_bandwidth / self.oversubscription


@dataclass(frozen=True)
class PlacementGroup:
    """An ordered set of disks; index in ``disk_ids`` is the code role."""

    pg_id: int
    disk_ids: tuple[int, ...]

    def __post_init__(self):
        # role_of / __contains__ sit on the repair hot path (every task,
        # every fault re-check); a tuple.index scan there is O(n) per call.
        object.__setattr__(
            self, "_role_by_disk",
            {disk: role for role, disk in enumerate(self.disk_ids)})

    def role_of(self, disk_id: int) -> int:
        """Code-node index (role) of a disk within this PG."""
        try:
            return self._role_by_disk[disk_id]
        except KeyError:
            raise ValueError(
                f"disk {disk_id} is not a member of PG {self.pg_id}") from None

    def __contains__(self, disk_id: int) -> bool:
        return disk_id in self._role_by_disk


@dataclass
class Cluster:
    """The static cluster: config plus the PG map."""

    config: ClusterConfig
    pgs: list[PlacementGroup] = field(init=False)

    def __post_init__(self):
        # Deferred import: the placement package consumes this
        # module's ClusterConfig type.
        from repro.cluster.placement import pg_disks

        self.pgs = [PlacementGroup(p, tuple(disks)) for p, disks
                    in enumerate(pg_disks(self.config).tolist())]
        self._pgs_of_disk: dict[int, list[PlacementGroup]] = {}
        for pg in self.pgs:
            for disk in pg.disk_ids:
                self._pgs_of_disk.setdefault(disk, []).append(pg)

    def pgs_of_disk(self, disk_id: int) -> list[PlacementGroup]:
        """All placement groups a disk belongs to."""
        return self._pgs_of_disk.get(disk_id, [])

    def rack_span(self, pg: PlacementGroup) -> int:
        """Number of distinct racks a PG's disks touch."""
        config = self.config
        return len({config.rack_of(config.node_of(d)) for d in pg.disk_ids})
