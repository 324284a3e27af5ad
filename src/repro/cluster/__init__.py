"""RCStor, the paper's object store, as a calibrated cluster simulation.

Composition::

    config  = ClusterConfig(...)          # nodes, disks, PGs, k+r
    layout  = GeometricLayout(4*MB, 2)    # or Contiguous / Stripe / ...
    code    = ClayCode(10, 4)             # or RS / LRC / Hitchhiker
    system  = RCStor(config, layout, code)
    system.ingest(sizes)
    system.run_recovery(failed_disk)
    system.measure_degraded_reads(...)
"""

from repro.cluster.catalog import Catalog, StoredObject
from repro.cluster.codec import DEFAULT_CODEC, CodecModel
from repro.cluster.disk import BACKGROUND, FOREGROUND, HDD, SSD, Disk, DiskModel
from repro.cluster.foreground import start_foreground_load
from repro.cluster.ingestion import measure_puts, run_batch_export
from repro.cluster.metadata import IndexRecord, PGIndex, build_indexes
from repro.cluster.network import GBPS, Fabric, Link, Nic, client_link
from repro.cluster.placement import (
    PlacementPolicy,
    get_policy,
    policy_names,
    register_policy,
)
from repro.cluster.profiles import HelperRead, ProfileCache, RepairProfile
from repro.cluster.rcstor import DegradedReadResult, RCStor, RecoveryReport
from repro.cluster.topology import Cluster, ClusterConfig, PlacementGroup

__all__ = [
    "Catalog",
    "StoredObject",
    "DEFAULT_CODEC",
    "CodecModel",
    "BACKGROUND",
    "FOREGROUND",
    "HDD",
    "SSD",
    "Disk",
    "DiskModel",
    "start_foreground_load",
    "measure_puts",
    "run_batch_export",
    "IndexRecord",
    "PGIndex",
    "build_indexes",
    "GBPS",
    "Fabric",
    "Link",
    "Nic",
    "client_link",
    "PlacementPolicy",
    "get_policy",
    "policy_names",
    "register_policy",
    "HelperRead",
    "ProfileCache",
    "RepairProfile",
    "DegradedReadResult",
    "RCStor",
    "RecoveryReport",
    "Cluster",
    "ClusterConfig",
    "PlacementGroup",
]
