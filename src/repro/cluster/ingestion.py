"""The put path (§5.1): replicated staging + batch export to erasure coding.

RCStor, like Facebook F4, never erasure-codes on the write path: a put is
acknowledged once the object is triple-replicated, and background processes
later *export* staged objects in batch — partitioning, encoding whole
buckets, writing the chunks, and dropping the replicas.  Batching is what
"avoid[s] the costly overhead of parity updating": parities are computed
once per bucket instead of read-modify-written per object.

Two measurement entry points:

* :func:`measure_puts` — client-perceived put latency (transfer + 3
  replica writes, pipelined),
* :func:`run_batch_export` — background export throughput and its I/O
  amplification, optionally compared against per-object parity updates
  (:func:`parity_update_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.disk import BACKGROUND, FOREGROUND
from repro.cluster.foreground import start_foreground_load
from repro.cluster.network import client_link
from repro.cluster.rcstor import REPAIR_RPC_OVERHEAD, RCStor, _Runtime

MB = 1 << 20

#: Staging replication factor (triple replication, as in F4/Haystack).
REPLICATION = 3


@dataclass
class PutReport:
    """Client-perceived put behaviour."""

    mean_latency: float
    p95_latency: float
    bytes_put: int
    write_amplification: float  # staged bytes written per object byte


@dataclass
class ExportReport:
    """Background batch-export behaviour."""

    makespan: float
    exported_bytes: int
    read_bytes: int
    written_bytes: int
    export_rate: float          # object bytes exported per second

    @property
    def io_amplification(self) -> float:
        """Disk bytes moved per exported object byte."""
        return (self.read_bytes + self.written_bytes) / self.exported_bytes


def _staging_disks(system: RCStor, object_id: int) -> list[int]:
    """Three disks on distinct nodes for the replicas (round-robin)."""
    config = system.config
    disks = []
    for replica in range(REPLICATION):
        node = (object_id + replica * 5) % config.n_nodes
        disk_in_node = object_id % config.disks_per_node
        disks.append(node * config.disks_per_node + disk_in_node)
    return disks


def measure_puts(system: RCStor, sizes, busy: bool = False,
                 seed: int = 0) -> PutReport:
    """Simulate sequential puts: client upload pipelined into 3 replica
    writes on distinct nodes; ack when the last replica is durable."""
    rt = _Runtime(system.config, seed, system.obs,
                  label=f"{system.name}/puts")
    if busy:
        start_foreground_load(
            rt.env, rt.disks, rt.rng,
            utilization=system.config.foreground_utilization,
            mean_read_bytes=system.config.foreground_read_bytes,
            invariants=rt.invariants)
    latencies: list[float] = []
    sizes = [int(s) for s in sizes]

    def one_put(object_id: int, size: int):
        client = rt.client(system.config.client_gbps)
        upload = rt.env.process(client.transfer(size))
        # Replica writes start as soon as bytes begin arriving (streamed);
        # they cannot finish before the upload does.
        writes = [rt.env.process(rt.disks[d].write(1, size, FOREGROUND))
                  for d in _staging_disks(system, object_id)]
        yield rt.env.all_of([upload] + writes)
        yield rt.env.timeout(REPAIR_RPC_OVERHEAD)

    def driver():
        if busy:
            yield rt.env.timeout(1.0)
        for object_id, size in enumerate(sizes):
            t0 = rt.env.now
            yield rt.env.process(one_put(object_id, size))
            latencies.append(rt.env.now - t0)
            rt.span("put", "puts", t0, rt.env.now, size=size)

    rt.env.run(rt.env.process(driver()))
    rt.finalize()
    return PutReport(
        mean_latency=float(np.mean(latencies)),
        p95_latency=float(np.percentile(latencies, 95)),
        bytes_put=sum(sizes),
        write_amplification=float(REPLICATION),
    )


def run_batch_export(system: RCStor, sizes, concurrency: int = 64,
                     seed: int = 0) -> ExportReport:
    """Simulate the background export of staged objects into buckets.

    Per object: read one replica, gather to the exporting server, encode
    (parities amortised: ``r/k`` extra bytes per data byte), write the
    partitioned chunks to the destination disk and the parity share to the
    parity disks — all at background priority.
    """
    rt = _Runtime(system.config, seed, system.obs,
                  label=f"{system.name}/batch-export")
    env = rt.env
    config = system.config
    sizes = [int(s) for s in sizes]
    parity_factor = config.r / config.k
    stats = {"read": 0, "written": 0}
    gate = {"in_flight": 0, "wake": env.event()}

    def export_one(object_id: int, size: int):
        source = rt.disks[_staging_disks(system, object_id)[0]]
        yield env.process(source.read(1, size, BACKGROUND))
        stats["read"] += size
        server = object_id % config.n_nodes
        # Route through the fabric: the staged replica lives on another
        # node, so on a tiered cluster the export haul can cross racks.
        source_node = config.node_of(source.disk_id)
        yield env.process(rt.fabric.transfer(size, server,
                                             src_node=source_node))
        yield env.timeout(system.codec.encode_time(size))
        placement = system.layout.place(size)
        n_ios = max(1, placement.n_chunks)
        dest = rt.disks[(object_id * 7) % config.n_disks]
        yield env.process(dest.write(n_ios, size, BACKGROUND))
        parity_bytes = int(size * parity_factor)
        parity_disk = rt.disks[(object_id * 7 + 3) % config.n_disks]
        yield env.process(parity_disk.write(max(1, n_ios), parity_bytes,
                                            BACKGROUND))
        stats["written"] += size + parity_bytes

    def wrapper(object_id: int, size: int):
        yield env.process(export_one(object_id, size))
        gate["in_flight"] -= 1
        old, gate["wake"] = gate["wake"], env.event()
        old.succeed()

    def driver():
        for object_id, size in enumerate(sizes):
            while gate["in_flight"] >= concurrency:
                yield gate["wake"]
            gate["in_flight"] += 1
            env.process(wrapper(object_id, size))
            yield env.timeout(0)
        while gate["in_flight"] > 0:
            yield gate["wake"]

    start = env.now
    env.run(env.process(driver()))
    makespan = env.now - start
    rt.finalize()
    exported = sum(sizes)
    return ExportReport(
        makespan=makespan,
        exported_bytes=exported,
        read_bytes=stats["read"],
        written_bytes=stats["written"],
        export_rate=exported / makespan if makespan else 0.0,
    )


def parity_update_cost(object_size: int, k: int = 10, r: int = 4) -> dict:
    """Bytes moved to add one object with *in-place parity updates* versus
    batch export — the overhead the staging design avoids (§5.1).

    An in-place update of a coded stripe must read the old parities, and
    write data plus new parities.  Batch export writes data and parities
    once, with parities amortised across the whole bucket.
    """
    per_object_parity = object_size * r / k
    return {
        "update_in_place": {
            "read": per_object_parity,              # old parities
            "write": object_size + per_object_parity,
        },
        "batch_export": {
            "read": 0.0,
            "write": object_size + per_object_parity,
        },
        "saving_bytes": per_object_parity,
    }
