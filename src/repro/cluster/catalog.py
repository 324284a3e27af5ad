"""Object catalog and directory-server placement (§5.1).

The directory server maps each object to a placement group (hash of its ID)
and — for single-disk layouts — to the least-filled data-role disk of that
PG, then records which bucket chunks the object occupies.  The catalog is
pure bookkeeping (no simulated time): per-(PG, role) chunk-size histograms
drive recovery task generation, per-object records drive degraded reads,
and a per-disk index lists each disk failure's degraded-read candidates.
Metadata is ~40 bytes/object (§5.1), tracked for reporting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cluster.topology import Cluster
from repro.core.layouts import (
    REGENERATING_KIND,
    RS_KIND,
    ContiguousLayout,
    Layout,
    ObjectPlacement,
    StripeLayout,
)

@dataclass(frozen=True)
class StoredObject:
    """Directory record of one ingested object."""

    object_id: int
    size: int
    pg_id: int
    role: int | None  # data role of its disk; None for striped layouts


@dataclass
class Catalog:
    """All placement state produced by ingesting a workload."""

    cluster: Cluster
    layout: Layout
    objects: list[StoredObject] = field(default_factory=list)
    #: (pg_id, role) -> {stored_chunk_size: count} for regenerating buckets
    chunk_counts: dict[tuple[int, int], Counter] = field(default_factory=dict)
    #: (pg_id, role) -> bytes in the RS-coded small-size-bucket
    small_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    #: (pg_id, role) -> total data bytes (fill level, used for balancing)
    role_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    #: (pg_id, role) -> running byte offset of contiguous packing
    _contig_fill: dict[tuple[int, int], int] = field(default_factory=dict)
    #: single-disk layouts: object_id -> its (immutable) placement
    _placements: dict[int, ObjectPlacement] = field(default_factory=dict)
    #: global disk id -> objects with data on it, in object order: the
    #: degraded-read candidates of that disk's failure
    _on_disk: dict[int, list[StoredObject]] = field(default_factory=dict)
    #: cached ``isinstance(layout, ContiguousLayout)`` — the ABC instance
    #: check costs a registry walk and sits on the per-chunk ingest path
    _contiguous: bool = field(init=False, default=False)
    #: Stripe rotates each object's first strip (see :meth:`_start_role`)
    _rotates: bool = field(init=False, default=False)

    def __post_init__(self):
        self._contiguous = isinstance(self.layout, ContiguousLayout)
        self._rotates = isinstance(self.layout, StripeLayout)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, sizes) -> list[StoredObject]:
        """Place a batch of objects; returns their records."""
        new: list[StoredObject] = []
        for size in sizes:
            new.append(self._ingest_one(int(size)))
        return new

    def _ingest_one(self, size: int) -> StoredObject:
        object_id = len(self.objects)
        pg = self.cluster.pgs[object_id % len(self.cluster.pgs)]
        pg_id = pg.pg_id
        on_disk = self._on_disk
        if self.layout.spans_disks:
            obj = StoredObject(object_id, size, pg_id, None)
            # Runs are grouped per disk, so a disk repeats only as
            # consecutive runs (full strips, then the tail).
            last = None
            for role, nbytes, count in self.strip_runs(obj):
                self._account_chunk(pg_id, role, nbytes, REGENERATING_KIND,
                                    nbytes, count)
                if role != last:
                    on_disk.setdefault(pg.disk_ids[role], []).append(obj)
                    last = role
        else:
            role = min(range(self.cluster.config.k),
                       key=lambda d: self.role_bytes.get((pg_id, d), 0))
            obj = StoredObject(object_id, size, pg_id, role)
            placement = self._place_single_disk(pg_id, role, size)
            self._placements[object_id] = placement
            for chunk in placement.chunks:
                self._account_chunk(pg_id, role, chunk.stored_bytes,
                                    chunk.code_kind, chunk.data_bytes)
            on_disk.setdefault(pg.disk_ids[role], []).append(obj)
        self.objects.append(obj)
        return obj

    def _start_role(self, object_id: int) -> int:
        """The data role of a striped object's first strip: Stripe rotates
        it per object (block-group placement); Stripe-Max does not."""
        return object_id % self.cluster.config.k if self._rotates else 0

    def _place_striped(self, object_id: int, size: int,
                       failed_role: int = 0) -> ObjectPlacement:
        return self.layout.place(size, failed_disk=failed_role,
                                 start_role=self._start_role(object_id))

    def _place_single_disk(self, pg_id: int, role: int, size: int) -> ObjectPlacement:
        if self._contiguous:
            fill = self._contig_fill.get((pg_id, role), 0)
            placement = self.layout.place(size, start_offset=fill)
            self._contig_fill[(pg_id, role)] = fill + size
            return placement
        return self.layout.place(size)

    def _account_chunk(self, pg_id: int, role: int, stored: int,
                       kind: str, data: int, count: int = 1) -> None:
        """Account ``count`` equal chunks on one (PG, role)."""
        key = (pg_id, role)
        role_bytes = self.role_bytes
        role_bytes[key] = role_bytes.get(key, 0) + data * count
        if kind == RS_KIND:
            small = self.small_bytes
            small[key] = small.get(key, 0) + stored * count
        elif self._contiguous:
            # Contiguous chunks are shared between unaligned neighbours;
            # bucket occupancy is derived from the packing fill instead.
            pass
        else:
            counts = self.chunk_counts.get(key)
            if counts is None:
                counts = self.chunk_counts[key] = Counter()
            counts[stored] += count

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def placement_of(self, obj: StoredObject, failed_role: int | None = None
                     ) -> ObjectPlacement:
        """The object's placement.

        Single-disk placements are fixed at ingest; striped placements take
        the failed role so ``needs_repair`` marks the right strips.
        """
        if obj.role is not None:
            return self._placements[obj.object_id]
        return self._place_striped(obj.object_id, obj.size, failed_role or 0)

    def strip_runs(self, obj: StoredObject) -> list[tuple[int, int, int]]:
        """A striped object's ``(role, strip_bytes, count)`` runs, grouped
        per data role in the order its strips first reach each role."""
        return self.layout.strip_runs(obj.size,
                                      self._start_role(obj.object_id))

    def disk_of(self, obj: StoredObject) -> int | None:
        """Global disk ID holding a single-disk object (None for striped)."""
        if obj.role is None:
            return None
        pg = self.cluster.pgs[obj.pg_id]
        return pg.disk_ids[obj.role]

    def objects_on_disk(self, disk_id: int) -> list[StoredObject]:
        """Objects with data on ``disk_id``, in object order: the
        single-disk objects it holds, or the striped objects with a strip
        on it.  These become (partially) unavailable when it fails."""
        return list(self._on_disk.get(disk_id, ()))

    # ------------------------------------------------------------------
    # Recovery inventory
    # ------------------------------------------------------------------
    def recovery_inventory(self, disk_id: int):
        """Per PG of the failed disk: (pg, failed_role, chunk-size histogram,
        small-bucket bytes) of everything stored on that disk.

        Parity buckets mirror the stripe geometry — physically a parity
        bucket has as many rows as the fullest data bucket of its PG/level.
        At production object counts (hundreds per PG) the fullest bucket is
        within a row or two of the mean, so we estimate parity rows by the
        mean data-role occupancy; this keeps scaled-down experiments free of
        small-sample max-inflation.
        """
        out = []
        k = self.cluster.config.k
        for pg in self.cluster.pgs_of_disk(disk_id):
            role = pg.role_of(disk_id)
            if role < k:
                chunks = self._data_chunks(pg.pg_id, role)
                small = self.small_bytes.get((pg.pg_id, role), 0)
            else:
                totals: Counter = Counter()
                for data_role in range(k):
                    totals.update(self._data_chunks(pg.pg_id, data_role))
                # Unbiased rounding of total/k: the fractional part becomes
                # one extra chunk in a pg-dependent share of PGs, so summed
                # over a disk's many PGs the byte count is right.
                chunks = Counter()
                for size, count in totals.items():
                    base, rem = divmod(count, k)
                    if rem and (pg.pg_id % k) < rem:
                        base += 1
                    if base:
                        chunks[size] = base
                small_total = sum(self.small_bytes.get((pg.pg_id, d), 0)
                                  for d in range(k))
                small = small_total // k
            out.append((pg, role, chunks, small))
        return out

    def _data_chunks(self, pg_id: int, role: int) -> Counter:
        """Chunk-size histogram of one data role's regenerating buckets."""
        if self._contiguous:
            fill = self._contig_fill.get((pg_id, role), 0)
            chunk = self.layout.chunk_size
            return Counter({chunk: -(-fill // chunk)}) if fill else Counter()
        return Counter(self.chunk_counts.get((pg_id, role), Counter()))

    # ------------------------------------------------------------------
    # Stats (§6.3 breakdowns)
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Sum of the ingested object sizes."""
        return sum(o.size for o in self.objects)

    @property
    def small_bucket_bytes(self) -> int:
        """Bytes stored in RS-coded small-size-buckets."""
        return sum(self.small_bytes.values())

    @property
    def small_bucket_share(self) -> float:
        """Fraction of capacity held by small-size-buckets."""
        total = self.total_bytes
        return self.small_bucket_bytes / total if total else 0.0

    @property
    def average_chunk_size(self) -> float:
        """Mean regenerating-code chunk size (bytes)."""
        total = n = 0
        for counter in self.chunk_counts.values():
            for size, count in counter.items():
                total += size * count
                n += count
        return total / n if n else 0.0
