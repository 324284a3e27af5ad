"""Data layouts compared by the paper (§3.2, §4, Table 5).

A :class:`Layout` maps an object to :class:`ObjectPlacement` — the ordered
list of :class:`PlacedChunk` the degraded-read pipeline walks, plus where
each chunk lives relative to the object's disks:

* **Geometric** (the paper's contribution): front cut to an RS-coded
  small-size-bucket, then chunks of geometrically growing size, all on one
  disk.
* **Contiguous** (Facebook f4 style): objects packed unaligned into a fixed
  chunk grid; degraded reads repair every *touched* chunk (read
  amplification).
* **Stripe** (HDFS-3/QFS style): object split into fixed strips round-robin
  over ``k`` disks; a failure leaves 1/k of strips to repair, with repair
  granularity equal to the strip size.
* **Stripe-Max**: one strip per disk of size ``object/k`` — the largest
  chunk size stripe admits without read amplification.

``stored_bytes`` is each chunk's repair granularity: the bytes that must be
regenerated to produce the chunk, which exceeds ``data_bytes`` exactly when
the layout suffers read amplification.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.partitioning import GeometricPartitioner

RS_KIND = "rs"
REGENERATING_KIND = "regenerating"


class PlacedChunk:
    """One unit of degraded-read pipelining.

    A plain slotted class rather than a frozen dataclass: placements are
    recomputed per degraded read, so hundreds of thousands of chunks are
    built per experiment and the frozen-dataclass ``object.__setattr__``
    per field dominates layout time.  Treat instances as immutable.
    """

    __slots__ = ("data_bytes", "stored_bytes", "code_kind", "level",
                 "disk_index", "needs_repair")

    def __init__(self, data_bytes: int, stored_bytes: int,
                 code_kind: str = REGENERATING_KIND,
                 level: int | None = None, disk_index: int = 0,
                 needs_repair: bool = True):
        if data_bytes <= 0 or stored_bytes < data_bytes:
            raise ValueError(
                f"need 0 < data_bytes <= stored_bytes, got {data_bytes}/{stored_bytes}")
        if code_kind is not REGENERATING_KIND \
                and code_kind not in (RS_KIND, REGENERATING_KIND):
            raise ValueError(f"unknown code kind {code_kind}")
        self.data_bytes = data_bytes
        self.stored_bytes = stored_bytes
        self.code_kind = code_kind
        self.level = level
        self.disk_index = disk_index
        self.needs_repair = needs_repair

    def __repr__(self) -> str:
        return (f"PlacedChunk(data_bytes={self.data_bytes}, "
                f"stored_bytes={self.stored_bytes}, "
                f"code_kind={self.code_kind!r}, level={self.level}, "
                f"disk_index={self.disk_index}, "
                f"needs_repair={self.needs_repair})")


@dataclass(slots=True)
class ObjectPlacement:
    """How one object is cut up and spread over its disk(s)."""

    layout_name: str
    object_size: int
    chunks: list[PlacedChunk]

    def __post_init__(self):
        total = sum(c.data_bytes for c in self.chunks)
        if total != self.object_size:
            raise ValueError(
                f"chunks carry {total} bytes, object is {self.object_size}")

    @property
    def repaired_bytes(self) -> int:
        """Bytes regenerated during a full degraded read."""
        return sum(c.stored_bytes for c in self.chunks if c.needs_repair)

    @property
    def read_amplification(self) -> float:
        """Repaired bytes per unavailable object byte (1.0 = none)."""
        unavailable = sum(c.data_bytes for c in self.chunks if c.needs_repair)
        if unavailable == 0:
            return 1.0
        return self.repaired_bytes / unavailable

    @property
    def n_chunks(self) -> int:
        """Number of chunks currently held."""
        return len(self.chunks)


class Layout(ABC):
    """Maps object sizes to placements.

    Layouts with ``spans_disks`` also take ``failed_disk`` and
    ``start_role`` in :meth:`place`, and answer :meth:`strip_runs`.
    """

    name: str = "abstract"
    spans_disks: bool = False

    @abstractmethod
    def place(self, object_size: int) -> ObjectPlacement:
        """Placement of a single object (deterministic)."""


class GeometricLayout(Layout):
    """Geometric Partitioning: front cut + geometric chunks on one disk.

    ``front_cut=False`` is the §4.1 ablation: the front is *padded* into a
    regenerating-code chunk of size s0 instead of going to an RS-coded
    small-size-bucket, reintroducing read amplification on the front.
    """

    spans_disks = False

    def __init__(self, s0: int, q: int = 2, max_chunk_size: int | None = None,
                 front_cut: bool = True):
        self.partitioner = GeometricPartitioner(s0, q, max_chunk_size)
        self.front_cut = front_cut
        self.name = f"Geo-{_fmt_size(s0)}" if q == 2 else f"Geo-{_fmt_size(s0)}-q{q}"
        if not front_cut:
            self.name += "-nocut"

    @property
    def s0(self) -> int:
        """The smallest (initial) chunk size."""
        return self.partitioner.s0

    @property
    def q(self) -> int:
        """The geometric common ratio."""
        return self.partitioner.q

    def place(self, object_size: int) -> ObjectPlacement:
        part = self.partitioner.partition(object_size)
        chunks: list[PlacedChunk] = []
        if part.front:
            if self.front_cut:
                chunks.append(PlacedChunk(part.front, part.front, RS_KIND))
            else:
                # Ablation: pad the front into a full s0 chunk.
                chunks.append(PlacedChunk(part.front, self.partitioner.s0,
                                          REGENERATING_KIND, level=1))
        for spec in part.chunks():
            chunks.append(PlacedChunk(spec.size, spec.size, REGENERATING_KIND,
                                      level=spec.level))
        return ObjectPlacement(self.name, object_size, chunks)


class ContiguousLayout(Layout):
    """Unaligned packing into a fixed chunk grid (read amplification)."""

    spans_disks = False

    def __init__(self, chunk_size: int):
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        self.chunk_size = chunk_size
        self.name = f"Con-{_fmt_size(chunk_size)}"

    def place(self, object_size: int, start_offset: int = 0) -> ObjectPlacement:
        """``start_offset`` is the object's packing offset within the grid;
        objects are packed back-to-back, so offsets are arbitrary."""
        if object_size <= 0:
            raise ValueError("object size must be positive")
        chunks: list[PlacedChunk] = []
        pos = start_offset % self.chunk_size
        remaining = object_size
        while remaining > 0:
            in_chunk = min(self.chunk_size - pos, remaining)
            chunks.append(PlacedChunk(in_chunk, self.chunk_size, REGENERATING_KIND))
            remaining -= in_chunk
            pos = 0
        return ObjectPlacement(self.name, object_size, chunks)


class StripeLayout(Layout):
    """Fixed-strip striping across the k data disks."""

    spans_disks = True

    def __init__(self, strip_size: int, k: int = 10):
        if strip_size <= 0 or k <= 0:
            raise ValueError("invalid stripe parameters")
        self.strip_size = strip_size
        self.k = k
        self.name = f"Stripe-{_fmt_size(strip_size)}"

    def place(self, object_size: int, failed_disk: int = 0,
              start_role: int = 0) -> ObjectPlacement:
        """``failed_disk`` selects which of the k round-robin positions is
        unavailable (only those strips need repair in a degraded read).
        ``start_role`` rotates the first strip's disk, as block-group
        placement does in real striped stores — without it, sub-strip-count
        objects would pile onto the first few disks."""
        if object_size <= 0:
            raise ValueError("object size must be positive")
        chunks: list[PlacedChunk] = []
        append = chunks.append
        strip = self.strip_size
        k = self.k
        failed = failed_disk % k
        remaining = object_size
        i = start_role
        while remaining > 0:
            size = strip if strip < remaining else remaining
            disk = i % k
            append(PlacedChunk(size, size, REGENERATING_KIND,
                               disk_index=disk,
                               needs_repair=disk == failed))
            remaining -= size
            i += 1
        return ObjectPlacement(self.name, object_size, chunks)

    def strip_runs(self, object_size: int,
                   start_role: int = 0) -> list[tuple[int, int, int]]:
        """:meth:`place`'s strips folded per disk, without building them.

        Returns ``(disk_index, strip_bytes, count)`` runs grouped per disk
        in the order :meth:`place` first reaches each disk, with a disk's
        full strips before the tail.  Accounting the runs in order thus
        inserts keys exactly as a walk over the strips would, in O(k)
        rather than O(object_size / strip_size).
        """
        if object_size <= 0:
            raise ValueError("object size must be positive")
        k = self.k
        strip = self.strip_size
        full, tail = divmod(object_size, strip)
        n = full + (1 if tail else 0)
        tail_at = (n - 1) % k if tail else -1
        runs = []
        for j in range(min(n, k)):
            disk = (start_role + j) % k
            count = (n - j + k - 1) // k  # strips j, j + k, ... below n
            if j == tail_at:
                if count > 1:
                    runs.append((disk, strip, count - 1))
                runs.append((disk, tail, 1))
            else:
                runs.append((disk, strip, count))
        return runs


class StripeMaxLayout(Layout):
    """One strip per data disk: strip size = object size / k."""

    spans_disks = True
    name = "Stripe-Max"

    def __init__(self, k: int = 10):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def place(self, object_size: int, failed_disk: int = 0,
              start_role: int = 0) -> ObjectPlacement:
        failed = failed_disk % self.k
        chunks = [PlacedChunk(size, size, REGENERATING_KIND, disk_index=disk,
                              needs_repair=disk == failed)
                  for disk, size, _ in self.strip_runs(object_size,
                                                       start_role)]
        return ObjectPlacement(self.name, object_size, chunks)

    def strip_runs(self, object_size: int,
                   start_role: int = 0) -> list[tuple[int, int, int]]:
        """One ``(disk_index, strip_bytes, 1)`` run per non-empty strip, in
        disk order from ``start_role``; the first ``object_size % k``
        strips carry one extra byte."""
        if object_size <= 0:
            raise ValueError("object size must be positive")
        k = self.k
        base, extra = divmod(object_size, k)
        return [((start_role + j) % k, base + 1 if j < extra else base, 1)
                for j in range(k if base else extra)]


def _fmt_size(n: int) -> str:
    """4194304 -> '4M', 131072 -> '128K' (paper's scheme labels)."""
    for unit, label in ((1 << 30, "G"), (1 << 20, "M"), (1 << 10, "K")):
        if n >= unit and n % unit == 0:
            return f"{n // unit}{label}"
        if n >= unit:
            return f"{n / unit:.1f}{label}"
    return str(n)
