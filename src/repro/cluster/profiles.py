"""Repair I/O profiles: the bridge between codes and the simulator.

A :class:`RepairProfile` condenses an erasure code's byte-exact
:class:`~repro.codes.base.RepairPlan` into what the disk and network models
need: per-helper (discontinuous I/O count, bytes) pairs plus the codec
output size.  A :class:`ProfileCache` plans each failed role once, at
chunk size ``alpha``, and derives every chunk size from that plan: every
code in :mod:`repro.codes` reads whole sub-chunks (Clay and
locally-regenerating runs, Hitchhiker halves, RS/LRC whole chunks), so a
chunk of ``m * alpha`` bytes reads the same runs, each ``m`` times as
long.  Profiles can also be scaled for the 4 MB batching the paper applies
to striped recovery (where batching coalesces *requests* but, for
regenerating codes, "the scattered disk read pattern remains unchanged").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.base import ErasureCode


@dataclass(frozen=True)
class HelperRead:
    """What one surviving node reads for a repair.

    ``span`` is the byte extent covered by the scattered pattern, letting
    the disk model price the read-through alternative.
    """

    role: int
    n_ios: int
    nbytes: int
    span: int


@dataclass(frozen=True)
class RepairProfile:
    """Aggregate I/O shape of repairing one chunk.  ``decode`` is its kind:
    MDS decode from whole chunks, not regeneration from sub-chunks."""

    failed_role: int
    chunk_size: int
    helpers: tuple[HelperRead, ...]
    output_bytes: int
    decode: bool = False

    @property
    def total_read_bytes(self) -> int:
        """Total bytes read across all helpers."""
        return sum(h.nbytes for h in self.helpers)

    @property
    def read_traffic_ratio(self) -> float:
        """Bytes read per byte repaired."""
        return self.total_read_bytes / self.chunk_size

    def scaled(self, count: int) -> "RepairProfile":
        """Profile of ``count`` chunk repairs batched into one request; a
        decode reads each helper's whole chunks in one contiguous I/O."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if count == 1:
            return self
        helpers = tuple(
            HelperRead(h.role, 1, h.nbytes * count, h.nbytes * count)
            if self.decode else
            HelperRead(h.role, h.n_ios * count, h.nbytes * count,
                       h.span * count)
            for h in self.helpers)
        return RepairProfile(self.failed_role, self.chunk_size * count,
                             helpers, self.output_bytes * count, self.decode)


class ProfileCache:
    """Builds and memoises repair profiles for one erasure code."""

    def __init__(self, code: ErasureCode):
        self.code = code
        # The kind of every profile made here: scalar codes (RS, LRC)
        # rebuild whole chunks, vector codes regenerate from sub-chunks.
        self.decode = code.alpha == 1
        self._units: dict[int, tuple[HelperRead, ...]] = {}
        self._cache: dict[tuple[int, int], RepairProfile] = {}

    def _rounded_chunk(self, chunk_size: int) -> int:
        """Chunk sizes must be a multiple of the sub-packetization; sizes
        that are not (e.g. Stripe-Max strips) are rounded up for timing."""
        alpha = self.code.alpha
        return max(alpha, -(-chunk_size // alpha) * alpha)

    def _unit(self, failed_role: int) -> tuple[HelperRead, ...]:
        """The helper reads of repairing ``failed_role`` at chunk size
        ``alpha``, planned on first use."""
        unit = self._units.get(failed_role)
        if unit is None:
            plan = self.code.repair_plan(failed_role,
                                         self.code.alpha).coalesced()
            ios = plan.io_count_per_node()
            per_node = plan.read_bytes_per_node()
            spans = {}
            for node in per_node:
                segs = plan.segments_for_node(node)
                spans[node] = segs[-1].end - segs[0].offset
            unit = self._units[failed_role] = tuple(
                HelperRead(node, ios[node], per_node[node], spans[node])
                for node in sorted(per_node))
        return unit

    def get(self, failed_role: int, chunk_size: int,
            inv=None) -> RepairProfile:
        """Profile for (failed role, chunk size), built on first use from
        the role's ``alpha``-sized plan; byte-conservation-checked by
        ``inv``, an :class:`~repro.analysis.InvariantChecker` (or ``None``)."""
        rounded = self._rounded_chunk(chunk_size)
        key = (failed_role, rounded)
        profile = self._cache.get(key)
        if profile is None:
            m = rounded // self.code.alpha
            helpers = tuple(HelperRead(h.role, h.n_ios, h.nbytes * m,
                                       h.span * m)
                            for h in self._unit(failed_role))
            profile = self._cache[key] = RepairProfile(
                failed_role, rounded, helpers, rounded, self.decode)
        if inv is not None:
            inv.check_repair_profile(self.code, profile)
        return profile

    def batch(self, failed_role: int, sizes, inv=None) -> RepairProfile:
        """One profile repairing chunks of ``sizes`` together: each helper
        role's I/O count, bytes and span summed over the chunks' profiles
        (a striped degraded read's missing strips, rebuilt in one pass)."""
        per_role: dict[int, list[int]] = {}
        for size in sizes:
            for h in self.get(failed_role, size, inv).helpers:
                acc = per_role.setdefault(h.role, [0, 0, 0])
                acc[0] += h.n_ios
                acc[1] += h.nbytes
                acc[2] += h.span
        total = sum(sizes)
        return RepairProfile(
            failed_role, total,
            tuple(HelperRead(role, *acc) for role, acc in per_role.items()),
            total, self.decode)
