"""Erasure-code abstractions shared by all codes in :mod:`repro.codes`.

Terminology (matching the paper):

* A *stripe* is one unit of encoding: ``n = k + r`` *chunks*, one per node,
  each ``chunk_size`` bytes.  Nodes ``0..k-1`` hold data, ``k..n-1`` parity.
* Vector codes (Clay, Hitchhiker) divide each chunk into ``alpha``
  *sub-chunks*; scalar codes have ``alpha == 1``.
* A :class:`RepairPlan` names exactly which byte ranges a repair must read
  from which surviving nodes.  The storage simulator consumes plans (it never
  moves real bytes); the codecs also honour them, and the test-suite verifies
  that repairs succeed when given *only* the planned bytes.  Simulated time
  charges codec work at the paper's published rates
  (:mod:`repro.cluster.codec`), so only tests, benchmarks and examples
  run the byte-level encode/decode paths here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.gf.matrix import mat_rank
from repro.gf.solve import GFLinearSystem


class DecodeError(ValueError):
    """Raised when an erasure pattern is not decodable by this code."""


@dataclass(frozen=True, order=True)
class ReadSegment:
    """A contiguous byte range to read from one node's chunk."""

    node: int
    offset: int
    length: int

    def __post_init__(self):
        if self.length <= 0 or self.offset < 0 or self.node < 0:
            raise ValueError(f"invalid segment {self}")

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass
class RepairPlan:
    """The exact I/O needed to repair ``failed`` nodes of one stripe.

    ``segments`` is the complete list of reads; the plan exposes the derived
    quantities the paper reasons about: total read traffic, per-node traffic,
    and per-node I/O (seek) counts after coalescing adjacent ranges.
    """

    failed: tuple[int, ...]
    chunk_size: int
    segments: list[ReadSegment] = field(default_factory=list)

    def __post_init__(self):
        for seg in self.segments:
            if seg.node in self.failed:
                raise ValueError(f"plan reads from failed node {seg.node}")
            if seg.end > self.chunk_size:
                raise ValueError(f"segment {seg} exceeds chunk size {self.chunk_size}")

    @property
    def helper_nodes(self) -> list[int]:
        """Sorted helper node indices."""
        return sorted({s.node for s in self.segments})

    @property
    def total_read_bytes(self) -> int:
        """Total bytes read across all helpers."""
        return sum(s.length for s in self.segments)

    def read_bytes_per_node(self) -> dict[int, int]:
        """Bytes read per helper node."""
        out: dict[int, int] = {}
        for s in self.segments:
            out[s.node] = out.get(s.node, 0) + s.length
        return out

    def segments_for_node(self, node: int) -> list[ReadSegment]:
        """This node's read segments, in offset order."""
        return sorted(s for s in self.segments if s.node == node)

    def coalesced(self) -> "RepairPlan":
        """Merge adjacent/overlapping ranges per node (what a disk sees)."""
        merged: list[ReadSegment] = []
        for node in self.helper_nodes:
            run_start = run_end = None
            for seg in self.segments_for_node(node):
                if run_start is None:
                    run_start, run_end = seg.offset, seg.end
                elif seg.offset <= run_end:
                    run_end = max(run_end, seg.end)
                else:
                    merged.append(ReadSegment(node, run_start, run_end - run_start))
                    run_start, run_end = seg.offset, seg.end
            if run_start is not None:
                merged.append(ReadSegment(node, run_start, run_end - run_start))
        return RepairPlan(self.failed, self.chunk_size, merged)

    def io_count_per_node(self) -> dict[int, int]:
        """Discontinuous reads per node (fragmentation metric, Fig. 2)."""
        out: dict[int, int] = {}
        for s in self.coalesced().segments:
            out[s.node] = out.get(s.node, 0) + 1
        return out

    def read_traffic_ratio(self) -> float:
        """Bytes read divided by bytes repaired (Table 1's `Read traffic`)."""
        return self.total_read_bytes / (len(self.failed) * self.chunk_size)


def extract_reads(plan: RepairPlan, chunks: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Slice full chunks down to exactly the bytes a plan requests.

    Returns, per helper node, the concatenation of its planned segments in
    offset order — the wire format accepted by ``ErasureCode.repair``.
    """
    out: dict[int, np.ndarray] = {}
    for node in plan.helper_nodes:
        parts = [chunks[node][s.offset:s.end] for s in plan.segments_for_node(node)]
        out[node] = np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
    return out


class ErasureCode(ABC):
    """Common interface of RS / LRC / Hitchhiker / Clay codes.

    All byte buffers are 1-D ``numpy.uint8`` arrays of length ``chunk_size``;
    ``chunk_size`` must be a multiple of :attr:`alpha`.
    """

    #: number of data nodes
    k: int
    #: number of parity nodes
    r: int
    #: sub-packetization level (1 for scalar codes)
    alpha: int = 1

    @property
    def n(self) -> int:
        """Total nodes/disks in the stripe (k + r)."""
        return self.k + self.r

    @property
    def storage_overhead(self) -> float:
        """Raw bytes stored per data byte (1.4 for all (10,4)-style codes)."""
        return self.n / self.k

    @property
    @abstractmethod
    def is_mds(self) -> bool:
        """Whether any r-subset of node failures is tolerated."""

    @property
    def name(self) -> str:
        return f"{type(self).__name__}({self.k},{self.r})"

    def _check_chunk(self, chunk: np.ndarray, chunk_size: int) -> None:
        if chunk.dtype != np.uint8 or chunk.ndim != 1 or chunk.shape[0] != chunk_size:
            raise ValueError(
                f"chunks must be 1-D uint8 arrays of {chunk_size} bytes, "
                f"got {chunk.dtype} shape {chunk.shape}")

    def _check_chunk_size(self, chunk_size: int) -> None:
        if chunk_size <= 0 or chunk_size % self.alpha:
            raise ValueError(
                f"chunk_size {chunk_size} must be a positive multiple of alpha={self.alpha}")

    @abstractmethod
    def encode(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute the ``r`` parity chunks from ``k`` data chunks."""

    @abstractmethod
    def decode(self, available: Mapping[int, np.ndarray], erased: Sequence[int],
               chunk_size: int) -> dict[int, np.ndarray]:
        """Recover the chunks of ``erased`` nodes from available chunks."""

    @abstractmethod
    def repair_plan(self, failed: int, chunk_size: int) -> RepairPlan:
        """The byte ranges needed to repair a single failed node."""

    @abstractmethod
    def repair(self, failed: int, reads: Mapping[int, np.ndarray],
               chunk_size: int) -> np.ndarray:
        """Repair ``failed`` from exactly the bytes named by its plan.

        ``reads[node]`` is the concatenation (in offset order) of the planned
        segments of that node, as produced by :func:`extract_reads`.
        """

    # ------------------------------------------------------------------
    # Derived metrics (Table 1)
    # ------------------------------------------------------------------
    def repair_read_ratio(self, failed: int, chunk_size: int | None = None) -> float:
        size = chunk_size if chunk_size is not None else self.alpha
        return self.repair_plan(failed, size).read_traffic_ratio()

    def average_repair_read_ratio(self, chunk_size: int | None = None) -> float:
        """Mean single-failure read-traffic ratio over all n nodes."""
        return float(np.mean([self.repair_read_ratio(i, chunk_size) for i in range(self.n)]))

    def encode_stripe(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """All ``n`` chunks of the stripe (systematic: data first)."""
        return list(data_chunks) + self.encode(data_chunks)


class ScalarLinearCode(ErasureCode):
    """A linear code defined by a systematic ``n x k`` generator matrix.

    Provides generic encode/decode; subclasses supply the matrix and repair
    strategy.  Decoding solves the subsystem of available rows and raises
    :class:`DecodeError` when the pattern is unrecoverable (possible for
    non-MDS codes such as LRC).
    """

    def __init__(self, generator: np.ndarray, k: int, r: int):
        if generator.shape != (k + r, k):
            raise ValueError(f"generator must be {(k + r, k)}, got {generator.shape}")
        if not np.array_equal(generator[:k], np.eye(k, dtype=np.uint8)):
            raise ValueError("generator must be systematic ([I; P])")
        self.generator = generator.astype(np.uint8)
        self.k = k
        self.r = r

    def encode(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        from repro.gf.field import gf_xor_mul_into

        if len(data_chunks) != self.k:
            raise ValueError(f"need {self.k} data chunks, got {len(data_chunks)}")
        chunk_size = data_chunks[0].shape[0]
        for c in data_chunks:
            self._check_chunk(c, chunk_size)
        parities = []
        for i in range(self.k, self.n):
            acc = np.zeros(chunk_size, dtype=np.uint8)
            for j in range(self.k):
                gf_xor_mul_into(acc, int(self.generator[i, j]), data_chunks[j])
            parities.append(acc)
        return parities

    def decode(self, available: Mapping[int, np.ndarray], erased: Sequence[int],
               chunk_size: int) -> dict[int, np.ndarray]:
        from repro.gf.field import gf_xor_mul_into

        self._check_chunk_size(chunk_size)
        erased = sorted(set(erased))
        usable = sorted(set(available) - set(erased))
        for node in usable:
            self._check_chunk(available[node], chunk_size)
        data = self._solve_data(
            {node: available[node] for node in usable}, chunk_size)
        out: dict[int, np.ndarray] = {}
        for node in erased:
            acc = np.zeros(chunk_size, dtype=np.uint8)
            for j in range(self.k):
                gf_xor_mul_into(acc, int(self.generator[node, j]), data[j])
            out[node] = acc
        return out

    def _solve_data(self, available: Mapping[int, np.ndarray],
                    chunk_size: int) -> list[np.ndarray]:
        """Recover the k data chunks from any decodable set of chunks."""
        from repro.gf.field import gf_xor_mul_into
        from repro.gf.solve import UnderdeterminedSystemError

        nodes = sorted(available)
        rank = mat_rank(self.generator[nodes])
        if rank < self.k:
            raise DecodeError(
                f"erasure pattern not decodable: available nodes {nodes} "
                f"span rank {rank} < k={self.k}")
        # Row-reduce the available generator rows to R with
        # data = R @ chunks[nodes].
        system = GFLinearSystem(self.k, len(nodes))
        for idx, node in enumerate(nodes):
            system.add_equation(
                {j: int(self.generator[node, j]) for j in range(self.k)
                 if self.generator[node, j]},
                {idx: 1})
        try:
            solution = system.solve()
        except UnderdeterminedSystemError as exc:  # pragma: no cover - guarded by rank
            raise DecodeError(str(exc)) from exc
        data = []
        for j in range(self.k):
            acc = np.zeros(chunk_size, dtype=np.uint8)
            for idx, node in enumerate(nodes):
                gf_xor_mul_into(acc, int(solution[j, idx]), available[node])
            data.append(acc)
        return data

    def decodable(self, erased: Sequence[int]) -> bool:
        """Whether the given erasure pattern can be recovered."""
        alive = [i for i in range(self.n) if i not in set(erased)]
        return mat_rank(self.generator[alive]) == self.k
