"""Metadata management (§5.1): per-PG index files.

Each placement group keeps an index replicated on ``r + 1`` of its disks.
A record tracks object ID, size, disk, checksum, and the positions of the
object's partitioned chunks; because chunks in a bucket are aligned, a
chunk position is a 2-byte slot number (the small-size-bucket front needs
a 4-byte byte-offset instead).  The paper reports "about 40 bytes" per
object — this module implements the actual wire format and the test-suite
verifies the size claim on realistic workloads.

Layout of a serialized record (little-endian)::

    object_id   u64
    size        u64
    disk_id     u16
    checksum    u32
    front_len   u32   (0 if no front cut)
    front_off   u32   (present only when front_len > 0)
    n_chunks    u8
    per chunk:  level u8, slot u16
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

_HEADER = struct.Struct("<QQHIIB")
_FRONT = struct.Struct("<I")
_CHUNK = struct.Struct("<BH")

#: Index files are replicated on r + 1 disks of the PG (§5.1).
INDEX_REPLICAS = 5  # r + 1 for r = 4


@dataclass(frozen=True)
class ChunkPosition:
    """Slot of one chunk inside its level bucket."""

    level: int
    slot: int

    def __post_init__(self):
        if not 0 < self.level < 256:
            raise ValueError(f"level {self.level} out of u8 range")
        if not 0 <= self.slot < 65536:
            raise ValueError(f"slot {self.slot} out of u16 range (bucket full)")


@dataclass(frozen=True)
class IndexRecord:
    """One object's entry in a PG index file."""

    object_id: int
    size: int
    disk_id: int
    checksum: int
    chunk_positions: tuple[ChunkPosition, ...] = ()
    front_length: int = 0
    front_offset: int = 0

    def __post_init__(self):
        if self.object_id < 0 or self.size < 0:
            raise ValueError("object_id and size must be non-negative")
        if not 0 <= self.disk_id < 65536:
            raise ValueError("disk_id out of u16 range")
        if len(self.chunk_positions) > 255:
            raise ValueError("too many chunks for a u8 count")
        if self.front_length == 0 and self.front_offset:
            raise ValueError("front offset without front length")

    def serialize(self) -> bytes:
        """Encode to the binary wire format."""
        out = bytearray(_HEADER.pack(self.object_id, self.size, self.disk_id,
                                     self.checksum & 0xFFFFFFFF,
                                     self.front_length,
                                     len(self.chunk_positions)))
        if self.front_length:
            out += _FRONT.pack(self.front_offset)
        for pos in self.chunk_positions:
            out += _CHUNK.pack(pos.level, pos.slot)
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes, offset: int = 0) -> tuple["IndexRecord", int]:
        """Parse one record; returns (record, next_offset)."""
        object_id, size, disk_id, checksum, front_len, n_chunks = \
            _HEADER.unpack_from(data, offset)
        offset += _HEADER.size
        front_off = 0
        if front_len:
            (front_off,) = _FRONT.unpack_from(data, offset)
            offset += _FRONT.size
        positions = []
        for _ in range(n_chunks):
            level, slot = _CHUNK.unpack_from(data, offset)
            positions.append(ChunkPosition(level, slot))
            offset += _CHUNK.size
        return cls(object_id, size, disk_id, checksum, tuple(positions),
                   front_len, front_off), offset

    @property
    def record_bytes(self) -> int:
        """Serialized size of this record in bytes."""
        return (_HEADER.size + (_FRONT.size if self.front_length else 0)
                + _CHUNK.size * len(self.chunk_positions))


@dataclass
class PGIndex:
    """The index file of one placement group."""

    pg_id: int
    records: list[IndexRecord] = field(default_factory=list)

    def append(self, record: IndexRecord) -> None:
        """Append an item; returns its allocated slot."""
        self.records.append(record)

    def lookup(self, object_id: int) -> IndexRecord:
        """Find a record by object id; raises KeyError if absent."""
        for record in self.records:
            if record.object_id == object_id:
                return record
        raise KeyError(f"object {object_id} not in PG {self.pg_id} index")

    def serialize(self) -> bytes:
        """Encode to the binary wire format."""
        body = b"".join(r.serialize() for r in self.records)
        header = struct.pack("<QI", self.pg_id, len(self.records))
        payload = header + body
        return payload + struct.pack("<I", zlib.crc32(payload))

    @classmethod
    def deserialize(cls, data: bytes) -> "PGIndex":
        """Decode from the binary wire format."""
        if len(data) < 16:
            raise ValueError("index file truncated")
        payload, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
        if zlib.crc32(payload) != crc:
            raise ValueError("index file checksum mismatch")
        pg_id, count = struct.unpack_from("<QI", payload, 0)
        offset = 12
        index = cls(pg_id)
        for _ in range(count):
            record, offset = IndexRecord.deserialize(payload, offset)
            index.append(record)
        return index

    @property
    def size_bytes(self) -> int:
        """Current size of this bucket/file in bytes."""
        return 12 + sum(r.record_bytes for r in self.records) + 4

    @property
    def bytes_per_object(self) -> float:
        """Average serialized record size."""
        if not self.records:
            return 0.0
        return self.size_bytes / len(self.records)

    def replica_disks(self, pg_disk_ids: tuple[int, ...],
                      n_replicas: int = INDEX_REPLICAS) -> list[int]:
        """The r + 1 disks of the PG holding this index (deterministic,
        spread by PG id so index load balances across the cluster)."""
        if n_replicas > len(pg_disk_ids):
            raise ValueError("more replicas than PG disks")
        start = self.pg_id % len(pg_disk_ids)
        return [pg_disk_ids[(start + i) % len(pg_disk_ids)]
                for i in range(n_replicas)]


def build_indexes(catalog) -> dict[int, PGIndex]:
    """Construct every PG's index from an ingested catalog.

    Chunk slots are assigned in ingest order per (level) bucket: each
    chunk takes the next slot of its (PG, role, level) bucket, and a
    front cut the next byte offset of its (PG, role) small-size-bucket.
    """
    from repro.core.layouts import REGENERATING_KIND

    indexes: dict[int, PGIndex] = {}
    slot_counters: dict[tuple[int, int, int], int] = {}
    front_counters: dict[tuple[int, int], int] = {}
    for obj in catalog.objects:
        if obj.role is None:
            continue  # striped layouts do not use RCStor bucket indexes
        placement = catalog.placement_of(obj)
        positions = []
        front_length = front_offset = 0
        for chunk in placement.chunks:
            if chunk.code_kind == REGENERATING_KIND:
                level = chunk.level or 1
                key = (obj.pg_id, obj.role, level)
                slot = slot_counters.get(key, 0)
                slot_counters[key] = slot + 1
                positions.append(ChunkPosition(level, slot % 65536))
            else:
                key2 = (obj.pg_id, obj.role)
                front_offset = front_counters.get(key2, 0)
                front_length = chunk.data_bytes
                front_counters[key2] = front_offset + front_length
        record = IndexRecord(
            object_id=obj.object_id, size=obj.size,
            disk_id=catalog.disk_of(obj),
            checksum=zlib.crc32(str(obj.object_id).encode()),
            chunk_positions=tuple(positions),
            front_length=front_length, front_offset=front_offset)
        indexes.setdefault(obj.pg_id, PGIndex(obj.pg_id)).append(record)
    return indexes
