"""Codec throughput model (§5.2 "Encoding Optimization").

The paper's SIMD C implementation reaches 22.3 GB/s encode, 18.5 GB/s
decode, and 5.0 GB/s single-node regeneration per 12-core server.  Our
Python codecs are obviously slower, so simulated time uses these published
rates rather than wall-clock codec time; the byte-level codecs remain the
source of *what* is read, not of how long arithmetic takes, and no
simulated path runs them.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 1 << 30


@dataclass(frozen=True)
class CodecModel:
    """Throughput (bytes/s) of the three codec operations."""

    encode_bandwidth: float = 22.3 * GB
    decode_bandwidth: float = 18.5 * GB
    regenerate_bandwidth: float = 5.0 * GB

    def encode_time(self, nbytes: int) -> float:
        """Time to encode nbytes at the published rate."""
        return nbytes / self.encode_bandwidth

    def decode_time(self, nbytes: int) -> float:
        """Multi-erasure decode of ``nbytes`` of output (RS-style path)."""
        return nbytes / self.decode_bandwidth

    def regenerate_time(self, nbytes: int) -> float:
        """Single-node repair producing ``nbytes`` of output."""
        return nbytes / self.regenerate_bandwidth


DEFAULT_CODEC = CodecModel()
