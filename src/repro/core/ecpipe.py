"""ECPipe-style repair pipelining (Li et al., ATC'17) — analytic model.

The paper evaluates ECPipe as a baseline: instead of ``k`` helpers each
sending a full strip to one aggregator (whose ingress link serialises
``k x strip`` bytes), ECPipe chains the helpers and streams *partial sums*
packet by packet, so repair time approaches a single strip transfer:

    star:    k * S / B
    ecpipe:  S / B + (k - 1) * p / B      (p = packet size)

With ``p = S`` the chain degenerates to the star (no pipelining); smaller
packets shrink the pipeline-fill term at the cost of per-packet overhead.
ECPipe requires addition-associative codes, which is why the paper cannot
apply it to Clay (§7 "Network Pipelining").
"""

from __future__ import annotations

import math


def star_repair_time(strip_size: int, k: int, link_bandwidth: float) -> float:
    """Conventional aggregation: k full strips through one ingress link."""
    if strip_size <= 0 or k <= 0 or link_bandwidth <= 0:
        raise ValueError("arguments must be positive")
    return k * strip_size / link_bandwidth


def ecpipe_repair_time(strip_size: int, k: int, link_bandwidth: float,
                       packet_size: int,
                       per_packet_overhead: float = 0.0) -> float:
    """Chained pipelined repair with the given packet size."""
    if packet_size <= 0:
        raise ValueError("packet size must be positive")
    if strip_size <= 0 or k <= 0 or link_bandwidth <= 0:
        raise ValueError("arguments must be positive")
    packet = min(packet_size, strip_size)
    n_packets = math.ceil(strip_size / packet)
    stream = strip_size / link_bandwidth
    fill = (k - 1) * packet / link_bandwidth
    return stream + fill + (n_packets + k - 1) * per_packet_overhead


def speedup(strip_size: int, k: int, link_bandwidth: float,
            packet_size: int, per_packet_overhead: float = 0.0) -> float:
    """Star-over-ECPipe repair-time ratio (approaches k for small packets)."""
    return (star_repair_time(strip_size, k, link_bandwidth)
            / ecpipe_repair_time(strip_size, k, link_bandwidth, packet_size,
                                 per_packet_overhead))
