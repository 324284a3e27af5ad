"""Shared experiment infrastructure: scheme registry, scaling, sampling.

The paper's evaluation compares *schemes* — a (layout, code) pair with the
§6.1 parameter settings.  This module maps the paper's scheme labels
("Geo-4M", "Con-256M", "Stripe-Max", "RS", ...) to configured
:class:`~repro.cluster.RCStor` systems for either workload, and handles the
capacity scaling: experiments ingest a configurable number of objects and
report both simulated times and times rescaled to the paper's per-disk
capacity (recovery time is linear in per-disk bytes at fixed concurrency).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster import ClusterConfig, HDD, SSD, RCStor
from repro.cluster.disk import DiskModel
from repro.codes import ClayCode, HitchhikerCode, LRCCode, RSCode
from repro.core import (
    ContiguousLayout,
    GeometricLayout,
    StripeLayout,
    StripeMaxLayout,
)
from repro.runner import Scenario
from repro.trace import W1, W2, RequestSampler, Workload

KB = 1 << 10
MB = 1 << 20
GB = 1 << 30


@dataclass(frozen=True)
class WorkloadSetting:
    """Everything §6.1 fixes per workload."""

    name: str
    workload: Workload
    disk_model: DiskModel
    disks_per_node: int
    geo_s0_variants: tuple[int, ...]
    geo_default_s0: int
    contiguous_variants: tuple[int, ...]
    strip_size: int
    max_chunk_size: int
    paper_capacity_per_disk: float  # bytes (Table 2)

    @property
    def scheme_names(self) -> list[str]:
        """All paper scheme labels for this workload."""
        names = [f"Geo-{_label(s)}" for s in self.geo_s0_variants]
        names += [f"Con-{_label(c)}" for c in self.contiguous_variants]
        names += ["Stripe", "Stripe-Max", "RS", "LRC", "HH", "ECPipe"]
        return names

    @property
    def geo_default(self) -> str:
        """Label of the workload's default Geometric scheme."""
        return f"Geo-{_label(self.geo_default_s0)}"


def _label(nbytes: int) -> str:
    if nbytes >= MB:
        return f"{nbytes // MB}M"
    return f"{nbytes // KB}K"


#: W1: large objects on 16 nodes x 6 HDDs (Table 2).
W1_SETTING = WorkloadSetting(
    name="W1", workload=W1, disk_model=HDD, disks_per_node=6,
    geo_s0_variants=(1 * MB, 4 * MB, 16 * MB), geo_default_s0=4 * MB,
    contiguous_variants=(16 * MB, 64 * MB, 256 * MB), strip_size=256 * KB,
    max_chunk_size=256 * MB, paper_capacity_per_disk=255 * GB)

#: W2: small objects on 16 nodes x 1 SSD (Table 2).
W2_SETTING = WorkloadSetting(
    name="W2", workload=W2, disk_model=SSD, disks_per_node=1,
    geo_s0_variants=(128 * KB, 256 * KB), geo_default_s0=128 * KB,
    contiguous_variants=(128 * KB, 512 * KB), strip_size=32 * KB,
    max_chunk_size=256 * MB, paper_capacity_per_disk=4.4 * GB)

#: Settings by name, for scenario parameters (which must be JSON-safe).
SETTINGS: dict[str, WorkloadSetting] = {"W1": W1_SETTING, "W2": W2_SETTING}


def setting_by_name(name: str) -> WorkloadSetting:
    """The §6.1 workload setting for a scenario-parameter name."""
    try:
        return SETTINGS[name]
    except KeyError:
        raise ValueError(f"unknown workload setting {name!r}") from None


def cluster_config(setting: WorkloadSetting, n_objects: int,
                   client_gbps: float = 1.0) -> ClusterConfig:
    """A cluster scaled so buckets hold a realistic number of chunks while
    a failed disk still spans enough PGs for parallel recovery."""
    n_pgs = int(np.clip(n_objects // 25, 32, 160))
    return ClusterConfig(
        n_nodes=16, disks_per_node=setting.disks_per_node,
        disk_model=setting.disk_model, n_pgs=n_pgs, client_gbps=client_gbps,
        foreground_read_bytes=min(int(setting.workload.mean_request_size),
                                  32 * MB))


def build_system(scheme: str, setting: WorkloadSetting,
                 config: ClusterConfig) -> RCStor:
    """Instantiate the named scheme exactly as §6.1 configures it."""
    k, r = config.k, config.r
    clay = ClayCode(k, r)
    if scheme.startswith("Geo-"):
        s0 = _parse_size(scheme[4:])
        layout = GeometricLayout(s0, 2, max_chunk_size=setting.max_chunk_size)
        return RCStor(config, layout, clay, name=scheme)
    if scheme.startswith("Con-"):
        chunk = _parse_size(scheme[4:])
        return RCStor(config, ContiguousLayout(chunk), clay, name=scheme)
    if scheme == "Stripe":
        return RCStor(config, StripeLayout(setting.strip_size, k), clay,
                      name=scheme)
    if scheme == "Stripe-Max":
        return RCStor(config, StripeMaxLayout(k), clay, name=scheme)
    if scheme == "RS":
        return RCStor(config, StripeLayout(setting.strip_size, k),
                      RSCode(k, r), name=scheme)
    if scheme == "LRC":
        return RCStor(config, StripeLayout(setting.strip_size, k),
                      LRCCode(k, 2, r - 2), name=scheme)
    if scheme == "HH":
        layout = GeometricLayout(setting.geo_default_s0, 2,
                                 max_chunk_size=setting.max_chunk_size)
        return RCStor(config, layout, HitchhikerCode(k, r), name=scheme)
    if scheme == "ECPipe":
        return RCStor(config, StripeLayout(setting.strip_size, k),
                      RSCode(k, r), ecpipe=True, name=scheme)
    raise ValueError(f"unknown scheme {scheme!r}")


def _parse_size(label: str) -> int:
    if label.endswith("M"):
        return int(label[:-1]) * MB
    if label.endswith("K"):
        return int(label[:-1]) * KB
    raise ValueError(f"bad size label {label!r}")


def sample_workload(setting: WorkloadSetting, n_objects: int,
                    seed: int = 0) -> np.ndarray:
    """Draw the workload's object sizes for an experiment."""
    return setting.workload.sample_sizes(np.random.default_rng(seed), n_objects)


def request_size_targets(setting: WorkloadSetting, all_sizes: np.ndarray,
                         n_requests: int, seed: int = 0) -> np.ndarray:
    """Request sizes drawn once from the workload's request distribution,
    shared by every scheme so degraded-read means are comparable."""
    sampler = RequestSampler(all_sizes.astype(np.float64),
                             setting.workload.mean_request_size)
    return sampler.sample_sizes(np.random.default_rng(seed), n_requests)


def nearest_candidates(candidates, target_sizes: np.ndarray) -> list:
    """For each target request size, the candidate object closest in size."""
    if not candidates:
        raise ValueError("no candidate objects")
    sizes = np.array([o.size for o in candidates], dtype=np.float64)
    order = np.argsort(sizes)
    sorted_sizes = sizes[order]
    out = []
    for target in target_sizes:
        pos = int(np.searchsorted(sorted_sizes, target))
        best = min((p for p in (pos - 1, pos) if 0 <= p < len(candidates)),
                   key=lambda p: abs(sorted_sizes[p] - target))
        out.append(candidates[int(order[best])])
    return out


def scale_to_paper(time: float, setting: WorkloadSetting,
                   bytes_per_disk: float) -> float:
    """Rescale a recovery time to the paper's per-disk capacity."""
    if bytes_per_disk <= 0:
        return 0.0
    return time * setting.paper_capacity_per_disk / bytes_per_disk


def format_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table (paper-style row rendering for the benches)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.3g}" if isinstance(v, float) else str(v)
                      for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def with_params(units: list[Scenario], **params) -> list[Scenario]:
    """``units`` with ``params`` merged into each unit's parameters: how a
    caller sets a parameter that ``scenarios()`` does not take
    (``n_requests``, ``n_probes``) on the module's own grid."""
    return [replace(u, params={**u.params, **params}) for u in units]
