"""§5.1 systems benches: staged put path, batch export, index metadata."""

import numpy as np
from paper_report import emit

from repro.cluster import ClusterConfig, RCStor, build_indexes
from repro.cluster.ingestion import measure_puts, parity_update_cost, run_batch_export
from repro.codes import ClayCode
from repro.core import GeometricLayout
from repro.experiments.common import format_table
from repro.trace import W1

MB = 1 << 20
GB = 1 << 30


def _system(n_objects=800):
    config = ClusterConfig(n_pgs=48)
    system = RCStor(config, GeometricLayout(4 * MB, 2, max_chunk_size=256 * MB),
                    ClayCode(10, 4))
    system.ingest(W1.sample_sizes(np.random.default_rng(0), n_objects))
    return system


def test_put_path(benchmark):
    def run():
        system = _system()
        rng = np.random.default_rng(1)
        sizes = W1.sample_sizes(rng, 60)
        puts = measure_puts(system, sizes)
        export = run_batch_export(system, sizes)
        return puts, export

    puts, export = benchmark.pedantic(run, rounds=1, iterations=1)
    cost = parity_update_cost(100 * MB)
    emit("§5.1 put path (staging + batch export)", format_table(
        ["Metric", "Value"],
        [["mean put latency (ms)", round(puts.mean_latency * 1000)],
         ["p95 put latency (ms)", round(puts.p95_latency * 1000)],
         ["staging write amplification", puts.write_amplification],
         ["export rate (MB/s)", round(export.export_rate / MB)],
         ["export I/O amplification", round(export.io_amplification, 2)],
         ["parity-update bytes avoided per 100MB object",
          f"{cost['saving_bytes'] / MB:.0f}MB"]]))
    assert puts.mean_latency > 0
    assert export.io_amplification < 3.0


def test_metadata_size(benchmark):
    def run():
        system = _system(1200)
        return system, build_indexes(system.catalog)

    system, indexes = benchmark.pedantic(run, rounds=1, iterations=1)
    total = sum(i.size_bytes for i in indexes.values())
    per_object = total / len(system.catalog.objects)
    largest = max(indexes.values(), key=lambda i: i.size_bytes)
    emit("§5.1 metadata (index files)", format_table(
        ["Metric", "Value"],
        [["objects indexed", len(system.catalog.objects)],
         ["bytes per object (paper: ~40)", round(per_object, 1)],
         ["total index bytes", total],
         ["largest PG index (bytes)", largest.size_bytes],
         ["index replicas per PG", 5]]))
    assert 25 <= per_object <= 55
