"""The placement-matrix experiment: policy x scheme on the tiered fabric."""

import json

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main
from repro.experiments.common import setting_by_name
from repro.experiments.placement_matrix import tiered_config


def _run_matrix(tmp_path, capsys, extra=()):
    args = ["placement-matrix", "--n-objects", "150", "--n-requests", "3",
            "--policies", "flat_random,rack_aware", "--json",
            "--cache-dir", str(tmp_path), *extra]
    assert main(args) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    rows = {}
    for result in doc["experiments"]["placement-matrix"]:
        for row in result["rows"]:
            rows[(row["scheme"], row["policy"])] = row
    return out, rows


def test_tiered_config_shape():
    config = tiered_config(setting_by_name("W1"), 300, "rack_aware")
    assert config.n_nodes == 32 and config.n_racks == 8
    assert config.rack_size == 4
    assert config.oversubscription == 4.0
    assert config.placement == "rack_aware"


def test_rack_aware_beats_flat_on_cross_rack_repair_traffic(tmp_path,
                                                            capsys):
    """The acceptance bar: under 4:1 oversubscription, rack-aware
    placement packs stripes into fewer racks and moves less repair
    traffic over the aggregation layer than flat_random."""
    _, rows = _run_matrix(tmp_path, capsys)
    for scheme in ("Geo-4M", "RS"):
        flat = rows[(scheme, "flat_random")]
        aware = rows[(scheme, "rack_aware")]
        assert aware["rack_span_mean"] < flat["rack_span_mean"]
        # Cross-rack bytes *per repaired byte* is the placement signal;
        # the absolute count is confounded by how much of the failed
        # disk each policy happened to fill.
        assert (aware["cross_rack_mb"] / aware["repaired_mb"]
                < flat["cross_rack_mb"] / flat["repaired_mb"])
    # On the paper's scheme the absolute win holds too at this scale.
    assert rows[("Geo-4M", "rack_aware")]["cross_rack_mb"] \
        < rows[("Geo-4M", "flat_random")]["cross_rack_mb"]
    # Every aggregation transit crosses two ToR uplinks.
    aware = rows[("Geo-4M", "rack_aware")]
    assert aware["tor_mb"] >= 2 * aware["cross_rack_mb"] * 0.99


def test_jobs_fanout_matches_serial_and_hits_cache(tmp_path, capsys):
    serial, _ = _run_matrix(tmp_path, capsys)
    fanned, _ = _run_matrix(tmp_path, capsys, extra=("--jobs", "2"))
    assert fanned == serial


def test_all_excludes_placement_matrix():
    """``all`` output is pinned by results/expected_all_300.json.gz, so
    the extension must not leak into it."""
    assert "placement-matrix" in EXPERIMENTS
    assert EXPERIMENTS["placement-matrix"].extension


def test_unknown_policy_fails_fast(tmp_path):
    with pytest.raises(ValueError, match="rack_aware"):
        main(["placement-matrix", "--policies", "best_effort",
              "--cache-dir", str(tmp_path)])
