"""Tests for HTML run reports and cross-run diffs (repro.obs.report)."""

import json

from repro.obs import (
    Observer,
    attach_timeline,
    diff_docs,
    render_diff,
    render_report,
    snapshot,
    write_report,
)
from repro.obs.report import main as report_main
from repro.sim import Environment


def _report_doc():
    obs = Observer()
    attach_timeline(obs, sample_interval=1.0)
    env = Environment(trace_hooks=obs)
    pid = obs.tracer.process("run")
    c = obs.metrics.counter("work.done")
    h = obs.metrics.histogram("work.wait")

    def worker():
        for i in range(8):
            yield env.timeout(1.0)
            c.inc()
            h.observe(0.1 * i)

    obs.timeline.set_label(env, "unit-0")
    obs.timeline.mark(env, "fault:disk_crash", disk=2)
    env.run(env.process(worker()))
    obs.tracer.complete("repair", pid, obs.tracer.track(pid, "t"), 0.0, 4.0)
    snap = snapshot(obs, include_trace=True)
    return {
        "title": "test run <&>",
        "sim_version": "1.2.3",
        "root_seed": 7,
        "sections": [{"name": "fig13", "text": "col1  col2\n1     2"}],
        "obs": snap,
        "timeline": snap["timeline"],
        "trace_events": snap["trace_events"],
        "bench": {"totals": {"units": 1, "misses": 1, "hits": 0,
                             "dedups": 0, "hit_rate": 0.0, "wall_s": 0.5,
                             "sim_time_s": 8.0}},
    }


def test_render_report_is_self_contained_html():
    page = render_report(_report_doc())
    assert page.startswith("<!doctype html>")
    # Self-contained: no external scripts, stylesheets or images.
    assert "<script" not in page and "href=" not in page and "src=" not in page
    assert "<svg" in page                      # timeline charts + waterfall
    assert "test run &lt;&amp;&gt;" in page    # titles are escaped
    assert "unit-0" in page
    assert "work.wait" in page                 # percentile table
    assert "fault:disk_crash" in page          # mark rendered
    assert "fig13" in page


def test_render_report_minimal_doc():
    page = render_report({"title": "empty"})
    assert page.startswith("<!doctype html>") and page.endswith("</html>")


def test_write_report(tmp_path):
    out = tmp_path / "report.html"
    assert write_report(_report_doc(), str(out)) == str(out)
    assert out.read_text(encoding="utf-8").startswith("<!doctype html>")


def _result_doc(x, extra=None):
    rows = [{"scheme": "Geo-4M", "p99": x, "bytes": 100.0}]
    if extra:
        rows[0].update(extra)
    return {"schema": 1,
            "experiments": {"fig13": [{"name": "fig13/1Gbps", "rows": rows}]}}


def test_diff_docs_reports_per_metric_deltas():
    records = diff_docs(_result_doc(2.0), _result_doc(3.0))
    by_metric = {r["metric"]: r for r in records}
    p99 = by_metric["p99"]
    assert p99["unit"] == "fig13/1Gbps"
    assert p99["a"] == 2.0 and p99["b"] == 3.0
    assert p99["delta"] == 1.0 and p99["ratio"] == 1.5
    assert by_metric["bytes"]["delta"] == 0.0
    # Biggest relative movement leads.
    assert records[0]["metric"] == "p99"


def test_diff_docs_handles_missing_sides():
    records = diff_docs(_result_doc(2.0), _result_doc(2.0, {"new": 5.0}))
    (new,) = [r for r in records if r["metric"] == "new"]
    assert new["a"] is None and new["b"] == 5.0 and new["delta"] is None


def test_diff_docs_bench_mode():
    a = {"units": [{"name": "u1", "wall_s": 1.0}]}
    b = {"units": [{"name": "u1", "wall_s": 2.0}]}
    (record,) = diff_docs(a, b)
    assert record["metric"] == "wall_s" and record["ratio"] == 2.0


def test_render_diff_marks_identical_runs():
    page = render_diff(_result_doc(2.0), _result_doc(2.0))
    assert "numerically identical" in page
    page = render_diff(_result_doc(2.0), _result_doc(3.0), "before", "after")
    assert "before" in page and "after" in page and "+50.00%" in page


def test_cli_diff_mode(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result_doc(2.0)), encoding="utf-8")
    b.write_text(json.dumps(_result_doc(2.5)), encoding="utf-8")
    out = tmp_path / "diff.html"
    assert report_main([str(a), str(b), "-o", str(out)]) == 0
    page = out.read_text(encoding="utf-8")
    assert "p99" in page and "+25.00%" in page
    assert "wrote" in capsys.readouterr().out
