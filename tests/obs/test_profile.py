"""Tests for the wall-clock engine profiler (repro.obs.profile)."""

from repro.obs import (
    Observer,
    attach_profiler,
    merge_profiles,
    profile_bench_section,
    snapshot,
    summarize_profile,
)
from repro.obs.profile import ENGINE_SITE, PROFILE_SCHEMA, Profiler, _site_of
from repro.sim import Environment


def _run(obs, n=5):
    env = Environment(trace_hooks=obs)

    def spinner(env):
        for _ in range(n):
            yield env.timeout(1.0)

    def pacer(env):
        yield env.timeout(2.5)

    env.process(spinner(env))
    env.process(pacer(env))
    env.run()


def test_profiler_attributes_time_per_generator_site():
    obs = Observer()
    attach_profiler(obs)
    _run(obs)
    doc = obs.profiler.profile_doc()
    assert doc["schema"] == PROFILE_SCHEMA
    sites = {row["site"]: row for row in doc["sites"]}
    spinner = next(s for s in sites if s.startswith("spinner ("))
    pacer = next(s for s in sites if s.startswith("pacer ("))
    assert sites[spinner]["resumes"] == 6  # first resume + 5 timeouts
    assert sites[pacer]["resumes"] == 2
    assert all(row["wall_s"] >= 0.0 for row in doc["sites"])
    assert doc["total_wall_s"] >= doc["attributed_wall_s"] >= 0.0


def test_site_of_names_file_and_line():
    obs = Observer()
    env = Environment(trace_hooks=obs)

    def proc(env):
        yield env.timeout(1)

    process = env.process(proc(env))
    site = _site_of(process)
    assert site.startswith("proc (")
    assert "test_profile.py:" in site
    # Anything without generator code attributes to the engine itself.
    assert _site_of(object()) == ENGINE_SITE


def test_stop_is_idempotent_and_closes_the_open_interval():
    profiler = Profiler()

    class _FakeGen:
        gi_code = (lambda: None).__code__

    class _FakeProc:
        _gen = _FakeGen()

    profiler.on_resume(_FakeProc())
    profiler.stop()
    doc1 = profiler.profile_doc()
    profiler.stop()
    doc2 = profiler.profile_doc()
    assert doc1["sites"] == doc2["sites"]  # no double counting


def test_merge_profiles_sums_by_site():
    a = {"schema": PROFILE_SCHEMA, "total_wall_s": 1.0,
         "attributed_wall_s": 0.8,
         "sites": [{"site": "x (f.py:1)", "resumes": 2, "wall_s": 0.5},
                   {"site": "y (f.py:9)", "resumes": 1, "wall_s": 0.3}]}
    b = {"schema": PROFILE_SCHEMA, "total_wall_s": 2.0,
         "attributed_wall_s": 0.6,
         "sites": [{"site": "x (f.py:1)", "resumes": 4, "wall_s": 0.6}]}
    merged = merge_profiles([a, None, b])
    assert merged["total_wall_s"] == 3.0
    rows = {r["site"]: r for r in merged["sites"]}
    assert rows["x (f.py:1)"] == {"site": "x (f.py:1)", "resumes": 6,
                                  "wall_s": 1.1}
    assert rows["y (f.py:9)"]["resumes"] == 1
    # Sorted hottest-first.
    assert merged["sites"][0]["site"] == "x (f.py:1)"


def test_bench_section_and_text_summary():
    doc = {"schema": PROFILE_SCHEMA, "total_wall_s": 2.0,
           "attributed_wall_s": 1.0,
           "sites": [{"site": "x (f.py:1)", "resumes": 3, "wall_s": 0.75},
                     {"site": "y (f.py:9)", "resumes": 1, "wall_s": 0.25}]}
    section = profile_bench_section(doc, n_slowest=1)
    assert section["hottest"] == [
        {"name": "x (f.py:1)", "resumes": 3, "wall_s": 0.75, "share": 0.75}]
    text = summarize_profile(doc)
    assert "x (f.py:1)" in text and "75.0%" in text
    assert summarize_profile({"sites": []}) == "(no profile samples)"


def test_snapshot_carries_profile_only_when_armed():
    plain = Observer()
    Environment(trace_hooks=plain).run()
    assert "profile" not in snapshot(plain)

    armed = Observer()
    attach_profiler(armed)
    _run(armed)
    assert snapshot(armed)["profile"]["schema"] == PROFILE_SCHEMA
