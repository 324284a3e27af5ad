"""Scenario execution: cache lookup, dedup, and process-pool fan-out.

:func:`run_scenarios` takes a flat list of :class:`~repro.runner.Scenario`
units and returns a :class:`RunReport` with one
:class:`~repro.runner.result.ExperimentResult` per unit, in input order.
For each unit it

1. derives the unit seed from the root ``--seed`` and the scenario's
   seed key (order-independent, see :mod:`repro.runner.scenario`),
2. dedups identical ``(content hash, seed)`` work within the run (figures
   often share grid points),
3. consults the :class:`~repro.runner.cache.ResultCache` unless caching is
   off or the capture mode needs live data (``--trace`` /
   ``--check-invariants`` must re-observe the run),
4. executes the misses — inline for ``jobs=1``, on a
   :class:`~concurrent.futures.ProcessPoolExecutor` otherwise.

Every execution happens under a *local*, context-scoped observer
(:func:`repro.obs.observed`); the worker ships back a deterministic
:func:`repro.obs.snapshot` that the parent merges.  Because each unit owns
its observer and its seed, rows and snapshots are bit-identical for any
``--jobs`` value — the report's per-unit wall clock and hit/miss status
(:class:`UnitOutcome`) are the only nondeterministic outputs.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs import merge_snapshots, observed, snapshot as obs_snapshot
from repro.runner.cache import ResultCache, repro_version
from repro.runner.result import ExperimentResult, Provenance
from repro.runner.scenario import Scenario


@dataclass(frozen=True)
class Capture:
    """Which observability payloads units must produce and ship back.

    Every unit ships its metrics and engine counters; ``trace`` adds the
    span events.  ``timeline`` samples the metric registry on a sim-time
    grid (``sample_interval`` sim seconds; ``None`` auto-scales), ``profile``
    attributes wall time per process site, and ``flightrec`` (a directory
    path) arms a flight recorder that dumps a postmortem bundle there when
    a unit's compute raises or accumulates incidents.
    """

    trace: bool = False
    invariants: bool = False
    timeline: bool = False
    sample_interval: float | None = None
    profile: bool = False
    flightrec: str | None = None

    @property
    def needs_live_run(self) -> bool:
        """Capture modes that cannot be served from the cache."""
        return (self.trace or self.invariants or self.timeline
                or self.profile or self.flightrec is not None)


@dataclass(frozen=True)
class RunOptions:
    """How to execute a batch of scenarios."""

    jobs: int = 1
    seed: int = 0
    cache: bool = True
    cache_dir: str | Path | None = None
    capture: Capture = field(default_factory=Capture)
    #: Optional ``(done, total, status, name)`` callback, invoked in
    #: completion order as units finish (hits and dedups included).  Purely
    #: cosmetic — results stay input-ordered regardless.
    progress: Any = None


@dataclass
class UnitOutcome:
    """Per-unit execution accounting (the ``--bench-out`` rows)."""

    name: str
    scenario_hash: str
    seed: int | None
    status: str  # "miss" (computed), "hit" (cache), "dedup" (shared in-run)
    wall_s: float
    sim_time_s: float | None


@dataclass
class RunReport:
    """Everything one :func:`run_scenarios` call produced."""

    results: list[ExperimentResult]
    outcomes: list[UnitOutcome]
    root_seed: int
    sim_version: str

    def by_name(self, name: str) -> ExperimentResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    @property
    def hit_rate(self) -> float:
        """Fraction of units served without recomputing (hit or dedup)."""
        if not self.outcomes:
            return 0.0
        served = sum(1 for o in self.outcomes if o.status != "miss")
        return served / len(self.outcomes)

    def merged_obs(self) -> dict[str, Any]:
        """One merged observability snapshot over every unit."""
        return merge_snapshots([r.obs for r in self.results if r.obs])

    def trace_events(self) -> list[dict[str, Any]]:
        """All units' Chrome trace events, rebased onto disjoint pids."""
        from repro.obs import merge_trace_events

        return merge_trace_events(
            [r.obs.get("trace_events", []) for r in self.results if r.obs])

    def merged_timeline(self) -> dict[str, Any]:
        """All units' timeline docs, segment-concatenated in unit order."""
        from repro.obs import merge_timelines

        return merge_timelines(
            [(r.obs or {}).get("timeline") for r in self.results])

    def merged_profile(self) -> dict[str, Any]:
        """All units' wall-clock profiles, summed by process site."""
        from repro.obs import merge_profiles

        return merge_profiles(
            [(r.obs or {}).get("profile") for r in self.results])

    def merged_invariants_report(self) -> str | None:
        """Aggregated invariant-checker summary, if any unit was checked."""
        from repro.analysis import InvariantChecker

        stats: dict[str, int] = {}
        checked = False
        for result in self.results:
            inv = (result.obs or {}).get("invariants")
            if not inv:
                continue
            checked = True
            for key, value in inv["stats"].items():
                stats[key] = stats.get(key, 0) + value
        if not checked:
            return None
        checker = InvariantChecker()
        checker.stats.update(stats)
        return checker.report()

    def bench_doc(self, jobs: int | None = None,
                  groups: list[tuple[str, int, int]] | None = None
                  ) -> dict[str, Any]:
        """The ``BENCH_experiments.json`` document.

        ``groups`` — optional ``(name, first, one_past_last)`` slices of the
        outcome list (the CLI passes its experiment sections) — adds a
        per-group totals block with each group's slowest units, so a slow
        ``all`` run points at an experiment without spelunking the flat
        unit list.
        """
        hits = sum(1 for o in self.outcomes if o.status == "hit")
        dedups = sum(1 for o in self.outcomes if o.status == "dedup")
        misses = sum(1 for o in self.outcomes if o.status == "miss")
        doc = {
            "schema": 1,
            "sim_version": self.sim_version,
            "root_seed": self.root_seed,
            "jobs": jobs,
            "units": [
                {"name": o.name, "scenario": o.scenario_hash[:12],
                 "seed": o.seed, "status": o.status,
                 "wall_s": round(o.wall_s, 6), "sim_time_s": o.sim_time_s}
                for o in self.outcomes],
            "totals": {
                "units": len(self.outcomes),
                "hits": hits, "dedups": dedups, "misses": misses,
                "hit_rate": self.hit_rate,
                "wall_s": round(sum(o.wall_s for o in self.outcomes), 6),
                "sim_time_s": sum(o.sim_time_s or 0.0
                                  for o in self.outcomes),
            },
        }
        if groups is not None:
            doc["groups"] = {
                name: self._group_doc(self.outcomes[lo:hi])
                for name, lo, hi in groups}
        profile = self.merged_profile()
        if profile["sites"]:
            from repro.obs import profile_bench_section

            doc["profile"] = profile_bench_section(profile)
        return doc

    @staticmethod
    def _group_doc(outcomes: list[UnitOutcome],
                   n_slowest: int = 3) -> dict[str, Any]:
        slowest = sorted(outcomes, key=lambda o: (-o.wall_s, o.name))
        return {
            "units": len(outcomes),
            "misses": sum(1 for o in outcomes if o.status == "miss"),
            "wall_s": round(sum(o.wall_s for o in outcomes), 6),
            "sim_time_s": sum(o.sim_time_s or 0.0 for o in outcomes),
            "slowest": [{"name": o.name, "status": o.status,
                         "wall_s": round(o.wall_s, 6)}
                        for o in slowest[:n_slowest]],
        }


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _np_safe(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"payload value {value!r} is not JSON-serializable")


def _jsonable(payload: Any) -> Any:
    """Canonicalize a compute payload to plain JSON types, so cached,
    pooled and inline executions yield literally identical rows."""
    return json.loads(json.dumps(payload, default=_np_safe))


def execute_unit(scenario: Scenario, seed: int | None, capture: Capture,
                 root_seed: int | None, version: str) -> ExperimentResult:
    """Run one scenario under its own context-scoped observer.

    Module-level (not a closure) so a :class:`ProcessPoolExecutor` can
    pickle it into workers; also the inline path for ``jobs=1``.
    """
    fn = scenario.resolve()
    kwargs = dict(scenario.params)
    if scenario.seeded:
        kwargs["seed"] = seed
    with observed() as obs:
        checker = None
        if capture.invariants:
            from repro.analysis import attach_invariant_checker

            checker = attach_invariant_checker(obs)
        if capture.timeline:
            from repro.obs import attach_timeline

            attach_timeline(obs, capture.sample_interval)
        if capture.profile:
            from repro.obs import attach_profiler

            attach_profiler(obs)
        recorder = None
        if capture.flightrec is not None:
            from repro.obs import attach_flightrec

            recorder = attach_flightrec(obs)
            recorder.provenance = {
                "scenario": scenario.name,
                "scenario_hash": scenario.content_hash(),
                "fn": scenario.fn,
                "seed": seed,
                "root_seed": root_seed if scenario.seeded else None,
                "sim_version": version,
            }
        try:
            payload = fn(**kwargs)
        except Exception as exc:
            if recorder is not None:
                recorder.incident("compute_exception", error=repr(exc))
                recorder.dump_to(capture.flightrec, scenario.name, obs=obs)
            raise
        if recorder is not None and recorder.incidents:
            # Non-fatal incidents (e.g. an abandoned repair ladder) still
            # deserve a postmortem bundle.
            recorder.dump_to(capture.flightrec, scenario.name, obs=obs)
        snap = obs_snapshot(obs, include_trace=capture.trace)
        if checker is not None:
            snap["invariants"] = {"stats": dict(checker.stats),
                                  "report": checker.report()}
    payload = _jsonable(payload)
    if not isinstance(payload, dict) or "rows" not in payload:
        raise TypeError(
            f"scenario {scenario.name!r}: compute function {scenario.fn!r} "
            "must return a mapping with a 'rows' list")
    return ExperimentResult(
        name=scenario.name,
        rows=payload["rows"],
        meta=payload.get("meta", {}),
        provenance=Provenance(
            fn=scenario.fn,
            params=_jsonable(scenario.params),
            scenario_hash=scenario.content_hash(),
            seed=seed,
            root_seed=root_seed if scenario.seeded else None,
            sim_version=version,
        ),
        obs=snap,
    )


def _timed_execute(scenario: Scenario, seed: int | None, capture: Capture,
                   root_seed: int | None,
                   version: str) -> tuple[ExperimentResult, float]:
    t0 = time.perf_counter()
    result = execute_unit(scenario, seed, capture, root_seed, version)
    return result, time.perf_counter() - t0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_scenarios(scenarios: list[Scenario],
                  options: RunOptions | None = None) -> RunReport:
    """Execute every scenario; results come back in input order."""
    options = options or RunOptions()
    capture = options.capture
    version = repro_version()
    cache = None
    if options.cache:
        cache = ResultCache(options.cache_dir, version=version)

    n = len(scenarios)
    seeds: list[int | None] = [s.derive_seed(options.seed) for s in scenarios]
    results: list[ExperimentResult | None] = [None] * n
    outcomes: list[UnitOutcome | None] = [None] * n
    first_of: dict[tuple[str, int | None], int] = {}
    dedups: list[tuple[int, int]] = []  # (unit index, index it shares)
    to_run: list[int] = []

    done = 0

    def note(status: str, name: str) -> None:
        nonlocal done
        done += 1
        if options.progress is not None:
            options.progress(done, n, status, name)

    for i, (unit, seed) in enumerate(zip(scenarios, seeds)):
        key = (unit.content_hash(), seed)
        prior = first_of.get(key)
        if prior is not None:
            dedups.append((i, prior))
            continue
        first_of[key] = i
        if cache is not None and not capture.needs_live_run:
            t0 = time.perf_counter()
            hit = cache.load(unit, seed)
            if hit is not None:
                results[i] = hit
                outcomes[i] = UnitOutcome(
                    name=unit.name, scenario_hash=key[0], seed=seed,
                    status="hit", wall_s=time.perf_counter() - t0,
                    sim_time_s=(hit.obs or {}).get("sim_time_s"))
                note("hit", unit.name)
                continue
        to_run.append(i)

    #: Per-run payloads never stored in the cache: bulky (trace events),
    #: only meaningful for the run that asked (timeline), or outright
    #: nondeterministic (profile).  A cached row must stay byte-identical
    #: to a freshly computed plain row.
    _uncacheable = ("trace_events", "timeline", "profile")

    def record_miss(i: int, result: ExperimentResult, wall: float) -> None:
        results[i] = result
        outcomes[i] = UnitOutcome(
            name=result.name, scenario_hash=result.provenance.scenario_hash,
            seed=seeds[i], status="miss", wall_s=wall,
            sim_time_s=(result.obs or {}).get("sim_time_s"))
        if cache is not None:
            # Strip bulky per-run payloads; keep the deterministic summary
            # so warm hits still report sim-time and merge into --metrics.
            stored = result
            if result.obs and any(k in result.obs for k in _uncacheable):
                slim = {k: v for k, v in result.obs.items()
                        if k not in _uncacheable}
                stored = replace(result, obs=slim)
            cache.store(scenarios[i], seeds[i], stored)
        note("miss", result.name)

    if len(to_run) > 1 and options.jobs > 1:
        workers = min(options.jobs, len(to_run))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_timed_execute, scenarios[i], seeds[i],
                            capture, options.seed, version): i
                for i in to_run}
            for future in as_completed(futures):
                result, wall = future.result()
                record_miss(futures[future], result, wall)
    else:
        for i in to_run:
            result, wall = _timed_execute(scenarios[i], seeds[i], capture,
                                          options.seed, version)
            record_miss(i, result, wall)

    for i, prior in dedups:
        shared = results[prior]
        assert shared is not None
        results[i] = replace(shared, name=scenarios[i].name)
        outcomes[i] = UnitOutcome(
            name=scenarios[i].name, scenario_hash=shared.provenance.scenario_hash,
            seed=seeds[i], status="dedup", wall_s=0.0,
            sim_time_s=(shared.obs or {}).get("sim_time_s"))
        note("dedup", scenarios[i].name)

    return RunReport(results=results, outcomes=outcomes,  # type: ignore[arg-type]
                     root_seed=options.seed, sim_version=version)
