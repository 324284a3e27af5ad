"""One replica: build a workload's scenario list and run its draws.

Run by ``run.py`` in a fresh process per replica::

    python3 benchmarks/e2e/replica.py --workload fig9-w1 --root-seeds 7,8 \\
        [--trace]

and prints one JSON object as its last stdout line.  With ``--trace``
the draws run under ``cProfile`` with boundary spans installed
(:mod:`tracing`); without it nothing is installed in the program.

An untraced replica samples the host's speed all the way through
(:class:`SpeedSampler`) and reports each measured interval in reference
seconds as well as in host seconds.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import heapq
import json
import signal
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[2] / "src"

#: Wall seconds between two speed samples.
TICK_INTERVAL_S = 0.025
#: Iterations of the loop one speed sample times, after an untimed
#: warm-up, so the sample depends little on what the program just did to
#: the caches.
TICK_LOOP = 500
TICK_WARMUP = 200
#: Median seconds of one sample's loop on the host the bounds were
#: measured on (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11.7): at that
#: speed a reference second is a host second.
REF_TICK_S = 0.00043
#: Fewest samples a speed estimate averages.
MIN_TICKS = 8


def clock() -> float:
    """The monotonic clock every measured interval is read from."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size
    (Linux: "5" to ``clear_refs`` resets ``VmHWM``)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM")


def rows_digest(rows) -> str:
    """sha256 of a unit's rows in canonical JSON."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def speed_loop(n: int) -> None:
    """A fixed interpreter-bound loop.

    It does what a discrete-event simulator does most -- small object
    construction, attribute reads, dict updates and heap pushes -- so its
    time tracks the host's current speed for the program's own work.
    """
    heap: list = []
    table: dict = {}
    for i in range(n):
        item = _Item(i * 7 % 13, i)
        heapq.heappush(heap, (item.key, i))
        table[i % 97] = table.get(i % 97, 0) + item.value
        if len(heap) > 64:
            heapq.heappop(heap)


class SpeedSampler:
    """Samples the host's speed every ``TICK_INTERVAL_S`` of wall time.

    A ``SIGALRM`` handler times :func:`speed_loop` (about 3% of the
    process's time).  Shared hosts change speed by up to 2x for seconds
    at a time, and one vCPU independently of the other, so only samples
    taken while the measured work runs tell how fast it ran.
    :meth:`ref_seconds` turns a measured interval into reference
    seconds: its host seconds minus the time spent sampling inside it,
    times the mean sampled speed over the reference speed.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self.spent: list[float] = []

    def _tick(self, signum, frame) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        speed_loop(TICK_WARMUP)
        t1 = clock()
        speed_loop(TICK_LOOP)
        t2 = clock()
        self.stamps.append(t0)
        self.durations.append(t2 - t1)
        self.spent.append(t2 - t0)
        if was_enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_seconds(self, start: float, end: float,
                    busy: float | None = None) -> float:
        """Reference seconds of the work done between ``start`` and
        ``end`` (``clock()`` readings).

        ``busy`` is how many of the interval's host seconds the work
        took, all of them by default.  The speed is averaged over the
        samples inside the interval, or over the ``MIN_TICKS`` samples
        nearest its middle if it holds fewer.
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        spent = sum(self.spent[lo:hi])
        if hi - lo < MIN_TICKS:
            mid = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo = max(0, min(mid - MIN_TICKS // 2,
                            len(self.stamps) - MIN_TICKS))
            hi = lo + MIN_TICKS
        speed = statistics.fmean(REF_TICK_S / d
                                 for d in self.durations[lo:hi])
        return ((end - start if busy is None else busy) - spent) * speed


def _draw(units: list, root_seed: int, sampler: SpeedSampler | None,
          profiler=None) -> dict:
    from repro.runner import RunOptions, run_scenarios

    options = RunOptions(jobs=1, seed=root_seed, cache=False)
    reset_peak_rss()
    t0 = clock()
    if profiler is None:
        report = run_scenarios(units, options)
    else:
        profiler.enable()
        report = run_scenarios(units, options)
        profiler.disable()
    t1 = clock()
    counters = [(r.obs or {}).get("counters", {}) for r in report.results]
    draw = {
        "root_seed": root_seed,
        "wall_s": t1 - t0,
        "peak_rss_mb": peak_rss_mb(),
        "units": [{"name": o.name, "wall_s": o.wall_s,
                   "sha256": rows_digest(r.rows)}
                  for o, r in zip(report.outcomes, report.results)],
        "events": sum(c.get("engine.events_scheduled", 0) for c in counters),
        "process_resumes": sum(c.get("engine.process_resumes", 0)
                               for c in counters),
    }
    if sampler is not None:
        draw["ref_s"] = sampler.ref_seconds(t0, t1)
        # Units run back to back, so each one's interval follows from
        # the walls before it.
        start = t0
        for unit in draw["units"]:
            unit["ref_s"] = sampler.ref_seconds(start, start + unit["wall_s"])
            start += unit["wall_s"]
    return draw


def run(units: list, root_seeds: list[int], trace: bool,
        sampler: SpeedSampler | None = None) -> dict:
    """Run ``units`` once per root seed and describe the runs."""
    import numpy as np

    doc: dict = {"python": sys.version.split()[0], "numpy": np.__version__}
    if trace:
        import cProfile
        import pstats

        import tracing

        rec = tracing.SpanRecorder()
        restore = tracing.instrument(rec)
        profiler = cProfile.Profile()
        try:
            draws = [_draw(units, seed, None, profiler)
                     for seed in root_seeds]
        finally:
            restore()
        doc["layers_s"] = tracing.fold_profile(
            pstats.Stats(profiler).stats,
            lambda f: tracing.layer_for_file(f, SRC))
        doc["spans"] = tracing.span_summary(rec.spans)
        doc["counts"] = rec.counts
        doc["trace_events"] = tracing.chrome_events(rec.spans)
    else:
        draws = [_draw(units, seed, sampler) for seed in root_seeds]
    doc.update({"draws": draws, "wall_s": sum(d["wall_s"] for d in draws)})
    return doc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--root-seeds", required=True,
                        help="comma-separated root seeds, one per draw")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # A traced replica is profiled: samples would show up in its profile.
    sampler = None if args.trace else SpeedSampler()
    t_started = clock()
    if sampler is not None:
        sampler.start()
    units = WORKLOADS[args.workload].build()
    t_built = clock()
    # Set-up is the main thread's CPU time since the interpreter started:
    # the imports and scenario construction themselves, without the waits
    # a loaded host adds or the threads numpy's BLAS starts.
    doc = {"setup_cpu_s": time.thread_time()}
    doc.update(run(units, [int(s) for s in args.root_seeds.split(",")],
                   args.trace, sampler))
    if sampler is not None:
        sampler.stop()
        doc["setup_ref_s"] = sampler.ref_seconds(
            t_started, t_built, busy=doc["setup_cpu_s"])
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
