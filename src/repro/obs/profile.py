"""Wall-clock profiler for the engine dispatch loop.

"Where did the 39 seconds go" is a *host*-time question, so unlike every
other observer (sim-time spans, sim-time timelines) this one reads the
wall clock — and therefore ships in its own snapshot key (``profile``)
that is stripped from cached results and absent from default ``--json``
output, keeping deterministic artifacts deterministic.

The engine binds the observer's ``on_resume`` hook while a profiler is
attached (one attribute load per resume); each process resumption
timestamps ``perf_counter`` and attributes the elapsed interval to the
*previously* resumed process's code site — the generator function's
``(name, file, line)``, read off ``gi_code``.  That interval covers the
generator's ``send`` plus the engine work it caused (event scheduling,
callback dispatch), which is exactly the per-process-type cost a flame
table wants.  Time before the first resume and after the last one
(``stop()``) is attributed to the engine itself.

The readout (:meth:`Profiler.profile_doc`) is a ``repro.profile/1``
document; :func:`merge_profiles` sums site rows across units, and
:func:`profile_bench_section` shapes the merged doc into the per-section
rows a ``repro.bench`` results document carries.
"""

from __future__ import annotations

import time
from typing import Any

#: Profile document schema identifier.
PROFILE_SCHEMA = "repro.profile/1"

#: Site key for engine time outside any process generator.
ENGINE_SITE = "<engine>"


def _site_of(process) -> str:
    """``generator_name (file.py:lineno)`` for a resumed process."""
    gen = getattr(process, "_gen", None)
    code = getattr(gen, "gi_code", None)
    if code is None:
        return ENGINE_SITE
    filename = code.co_filename.rsplit("/", 1)[-1]
    return f"{code.co_name} ({filename}:{code.co_firstlineno})"


class Profiler:
    """Attributes host time per resumed process code site."""

    __slots__ = ("sites", "_last_t", "_last_site", "_t0", "_stopped")

    def __init__(self):
        #: site -> [resumes, wall seconds].
        self.sites: dict[str, list[float]] = {}
        self._last_t: float | None = None
        self._last_site: str | None = None
        self._t0 = time.perf_counter()
        self._stopped = False

    # ------------------------------------------------------------------
    def on_resume(self, process) -> None:
        """Engine hook: a process generator is about to be resumed."""
        t = time.perf_counter()
        last = self._last_site
        if last is not None:
            self.sites[last][1] += t - self._last_t
        site = _site_of(process)
        acc = self.sites.get(site)
        if acc is None:
            acc = [0, 0.0]
            self.sites[site] = acc
        acc[0] += 1
        self._last_t = t
        self._last_site = site

    def stop(self) -> None:
        """Close the open interval (call once, when measuring ends)."""
        if self._stopped:
            return
        self._stopped = True
        t = time.perf_counter()
        if self._last_site is not None:
            self.sites[self._last_site][1] += t - self._last_t
            self._last_site = None

    # ------------------------------------------------------------------
    def profile_doc(self) -> dict[str, Any]:
        """The JSON-safe ``repro.profile/1`` document."""
        self.stop()
        total = time.perf_counter() - self._t0
        attributed = sum(acc[1] for acc in self.sites.values())
        rows = [{"site": site, "resumes": int(acc[0]),
                 "wall_s": round(acc[1], 6)}
                for site, acc in self.sites.items()]
        rows.sort(key=lambda r: (-r["wall_s"], r["site"]))
        return {
            "schema": PROFILE_SCHEMA,
            "total_wall_s": round(total, 6),
            "attributed_wall_s": round(attributed, 6),
            "sites": rows,
        }


def merge_profiles(docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum per-unit profile docs by code site."""
    sites: dict[str, list[float]] = {}
    total = 0.0
    attributed = 0.0
    for doc in docs:
        if not doc:
            continue
        total += doc.get("total_wall_s", 0.0)
        attributed += doc.get("attributed_wall_s", 0.0)
        for row in doc.get("sites", ()):
            acc = sites.setdefault(row["site"], [0, 0.0])
            acc[0] += row["resumes"]
            acc[1] += row["wall_s"]
    rows = [{"site": site, "resumes": int(acc[0]), "wall_s": round(acc[1], 6)}
            for site, acc in sites.items()]
    rows.sort(key=lambda r: (-r["wall_s"], r["site"]))
    return {"schema": PROFILE_SCHEMA, "total_wall_s": round(total, 6),
            "attributed_wall_s": round(attributed, 6), "sites": rows}


def profile_bench_section(doc: dict[str, Any],
                          n_slowest: int = 10) -> dict[str, Any]:
    """A merged profile as a ``repro.bench``-results-compatible section:
    totals plus the hottest sites, each with its share of attributed time."""
    attributed = doc.get("attributed_wall_s", 0.0) or 0.0
    hottest = [{
        "name": row["site"],
        "resumes": row["resumes"],
        "wall_s": row["wall_s"],
        "share": round(row["wall_s"] / attributed, 4) if attributed else 0.0,
    } for row in doc.get("sites", ())[:n_slowest]]
    return {
        "schema": doc.get("schema", PROFILE_SCHEMA),
        "total_wall_s": doc.get("total_wall_s", 0.0),
        "attributed_wall_s": attributed,
        "hottest": hottest,
    }


def summarize_profile(doc: dict[str, Any], n_rows: int = 15) -> str:
    """Plain-text flame table of a (merged) profile document."""
    rows = doc.get("sites", ())[:n_rows]
    if not rows:
        return "(no profile samples)"
    attributed = doc.get("attributed_wall_s", 0.0) or 0.0
    width = max(len(r["site"]) for r in rows)
    lines = ["== profile (wall clock, per process site) =="]
    for row in rows:
        share = row["wall_s"] / attributed if attributed else 0.0
        lines.append(f"{row['site'].ljust(width)}  "
                     f"{row['wall_s']:8.3f}s  {share:6.1%}  "
                     f"{row['resumes']} resumes")
    lines.append(f"{'total'.ljust(width)}  "
                 f"{doc.get('total_wall_s', 0.0):8.3f}s")
    return "\n".join(lines)


def attach_profiler(obs) -> Profiler:
    """Create a :class:`Profiler` and hook it into an observer; read out
    with ``obs.profiler.profile_doc()``."""
    profiler = Profiler()
    obs.profiler = profiler
    return profiler
