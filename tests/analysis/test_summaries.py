"""Interprocedural grant-escape summaries and the RES/FLT lifts.

The per-file CFG rules must assume any helper a grant is passed to takes
ownership (otherwise every delegation would be a leak report).  The
whole-program pass replaces that assumption with per-parameter summaries
— *releases*, *escapes*, *waits* — so leaks **through** helpers surface
and legitimate hand-offs stay quiet.
"""

import textwrap

from repro.analysis.callgraph import Project
from repro.analysis.summaries import GrantEscapePass, GrantSummaries


def build(source, path="src/repro/cluster/mod.py"):
    project = Project()
    project.add_source(textwrap.dedent(source), path)
    project.link()
    return project


def run_pass(source, path="src/repro/cluster/mod.py"):
    return GrantEscapePass(build(source, path)).run()


# ----------------------------------------------------------------------
# Summary computation
# ----------------------------------------------------------------------
HELPERS = """\
class Repair:
    def release_helper(self, queue, req):
        queue.release(req)

    def wait_helper(self, req):
        status = yield req
        return status

    def reader(self, req):
        return req.size

    def chain(self, queue, req):
        self.release_helper(queue, req)
"""


def test_summaries_classify_release_wait_and_read():
    project = build(HELPERS)
    summaries = GrantSummaries(project).run()

    def summary(name):
        fn = [f for f in project.functions.values() if f.name == name][0]
        return summaries.summary_of(fn.qualname)

    release = summary("release_helper")
    assert 2 in release.releases      # params are (self, queue, req)
    wait = summary("wait_helper")
    assert 1 in wait.waits
    assert 1 not in wait.releases and 1 not in wait.escapes
    reader = summary("reader")
    # an attribute read neither releases nor takes ownership
    assert 1 not in reader.releases and 1 not in reader.escapes


def test_summaries_propagate_release_through_call_chains():
    project = build(HELPERS)
    summaries = GrantSummaries(project).run()
    chain = [fn for fn in project.functions.values()
             if fn.name == "chain"][0]
    assert 2 in summaries.summary_of(chain.qualname).releases


# ----------------------------------------------------------------------
# RES301 lift: leak through a helper that only reads the grant
# ----------------------------------------------------------------------
LEAK_THROUGH_READER = """\
class Repair:
    def reader(self, req):
        return req.size

    def repair_leak(self, queue):
        req = queue.request()
        yield req
        size = self.reader(req)
        return size
"""


def test_res301_lift_flags_leak_through_read_only_helper():
    violations = run_pass(LEAK_THROUGH_READER)
    assert [v.rule for v in violations] == ["RES301"]
    assert "req" in violations[0].message


def test_res301_lift_quiet_when_helper_releases():
    source = LEAK_THROUGH_READER.replace(
        "    def reader(self, req):\n"
        "        return req.size\n",
        "    def reader(self, req):\n"
        "        req.release()\n"
        "        return 0\n")
    assert run_pass(source) == []


def test_res301_lift_quiet_when_helper_takes_ownership():
    # Storing the grant is an escape: ownership transferred, the caller
    # is no longer on the hook.
    source = LEAK_THROUGH_READER.replace(
        "    def reader(self, req):\n"
        "        return req.size\n",
        "    def reader(self, req):\n"
        "        self.pending = req\n"
        "        return 0\n")
    assert run_pass(source) == []


def test_res301_lift_quiet_with_try_finally():
    source = """\
class Repair:
    def reader(self, req):
        return req.size

    def repair_ok(self, queue):
        req = queue.request()
        yield req
        try:
            size = self.reader(req)
        finally:
            req.release()
        return size
"""
    assert run_pass(source) == []


# ----------------------------------------------------------------------
# FLT501 lift: repair path outsources the hedgeless wait to a helper
# ----------------------------------------------------------------------
OUTSOURCED_WAIT = """\
class Repair:
    def wait_helper(self, req):
        status = yield req
        req.release()
        return status

    def repair_chunk(self, disk):
        req = disk.request()
        status = yield from self.wait_helper(req)
        return status
"""


def test_flt501_lift_flags_outsourced_unprotected_wait():
    violations = run_pass(OUTSOURCED_WAIT)
    assert "FLT501" in [v.rule for v in violations]
    flt = [v for v in violations if v.rule == "FLT501"][0]
    assert "wait_helper" in flt.message


def test_flt501_lift_quiet_outside_repair_paths():
    source = OUTSOURCED_WAIT.replace("repair_chunk", "serve_chunk")
    assert [v.rule for v in run_pass(source)
            if v.rule == "FLT501"] == []


def test_flt501_lift_quiet_when_wait_is_hedged():
    source = """\
class Repair:
    def wait_helper(self, req):
        status = yield req
        req.release()
        return status

    def repair_chunk(self, disk, env):
        req = disk.request()
        try:
            status = yield from self.wait_helper(req)
        finally:
            req.cancel()
        return status
"""
    assert [v.rule for v in run_pass(source)
            if v.rule == "FLT501"] == []


def test_flt501_lift_walks_the_per_file_rule_roots():
    """Protection nested in an `if` holds, a call in a loop body is flagged
    once, and `req.release()` counts as cleanup — as for the per-file rule."""
    source = """\
class Repair:
    def wait_helper(self, req):
        status = yield req
        return status

    def repair_chunk(self, disk, n):
        req = disk.request()
        if n:
            try:
                yield from self.wait_helper(req)
            finally:
                req.cancel()
        try:
            yield from self.wait_helper(req)
        finally:
            req.release()
        for _ in range(n):
            if n:
                yield from self.wait_helper(req)  # unprotected
"""
    flagged = [v.line for v in run_pass(source) if v.rule == "FLT501"]
    assert flagged == [i for i, text in enumerate(source.splitlines(), 1)
                       if "# unprotected" in text]
