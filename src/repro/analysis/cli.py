"""The simlint command line (``python -m repro.analysis`` / ``simlint``).

Two tiers share one entry point:

* the default **per-file** run — the twelve syntactic/CFG rules, with
  ``--fix`` autofixes;
* ``--whole-program`` — per-file rules *plus* the project-wide passes
  (determinism taint, cooperative-process races, interprocedural grant
  escape), with per-pass ``--stats`` timings and the ``sarif`` /
  ``github`` output formats used by CI.

Exit status: 0 when every checked file is clean, 1 when violations
remain (after ``--fix``, only unfixed violations count), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.analysis.linter import apply_fixes, iter_python_files, lint_file
from repro.analysis.rules import ALL_RULES


def _list_rules() -> str:
    from repro.analysis.wholeprogram import WHOLE_PROGRAM_RULES

    scope_names = {"syntactic": "syntactic, single AST",
                   "cfg": "CFG-based, single function"}
    lines = ["simlint rules (suppress any with `# simlint: disable=ID`):"]
    for scope in ("syntactic", "cfg"):
        lines.append("")
        lines.append(f"Per-file rules ({scope_names[scope]}):")
        for rule in ALL_RULES:
            if rule.scope != scope:
                continue
            fix = "  [autofix]" if rule.autofixable else ""
            lines.append(f"  {rule.id}{fix}")
            lines.append(f"      {rule.summary}")
    lines.append("")
    lines.append("Whole-program passes (`--whole-program`):")
    by_pass: dict[str, list] = {}
    for rid, pass_name, summary in WHOLE_PROGRAM_RULES:
        by_pass.setdefault(pass_name, []).append((rid, summary))
    for pass_name in sorted(by_pass):
        lines.append(f"  [{pass_name}]")
        for rid, summary in by_pass[pass_name]:
            lines.append(f"  {rid}")
            lines.append(f"      {summary}")
    return "\n".join(lines)


def _per_file_main(args, select) -> int:
    files = iter_python_files(args.paths)
    if not files:
        print(f"simlint: no python files under {args.paths}", file=sys.stderr)
        return 2

    remaining = []
    fixed = 0
    for path in files:
        violations = lint_file(path, select)
        if args.fix and any(v.fix for v in violations):
            fixed += apply_fixes(path, violations)
            violations = lint_file(path, select)  # re-lint the fixed file
        remaining.extend(violations)

    for violation in remaining:
        print(violation.format())
    if fixed:
        print(f"simlint: fixed {fixed} violation(s)")
    if remaining:
        by_rule = Counter(v.rule for v in remaining)
        summary = ", ".join(f"{r}×{n}" for r, n in sorted(by_rule.items()))
        print(f"simlint: {len(remaining)} violation(s) in "
              f"{len(files)} file(s) ({summary})")
        return 1
    print(f"simlint: {len(files)} file(s) clean")
    return 0


def _whole_program_main(args, select) -> int:
    from repro.analysis.wholeprogram import (
        run_whole_program,
        to_github,
        to_sarif,
    )

    run = run_whole_program(args.paths, select=select)
    findings = run.findings

    if args.format == "sarif":
        sys.stdout.write(to_sarif(findings))
    elif args.format == "github":
        sys.stdout.write(to_github(findings))
    else:
        for violation in findings:
            print(violation.format())

    if args.stats:
        print(run.stats.format(), file=sys.stderr)

    if findings:
        if args.format == "text":
            by_rule = Counter(v.rule for v in findings)
            summary = ", ".join(f"{r}×{n}"
                                for r, n in sorted(by_rule.items()))
            print(f"simlint: {len(findings)} violation(s) in "
                  f"{run.stats.files_total} file(s) ({summary})")
        return 1
    if args.format == "text":
        print(f"simlint: {run.stats.files_total} file(s) clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="DES-aware static analysis for the repro codebase.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical autofixes in place")
    parser.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule IDs to run (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--whole-program", action="store_true",
                        help="also run the project-wide passes (taint, "
                             "races, grant escape)")
    parser.add_argument("--format", choices=("text", "sarif", "github"),
                        default="text",
                        help="output format for --whole-program runs")
    parser.add_argument("--stats", action="store_true",
                        help="print per-pass timings")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    select = args.select.split(",") if args.select else None
    if not args.whole_program:
        if args.stats:
            parser.error("--stats requires --whole-program")
        if args.format != "text":
            parser.error("--format requires --whole-program")
        return _per_file_main(args, select)

    if args.fix:
        parser.error("--fix cannot be combined with --whole-program")
    return _whole_program_main(args, select)


if __name__ == "__main__":
    sys.exit(main())