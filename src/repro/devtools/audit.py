"""Audit engine and CLI.

Usage::

    python -m repro.devtools.audit src tests benchmarks
    clear-audit src tests benchmarks        # console-script form

Walks the given files/directories (``.py`` only, skipping ``__pycache__``
and hidden directories), runs every registered rule, applies per-line
``# audit: allow[rule-id] reason`` suppressions, and prints findings as
``path:line:col: rule-id: message``.  Exits 0 when the tree is clean and
1 when there is at least one finding, so both CI and
``tests/test_devtools.py`` can gate on it.

Files marked ``# audit: fixture`` in their first lines are the auditor's
own known-bad test inputs; the default walk skips them (pass
``--include-fixtures`` or name a fixture file directly on the command
line to audit one).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Sequence

# Importing the rule modules populates the registry.
import repro.devtools.concurrency  # noqa: F401
import repro.devtools.determinism  # noqa: F401
import repro.devtools.latch_names  # noqa: F401
import repro.devtools.state_coverage  # noqa: F401
from repro.devtools.findings import (Finding, SourceModule,
                                     apply_suppressions, parse_module)
from repro.devtools.rules import RULES, Project, rule_ids

_SKIP_DIR_NAMES = frozenset({"__pycache__"})


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen: set[Path] = set()
    ordered: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(child for child in path.rglob("*.py")
                                if not _skipped(child))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def _skipped(path: Path) -> bool:
    return any(part in _SKIP_DIR_NAMES or part.startswith(".")
               for part in path.parts)


def load_modules(files: Iterable[Path],
                 root: Path | None = None) -> tuple[list[SourceModule],
                                                    list[Finding]]:
    """Parse files into modules; unparsable files become findings."""
    root = root or Path.cwd()
    modules: list[SourceModule] = []
    errors: list[Finding] = []
    for path in files:
        try:
            relpath = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            relpath = str(path)
        try:
            source = path.read_text(encoding="utf-8")
            modules.append(parse_module(source, path, relpath))
        except SyntaxError as exc:
            errors.append(Finding(
                path=relpath, line=exc.lineno or 1, col=(exc.offset or 1),
                rule_id="syntax-error",
                message=f"file does not parse: {exc.msg}"))
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(Finding(
                path=relpath, line=1, col=1, rule_id="syntax-error",
                message=f"file could not be read: {exc}"))
    return modules, errors


def audit_modules(modules: Sequence[SourceModule],
                  select: Sequence[str] | None = None) -> list[Finding]:
    """Run rules over already-parsed modules and apply suppressions."""
    project = Project(modules)
    known = rule_ids()
    active = [rule for rule in RULES
              if select is None or rule.rule_id in select]
    by_module: dict[str, list[Finding]] = {m.relpath: [] for m in modules}
    for rule in active:
        for finding in rule.check(project):
            by_module.setdefault(finding.path, []).append(finding)
    results: list[Finding] = []
    for module in modules:
        results.extend(apply_suppressions(
            module, by_module.get(module.relpath, []), known))
    return sorted(results)


def audit_paths(paths: Sequence[str | Path],
                root: Path | None = None,
                select: Sequence[str] | None = None,
                include_fixtures: bool = False) -> list[Finding]:
    """Audit files/directories; the public API used by tests and the CLI.

    Fixture-marked files are dropped unless ``include_fixtures`` is true or
    the file was named directly (not discovered through a directory walk).
    """
    explicit = {Path(p).resolve() for p in paths if Path(p).is_file()}
    files = collect_files([Path(p) for p in paths])
    modules, errors = load_modules(files, root=root)
    if not include_fixtures:
        modules = [module for module in modules
                   if not module.is_fixture
                   or module.path.resolve() in explicit]
    return sorted(audit_modules(modules, select=select) + errors)


def audit_source(source: str, relpath: str = "<memory>.py",
                 select: Sequence[str] | None = None,
                 companions: Sequence[SourceModule] = ()) -> list[Finding]:
    """Audit a source string (test helper -- no filesystem round-trip).

    ``companions`` are extra parsed modules added to the project, letting
    tests exercise cross-module resolution (e.g. a synthetic core whose
    base class lives in the real tree).
    """
    try:
        module = parse_module(source, Path(relpath), relpath)
    except SyntaxError as exc:
        return [Finding(path=relpath, line=exc.lineno or 1,
                        col=(exc.offset or 1), rule_id="syntax-error",
                        message=f"file does not parse: {exc.msg}")]
    findings = audit_modules([module, *companions], select=select)
    return [finding for finding in findings if finding.path == relpath]


def rule_table() -> list[tuple[str, str]]:
    """(rule_id, summary) pairs for docs and ``--list-rules``."""
    return sorted((rule.rule_id, rule.summary) for rule in RULES)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.audit",
        description=("Static determinism / state-coverage / concurrency "
                     "audit for the clear-repro tree."))
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to audit "
                             "(default: src tests benchmarks)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE-ID",
                        help="run only the named rule (repeatable)")
    parser.add_argument("--include-fixtures", action="store_true",
                        help="audit files marked '# audit: fixture' too")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule_id, summary in rule_table():
            print(f"{rule_id}: {summary}")
        return 0

    paths = options.paths or ["src", "tests", "benchmarks"]
    existing = [path for path in paths if Path(path).exists()]
    for missing in sorted(set(paths) - set(existing)):
        print(f"audit: skipping missing path {missing!r}", file=sys.stderr)
    if options.select:
        unknown = set(options.select) - set(rule_ids())
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    findings = audit_paths(existing, select=options.select,
                           include_fixtures=options.include_fixtures)
    for finding in findings:
        print(finding.format())
    scanned = len(collect_files([Path(p) for p in existing]))
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"audit: {scanned} file(s) scanned, {status}", file=sys.stderr)
    return 1 if findings else 0


def cli() -> None:
    """Console-script entry point (``clear-audit``)."""
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
