"""Run the analysis pipeline over files and trees.

Two tiers since the flow-aware upgrade:

* **per-file checkers** (``ALL_CHECKERS``) — AST/CFG rules that see one
  module at a time; their raw findings and the module's call-graph
  summary are cacheable by content hash;
* **whole-program passes** — DET005 (the determinism closure over the
  project call graph) and LNT001 (stale suppressions) — which need
  every file's summary/suppressions and therefore run live on each
  invocation, cheaply, from the (possibly cached) summaries.

Suppressions and the allowlist are always applied live: the allowlist
first (an allowlisted finding never marks a suppression as "used"),
then inline suppressions, whose usage ledger feeds LNT001.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from fnmatch import fnmatch
from pathlib import Path
from typing import Any

from repro.lint.base import Checker, collect_aliases
from repro.lint.cache import LintCache
from repro.lint.callgraph import ProjectIndex, module_summary
from repro.lint.closure import DeterminismClosure
from repro.lint.determinism import (
    AmbientEntropyChecker,
    OrderStableIterChecker,
    RandomnessChecker,
    WallClockChecker,
)
from repro.lint.lifecycle import EventLifecycleChecker
from repro.lint.protocol import ProtocolFSMChecker
from repro.lint.resources import ResourcePairingChecker
from repro.lint.simsafety import (
    FloatEqChecker,
    MutableDefaultChecker,
    ReentrantRunChecker,
    TelemetryGuardChecker,
)
from repro.lint.suppress import SuppressionIndex
from repro.lint.violations import Violation

#: Every per-file checker, in code order.
ALL_CHECKERS: tuple[type[Checker], ...] = (
    WallClockChecker,
    RandomnessChecker,
    OrderStableIterChecker,
    AmbientEntropyChecker,
    ProtocolFSMChecker,
    ResourcePairingChecker,
    ReentrantRunChecker,
    FloatEqChecker,
    MutableDefaultChecker,
    TelemetryGuardChecker,
    EventLifecycleChecker,
)

#: Whole-program codes that run over the stitched project index.
PROJECT_CODES = frozenset({DeterminismClosure.code})
#: Meta codes computed from the run itself.
META_CODES = frozenset({"LNT001"})
#: Every code ``--select`` accepts.
KNOWN_CODES = (
    frozenset(c.code for c in ALL_CHECKERS) | PROJECT_CODES | META_CODES
)

#: Path-glob -> codes exempted there. These are the *structural*
#: exemptions — places whose whole purpose is the thing the rule bans.
#: One-off sites use inline ``# lint: ok(CODE): reason`` instead.
DEFAULT_ALLOWLIST: tuple[tuple[str, tuple[str, ...]], ...] = (
    # the one sanctioned construction site for numpy generators
    ("*/repro/sim/rng.py", ("DET002",)),
    # telemetry holds the wall-clock fallback for untraced spans and
    # calls its own (non-nullable) surfaces internally
    ("*/repro/telemetry/*", ("DET001", "SIM004")),
    # CLI progress timing is operator-facing wall time by design
    ("*/repro/cli.py", ("DET001",)),
    # the kernel self-profiler measures the host, not the simulation,
    # and the obs layer mirrors telemetry's internal-surface pattern
    ("*/repro/obs/*", ("DET001", "SIM004")),
    # benchmarks measure real compute on real cores
    ("*benchmarks/*", ("DET001", "DET002")),
    # lint's own docstrings/regexes spell out suppression syntax, which
    # the textual parser cannot tell from real suppressions
    ("*/repro/lint/*", ("LNT001",)),
)


def allowed_codes(path: str, allowlist: Sequence[tuple[str, Sequence[str]]]) -> frozenset[str]:
    """Codes exempted for ``path`` under ``allowlist``."""
    posix = Path(path).as_posix()
    out: set[str] = set()
    for pattern, codes in allowlist:
        if fnmatch(posix, pattern):
            out.update(codes)
    return frozenset(out)


def _analyze(
    source: str, path: str, checkers: Sequence[type[Checker]]
) -> tuple[list[Violation], dict[str, Any]]:
    """Raw per-file results: pre-suppression violations + summary."""
    tree = ast.parse(source, filename=path)
    aliases = collect_aliases(tree)
    found: set[Violation] = set()
    for cls in checkers:
        found.update(cls(path, tree, aliases).run())
    return sorted(found), module_summary(path, tree)


class FileState:
    """One file's inputs to the whole-program passes."""

    __slots__ = ("path", "source", "raw", "summary", "suppressions", "exempt")

    def __init__(
        self,
        path: str,
        source: str,
        raw: list[Violation],
        summary: dict[str, Any],
        allowlist: Sequence[tuple[str, Sequence[str]]],
    ) -> None:
        self.path = path
        self.source = source
        self.raw = raw
        self.summary = summary
        self.suppressions = SuppressionIndex(source)
        self.exempt = allowed_codes(path, allowlist)


class LintRun:
    """A finished run: the findings plus everything needed to act on them."""

    def __init__(self, violations: list[Violation], files: list[FileState], cache: LintCache | None) -> None:
        self.violations = violations
        self.files = files
        self.cache = cache


def lint_source(
    source: str,
    path: str = "<string>",
    checkers: Sequence[type[Checker]] | None = None,
) -> list[Violation]:
    """Lint a source string with the per-file checkers only.

    Suppressions apply, the allowlist and whole-program passes do not —
    this is the unit-test surface for individual rules.
    """
    raw, _summary = _analyze(source, path, checkers or ALL_CHECKERS)
    suppressions = SuppressionIndex(source)
    return [v for v in raw if not suppressions.is_suppressed(v.code, v.line)]


def lint_file(
    path: str | Path,
    checkers: Sequence[type[Checker]] | None = None,
    allowlist: Sequence[tuple[str, Sequence[str]]] = DEFAULT_ALLOWLIST,
) -> list[Violation]:
    """Lint one file with the per-file checkers, honouring both filters."""
    p = Path(path)
    exempt = allowed_codes(p.as_posix(), allowlist)
    source = p.read_text()
    raw, _summary = _analyze(source, p.as_posix(), checkers or ALL_CHECKERS)
    suppressions = SuppressionIndex(source)
    return [
        v
        for v in raw
        if v.code not in exempt and not suppressions.is_suppressed(v.code, v.line)
    ]


def _collect_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def run_lint(
    paths: Sequence[str | Path],
    checkers: Sequence[type[Checker]] | None = None,
    allowlist: Sequence[tuple[str, Sequence[str]]] = DEFAULT_ALLOWLIST,
    select: Sequence[str] | None = None,
    cache_dir: str | Path | None = None,
) -> LintRun:
    """The full pipeline: per-file checkers, closure, stale suppressions.

    ``select`` limits the run to the named codes (whole-program passes
    included); ``checkers`` (the older API) limits the per-file tier
    and, when given without ``select``, turns the whole-program passes
    off — callers supplying explicit checker classes want exactly
    those. ``cache_dir`` enables the content-hash cache.
    """
    per_file = list(checkers) if checkers is not None else list(ALL_CHECKERS)
    if select is not None:
        wanted = frozenset(select)
        per_file = [c for c in per_file if c.code in wanted]
        run_closure = DeterminismClosure.code in wanted
        run_stale = "LNT001" in wanted
    else:
        run_closure = run_stale = checkers is None
    per_file_codes = frozenset(c.code for c in per_file)

    cache = LintCache(cache_dir) if cache_dir is not None else None
    states: list[FileState] = []
    for f in _collect_files(paths):
        posix = f.as_posix()
        source = f.read_text()
        raw: list[Violation] | None = None
        summary: dict[str, Any] | None = None
        key = None
        if cache is not None:
            key = cache.key(source.encode(), per_file_codes)
            hit = cache.load(key)
            if hit is not None:
                raw, summary = hit
        if raw is None or summary is None:
            raw, summary = _analyze(source, posix, per_file)
            if cache is not None and key is not None:
                cache.store(key, raw, summary)
        states.append(FileState(posix, source, raw, summary, allowlist))

    violations: list[Violation] = []
    by_path = {fs.path: fs for fs in states}
    for fs in states:
        violations.extend(
            v
            for v in fs.raw
            if v.code not in fs.exempt
            and not fs.suppressions.is_suppressed(v.code, v.line)
        )

    if run_closure:
        index = ProjectIndex([fs.summary for fs in states])

        def sanctioned(path: str, code: str, line: int) -> bool:
            fs = by_path.get(path)
            if fs is None:
                return False
            return code in fs.exempt or fs.suppressions.is_suppressed(code, line)

        for v in DeterminismClosure.run_project(index, sanctioned):
            fs = by_path.get(v.path)
            if fs is None:
                violations.append(v)
            elif v.code not in fs.exempt and not fs.suppressions.is_suppressed(
                v.code, v.line
            ):
                violations.append(v)

    if run_stale:
        checked = per_file_codes | ({DeterminismClosure.code} if run_closure else set())
        if per_file_codes == frozenset(c.code for c in ALL_CHECKERS) and run_closure:
            checked |= {"*"}
        for fs in states:
            if "LNT001" in fs.exempt:
                continue
            for entry in fs.suppressions.stale_entries(checked):
                unused = sorted(entry.unused_codes())
                violations.append(
                    Violation(
                        path=fs.path,
                        line=entry.lineno,
                        col=entry.span[0],
                        code="LNT001",
                        message=(
                            "stale suppression: "
                            + ", ".join(unused)
                            + " no longer suppress anything here; remove or "
                            "narrow (repro lint --fix-suppressions)"
                        ),
                    )
                )
            for entry in fs.suppressions.entries:
                if entry.reason is None:
                    violations.append(
                        Violation(
                            path=fs.path,
                            line=entry.lineno,
                            col=entry.span[0],
                            code="LNT001",
                            message=(
                                "suppression without a reason; write "
                                "`# lint: ok(CODE): why this is legitimate`"
                            ),
                        )
                    )

    return LintRun(sorted(set(violations)), states, cache)


def lint_paths(
    paths: Sequence[str | Path],
    checkers: Sequence[type[Checker]] | None = None,
    allowlist: Sequence[tuple[str, Sequence[str]]] = DEFAULT_ALLOWLIST,
    select: Sequence[str] | None = None,
    cache_dir: str | Path | None = None,
) -> list[Violation]:
    """Lint files and/or directory trees; output order is stable."""
    return run_lint(
        paths,
        checkers=checkers,
        allowlist=allowlist,
        select=select,
        cache_dir=cache_dir,
    ).violations
