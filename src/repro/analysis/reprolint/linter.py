"""The reprolint driver: file discovery, rule scoping, allowlisting.

``lint_paths`` walks the given files/directories, runs each rule over
the files inside its scope, filters the hits through the justified
allowlist (:mod:`~repro.analysis.reprolint.config`), and returns a
:class:`LintReport`.  ``repro lint`` is a thin CLI shell around it.

Scoping is by repo-relative path (the part of the absolute path from
``src/repro/`` on), so the linter behaves identically from any working
directory — and so tests can stage doctored copies of real kernels
under a temporary ``src/repro/...`` tree and lint them as if in-repo.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.reprolint import rules_flow  # noqa: F401  (registers RL006-RL009)
from repro.analysis.reprolint.cache import CACHE_BASENAME, LintCache
from repro.analysis.reprolint.config import AllowEntry, LintConfig, load_config
from repro.analysis.reprolint.rules import RULE_CHECKERS, Violation

__all__ = [
    "LintReport",
    "default_lint_root",
    "discover_config",
    "lint_paths",
    "path_key_for",
    "rules_for_path",
]

#: Which files each rule inspects (path-key prefixes; a trailing ``/``
#: means the whole subtree).  RL004's simulation scope is everything in
#: the package except the layers whose *job* is real time / host I/O.
RULE_SCOPES: Dict[str, Tuple[str, ...]] = {
    "RL001": (
        "src/repro/engine/",
        "src/repro/decomp/",
        "src/repro/connectivity/",
    ),
    "RL002": (
        "src/repro/engine/kernels.py",
        "src/repro/engine/workspace.py",
        "src/repro/engine/parallel.py",
    ),
    "RL003": (
        "src/repro/engine/",
        "src/repro/decomp/",
        "src/repro/connectivity/",
    ),
    "RL004": ("src/repro/",),
    "RL005": ("src/repro/",),
    # The flow rules (interprocedural; see rules_flow.py).
    "RL006": ("src/repro/engine/",),
    "RL007": ("src/repro/engine/parallel.py",),
    "RL008": (
        "src/repro/runtime/",
        "src/repro/engine/",
        "src/repro/primitives/hashing.py",
        "src/repro/decomp/",
        "src/repro/connectivity/",
    ),
    "RL009": ("src/repro/engine/parallel.py",),
    "RL010": ("src/repro/obs/",),
}

#: Carve-outs from RL004's blanket scope: the wall-clock harness and
#: the experiment/benchmark layers measure real elapsed time by design,
#: the fuzz loop enforces its ``--time-budget`` stopping condition, the
#: session layer's ``execute_profiled`` reports real run time in its
#: profiles (it *is* the run harness), and the tracer timestamps spans
#: with real time by definition (RL010 polices its purity instead).
RL004_EXEMPT: Tuple[str, ...] = (
    "src/repro/analysis/wallclock.py",
    "src/repro/experiments/",
    "src/repro/fuzz/harness.py",
    "src/repro/obs/",
    "src/repro/runtime/session.py",
)

#: Carve-out from RL005's blanket scope: the runtime package hosts the
#: replacement API (``current_context()`` and the scoped managers), so
#: its own names are not call sites of the retired accessors.
RL005_EXEMPT: Tuple[str, ...] = ("src/repro/runtime/",)


def path_key_for(path: Path) -> str:
    """Repo-relative POSIX key for *path* (from ``src/repro/`` on).

    Falls back to the plain POSIX path when the file is not under a
    ``src/repro`` tree (ad-hoc lint targets).
    """
    posix = path.resolve().as_posix()
    marker = "/src/repro/"
    i = posix.rfind(marker)
    if i >= 0:
        return posix[i + 1 :]
    if posix.startswith("src/repro/"):
        return posix
    return path.as_posix()


def rules_for_path(path_key: str) -> List[str]:
    """The rule ids whose scope covers *path_key* (report order)."""
    selected = []
    for rule, prefixes in RULE_SCOPES.items():
        if not any(
            path_key == p or (p.endswith("/") and path_key.startswith(p))
            for p in prefixes
        ):
            continue
        if rule == "RL004" and any(
            path_key == p or (p.endswith("/") and path_key.startswith(p))
            for p in RL004_EXEMPT
        ):
            continue
        if rule == "RL005" and any(
            path_key == p or (p.endswith("/") and path_key.startswith(p))
            for p in RL005_EXEMPT
        ):
            continue
        selected.append(rule)
    return selected


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: int = 0
    stale_entries: List[AllowEntry] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and not self.stale_entries
            and not self.parse_errors
        )

    def format_lines(self) -> List[str]:
        lines = [v.format() for v in self.violations]
        lines.extend(self.parse_errors)
        for entry in self.stale_entries:
            lines.append(
                f"reprolint.toml: stale allowlist entry {entry.rule} at "
                f"{entry.site} suppressed nothing — remove it or fix the site"
            )
        return lines

    def summary(self) -> str:
        return (
            f"reprolint: {self.files_checked} file(s), "
            f"{len(self.violations)} violation(s), "
            f"{self.suppressed} allowlisted"
        )


def default_lint_root() -> Path:
    """The package's own source tree (what bare ``repro lint`` checks)."""
    import repro

    return Path(repro.__file__).resolve().parent


def discover_config(start: Optional[Path] = None) -> Optional[Path]:
    """Find ``reprolint.toml``: CWD first, then the source checkout root."""
    candidates = [Path.cwd() / "reprolint.toml"]
    root = start if start is not None else default_lint_root()
    # <checkout>/src/repro -> <checkout>/reprolint.toml
    candidates.append(root.parent.parent / "reprolint.toml")
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def _iter_py_files(paths: Iterable[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _lint_file_raw(
    path: Path, path_key: str, rules: Sequence[str]
) -> Tuple[List[Violation], Optional[str]]:
    """Pre-allowlist violations (and parse error) of one file."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as exc:
        return [], f"{path_key}:{exc.lineno or 0}:1: cannot parse: {exc.msg}"
    violations: List[Violation] = []
    for rule in rules:
        violations.extend(RULE_CHECKERS[rule](tree, path_key))
    return violations, None


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    *,
    enforce_stale: bool = True,
    cache: Optional[LintCache] = None,
) -> LintReport:
    """Lint *paths* (files or trees) under *config*'s allowlist.

    ``enforce_stale=False`` skips the stale-allowlist check — used when
    linting an explicit subset of files, where most entries legitimately
    never get the chance to fire.  *cache* (content-hash keyed) stores
    *raw* per-file findings, so the allowlist — and therefore stale-entry
    detection — is re-applied exactly on warm runs.
    """
    if config is None:
        config = LintConfig()
    config.reset_hits()
    report = LintReport()
    for path in _iter_py_files(paths):
        path_key = path_key_for(path)
        rules = rules_for_path(path_key)
        if not rules:
            continue
        report.files_checked += 1
        cached = None
        sha = None
        if cache is not None:
            try:
                sha = LintCache.digest(path.read_bytes())
            except OSError:
                sha = None
            if sha is not None:
                cached = cache.lookup(path_key, sha, rules)
        if cached is not None:
            raw, parse_error = cached
        else:
            raw, parse_error = _lint_file_raw(path, path_key, rules)
            if cache is not None and sha is not None:
                cache.store(path_key, sha, rules, raw, parse_error)
        if parse_error is not None:
            report.parse_errors.append(parse_error)
            continue
        for violation in raw:
            if config.suppresses(path_key, violation.rule, violation.qualname):
                report.suppressed += 1
            else:
                report.violations.append(violation)
    report.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    if enforce_stale:
        report.stale_entries = config.stale_entries()
    if cache is not None:
        cache.save()
    return report


def run_lint(
    paths: Optional[Sequence[str]] = None,
    config_path: Optional[str] = None,
    *,
    use_cache: bool = True,
) -> LintReport:
    """CLI-facing wrapper: resolve defaults, load config, lint.

    With no *paths* the package source tree is linted and stale
    allowlist entries are an error; with explicit paths the stale check
    is skipped.  The incremental cache lives next to the config file
    (``.reprolint-cache.json``) and is skipped entirely when no config
    exists or ``use_cache`` is False.
    """
    explicit = bool(paths)
    targets = (
        [Path(p) for p in paths] if paths else [default_lint_root()]
    )
    if config_path is not None:
        config = load_config(Path(config_path))
    else:
        found = discover_config()
        config = load_config(found) if found is not None else LintConfig()
    cache = None
    if use_cache and config.source is not None:
        cache = LintCache.load(config.source.parent / CACHE_BASENAME)
    return lint_paths(
        targets, config, enforce_stale=not explicit, cache=cache
    )
