"""reprolint: the PRAM-invariant static analyzer (``repro lint``).

Nine rules machine-check the disciplines the reproduction's
guarantees rest on (see docs/static_analysis.md for the catalog).
The syntactic family (per-function AST patterns):

* **RL001** — shared-array writes in ``engine/``, ``decomp/``,
  ``connectivity/`` route through ``primitives.atomics`` or appear in
  the justified kernel registry (``reprolint.toml``);
* **RL002** — no allocating NumPy calls in the fast-backend kernels
  (round temporaries go through the ``Workspace`` seam);
* **RL003** — edge-expanding kernels charge the cost tracker on every
  post-expand return path;
* **RL004** — no ``np.random`` global state or wall-clock reads in
  simulation code;
* **RL005** — no reads of the retired global-singleton accessors.

The interprocedural family (call graph + CFG + dataflow; see
:mod:`~repro.analysis.reprolint.cfg`,
:mod:`~repro.analysis.reprolint.callgraph`,
:mod:`~repro.analysis.reprolint.dataflow`):

* **RL006** — worker-count taint never reaches allocation sizes, the
  chunk grid, or reduction operands;
* **RL007** — parallel task writes carry a disjoint-slice proof;
* **RL008** — claim/release resource lifecycles hold on every CFG
  path, including exceptional ones;
* **RL009** — shard combines stay inside the sanctioned deterministic
  combiner shapes.

The static half's runtime complement — the PRAM race sanitizer behind
the global ``--sanitize`` flag — lives in :mod:`repro.pram.sanitizer`
(re-exported here for discoverability).
"""

from repro.analysis.reprolint.cache import LINT_VERSION, LintCache
from repro.analysis.reprolint.callgraph import ClassInfo, FunctionInfo, Program
from repro.analysis.reprolint.cfg import CFG, CFGNode, build_cfg
from repro.analysis.reprolint.config import (
    KNOWN_RULES,
    AllowEntry,
    LintConfig,
    load_config,
)
from repro.analysis.reprolint.dataflow import (
    SEED,
    Summary,
    TaintAnalysis,
    run_forward,
)
from repro.analysis.reprolint.linter import (
    RULE_SCOPES,
    LintReport,
    default_lint_root,
    discover_config,
    lint_paths,
    path_key_for,
    rules_for_path,
    run_lint,
)
from repro.analysis.reprolint.rules import RULE_CHECKERS, Violation
from repro.analysis.reprolint.rules_flow import FLOW_RULE_CHECKERS, RULE_DOCS
from repro.analysis.reprolint.sarif import to_sarif, validate_sarif
from repro.pram.sanitizer import (  # noqa: F401  (discoverability re-export)
    PramSanitizer,
    RaceReport,
    sanitizing,
)

__all__ = [
    "KNOWN_RULES",
    "AllowEntry",
    "LintConfig",
    "load_config",
    "RULE_SCOPES",
    "LintReport",
    "default_lint_root",
    "discover_config",
    "lint_paths",
    "path_key_for",
    "rules_for_path",
    "run_lint",
    "RULE_CHECKERS",
    "Violation",
    "FLOW_RULE_CHECKERS",
    "RULE_DOCS",
    "CFG",
    "CFGNode",
    "build_cfg",
    "ClassInfo",
    "FunctionInfo",
    "Program",
    "SEED",
    "Summary",
    "TaintAnalysis",
    "run_forward",
    "LINT_VERSION",
    "LintCache",
    "to_sarif",
    "validate_sarif",
    "PramSanitizer",
    "RaceReport",
    "sanitizing",
]
