"""The interprocedural flow rules (RL006-RL009) and the rule docs.

These rules run on the framework trio — :mod:`.cfg` (per-function
control-flow graphs), :mod:`.callgraph` (module call graph with
registry resolution), :mod:`.dataflow` (taint summaries + forward
typestate solver) — instead of per-function AST pattern matching:

RL006  Worker-count taint.  Any value derived from
       ``ExecutionContext.workers`` / ``os.cpu_count`` / a ``workers``
       parameter must never size an allocation, the chunk grid, a
       ``range`` step, or a reduction operand.  The parallel backend's
       determinism proof rests on the chunk grid being a pure function
       of the *input size*.
RL007  Disjoint-slice proof.  Every write issued from a parallel task
       body must be provably private: the task's own ``[lo:hi]`` slice
       of a chunk-grid span, a worker-keyed shard, or a task-local
       buffer.  Anything the analysis cannot prove disjoint is a
       finding — the burden of proof is on the kernel.
RL008  Resource lifecycle typestate.  Claim/release pairs (Session
       pool, contextvar tokens) must release on *every* CFG path,
       normal and exceptional; ``acquire_workspace`` is claim-once and
       its result must be bound.
RL009  Order-sensitive shard combines.  Sequential shard-merge loops
       are only deterministic for the two sanctioned combiner shapes
       (reverse-span overwrite in ``winner_scatter``, ``np.minimum``
       in ``minimum_scatter``); arithmetic accumulation over shards is
       order-sensitive and always flagged.

Scoping lives in :mod:`.linter`; the checkers keep the classic
``(module_ast, path_key) -> list[Violation]`` signature, building a
single-module :class:`~repro.analysis.reprolint.callgraph.Program`
per file (cross-module calls degrade to conservative unknown-callee
taint transfer).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import FunctionInfo, Program
from .cfg import CFG, build_cfg
from .dataflow import TaintAnalysis, run_forward
from .rules import RULE_CHECKERS, Violation

__all__ = ["FLOW_RULE_CHECKERS", "RULE_DOCS"]


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk *fn* skipping nested function/class bodies (lambdas stay)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _terminal_name(expr: ast.expr) -> Optional[str]:
    """The last component of a Name/Attribute chain, or the subscript base."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _base_name(expr: ast.expr) -> Optional[str]:
    """The root variable of a subscript/attribute chain (``a`` in ``a.b[i]``)."""
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


# ---------------------------------------------------------------------------
# RL006 — worker-count taint
# ---------------------------------------------------------------------------

#: Parameter names treated as worker-count sources wherever they appear.
_WORKER_PARAMS = ("workers", "num_workers", "n_workers", "max_workers")

#: np.<fn> calls whose arguments size a fresh allocation.
_RL006_NP_ALLOC = frozenset(
    {
        "empty", "zeros", "ones", "full",
        "empty_like", "zeros_like", "ones_like", "full_like",
        "arange",
    }
)

#: Arena/shard sizer methods; a worker-derived size here changes buffer
#: shapes with the worker count.
_RL006_SIZERS = frozenset(
    {"_buf", "_zeroed_bool", "_iota", "_shard_buf",
     "_shard_zeroed_bool", "_shard_filled"}
)

#: np ufuncs whose operands feed a value-producing reduction.
_RL006_REDUCERS = frozenset(
    {"minimum", "maximum", "fmin", "fmax",
     "add", "subtract", "multiply", "divide"}
)


def _is_worker_seed(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Attribute) and expr.attr == "workers":
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id == "cpu_count":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "cpu_count":
            return True
    return False


def _np_reduction_attr(func: ast.expr) -> Optional[str]:
    """``minimum`` for ``np.minimum(...)`` or ``np.minimum.at(...)``."""
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "at" and isinstance(func.value, ast.Attribute):
        func = func.value
    if (
        isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
        and func.attr in _RL006_REDUCERS
    ):
        return func.attr
    return None


def check_rl006(tree: ast.Module, path: str) -> List[Violation]:
    """Worker-count-derived values in sizes, chunking, or reductions."""
    program = Program({path: tree})
    analysis = TaintAnalysis(
        program, seed_expr=_is_worker_seed, seed_params=_WORKER_PARAMS
    )
    violations: List[Violation] = []

    def report(node: ast.AST, info: FunctionInfo, message: str) -> None:
        violations.append(
            Violation(
                rule="RL006",
                path=path,
                line=getattr(node, "lineno", info.node.lineno),
                col=getattr(node, "col_offset", 0),
                qualname=info.qualname,
                message=message,
            )
        )

    for info in program.functions_in(path):
        env = analysis.local_env(info)

        def tainted(expr: ast.expr) -> bool:
            return analysis.is_tainted(expr, env, info)

        for node in _own_nodes(info.node):
            if isinstance(node, ast.Call):
                func = node.func
                size_args: Optional[Sequence[ast.expr]] = None
                what = None
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")
                    and func.attr in _RL006_NP_ALLOC
                ):
                    size_args = list(node.args) + [
                        kw.value for kw in node.keywords if kw.arg == "shape"
                    ]
                    what = f"np.{func.attr}"
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in _RL006_SIZERS
                ):
                    # Shard sizers key on the worker id (arg 0) by
                    # design; only the size/fill arguments matter.
                    offset = 1 if func.attr.startswith("_shard") else 0
                    size_args = node.args[offset:]
                    what = func.attr
                elif isinstance(func, ast.Name) and func.id == "_grown":
                    size_args = node.args
                    what = "_grown"
                if size_args is not None and what is not None:
                    for arg in size_args:
                        if tainted(arg):
                            report(
                                node, info,
                                f"worker-count-derived value sizes {what}(); "
                                "buffer shapes and the chunk grid must be "
                                "pure functions of the input size",
                            )
                            break
                if (
                    isinstance(func, ast.Name)
                    and func.id == "range"
                    and len(node.args) >= 3
                    and tainted(node.args[2])
                ):
                    report(
                        node, info,
                        "worker-count-derived range() step partitions "
                        "iteration space by worker count",
                    )
                reducer = _np_reduction_attr(func)
                if reducer is not None and any(tainted(a) for a in node.args):
                    report(
                        node, info,
                        f"worker-count-derived operand reaches np.{reducer}; "
                        "reduction inputs must not depend on the worker "
                        "count",
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if value is None or not tainted(value):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name = _terminal_name(target)
                    if name is not None and "chunk" in name:
                        report(
                            node, info,
                            f"chunk sizing {name!r} derived from the worker "
                            "count; the chunk grid must be fixed "
                            "(DEFAULT_CHUNK_SIZE), never workers-shaped",
                        )
    return violations


# ---------------------------------------------------------------------------
# RL007 — disjoint-slice proof for parallel task writes
# ---------------------------------------------------------------------------

#: Roles a name can carry inside a parallel task body.
_LO, _HI, _WORKER = "lo", "hi", "worker"

_SPAN_MAKERS = ("_chunks", "_worker_spans")
_SHARD_MAKERS = ("_shard_buf", "_shard_zeroed_bool", "_shard_filled")


def _is_span_maker_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _SPAN_MAKERS
    )


def _is_chunk_grid_listcomp(expr: ast.expr) -> bool:
    """``[(a, min(a + step, total)) for a in range(0, total, step)]``."""
    if not isinstance(expr, ast.ListComp) or len(expr.generators) != 1:
        return False
    gen = expr.generators[0]
    if not (
        isinstance(gen.iter, ast.Call)
        and isinstance(gen.iter.func, ast.Name)
        and gen.iter.func.id == "range"
        and not isinstance(gen.target, (ast.Tuple, ast.List))
    ):
        return False
    elt = expr.elt
    return (
        isinstance(elt, ast.Tuple)
        and len(elt.elts) == 2
        and isinstance(elt.elts[0], ast.Name)
        and isinstance(gen.target, ast.Name)
        and elt.elts[0].id == gen.target.id
        and isinstance(elt.elts[1], ast.Call)
        and isinstance(elt.elts[1].func, ast.Name)
        and elt.elts[1].func.id == "min"
    )


def _span_vars(info: FunctionInfo) -> Set[str]:
    """Names bound to a sanctioned chunk-grid span list in *info*."""
    out: Set[str] = set()
    for node in _own_nodes(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and (
                _is_span_maker_call(node.value)
                or _is_chunk_grid_listcomp(node.value)
            ):
                out.add(target.id)
    return out


def _tuple_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for elt in target.elts:
            out.extend(_tuple_names(elt))
        return out
    return []


def _span_iter_roles(
    target: ast.expr, iter_expr: ast.expr, spans: Set[str], params: Set[str]
) -> Optional[Dict[str, str]]:
    """Role map for ``for <target> in <iter>`` over a span list, or None.

    ``for lo, hi in spans``                 -> {lo: LO, hi: HI}
    ``for w, (lo, hi) in enumerate(spans)`` -> {w: WORKER, lo: LO, hi: HI}
    """
    src = iter_expr
    enumerated = False
    if (
        isinstance(src, ast.Call)
        and isinstance(src.func, ast.Name)
        and src.func.id == "enumerate"
        and src.args
    ):
        src = src.args[0]
        enumerated = True
    if not (isinstance(src, ast.Name) and (src.id in spans or src.id in params)):
        return None
    if enumerated:
        if (
            isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[0], ast.Name)
        ):
            inner = _tuple_names(target.elts[1])
            if len(inner) == 2:
                return {
                    target.elts[0].id: _WORKER,
                    inner[0]: _LO,
                    inner[1]: _HI,
                }
        return None
    names = _tuple_names(target)
    if len(names) == 2:
        return {names[0]: _LO, names[1]: _HI}
    return None


class _TaskBodyChecker:
    """Classify every write in one parallel task body."""

    def __init__(
        self,
        info: FunctionInfo,
        path: str,
        roles: Dict[str, str],
        violations: List[Violation],
    ) -> None:
        self.info = info
        self.path = path
        self.roles = roles
        self.violations = violations
        #: Names the task binds itself (fresh buffers, private shards,
        #: per-task slice views) — writes through them stay private.
        self.local: Set[str] = set()

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                rule="RL007",
                path=self.path,
                line=getattr(node, "lineno", self.info.node.lineno),
                col=getattr(node, "col_offset", 0),
                qualname=self.info.qualname,
                message=message,
            )
        )

    def _role(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.roles.get(expr.id)
        return None

    def _is_span_slice(self, sub: ast.Subscript) -> bool:
        """Exactly ``[lo:hi]`` with the task's own span roles, no step."""
        sl = sub.slice
        return (
            isinstance(sl, ast.Slice)
            and sl.step is None
            and sl.lower is not None
            and sl.upper is not None
            and self._role(sl.lower) == _LO
            and self._role(sl.upper) == _HI
        )

    def _is_private_base(self, expr: ast.expr) -> bool:
        base = _base_name(expr)
        return base is not None and base in self.local

    def _check_write_subscript(self, sub: ast.Subscript) -> None:
        if self._is_private_base(sub.value):
            return
        if self._is_span_slice(sub):
            return
        if not isinstance(sub.slice, ast.Slice) and self._role(sub.slice) == _WORKER:
            return  # worker-keyed cell, e.g. touched[w]
        self.report(
            sub,
            f"parallel task write to {ast.unparse(sub)!r} is not provably "
            "disjoint; write the task's own [lo:hi] span slice, a "
            "worker-keyed cell, or a private shard",
        )

    def _bind(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        value = stmt.value
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr in _SHARD_MAKERS:
                # A shard is private iff it is keyed by this task's
                # worker id.
                if not (value.args and self._role(value.args[0]) == _WORKER):
                    self.report(
                        value,
                        f"{func.attr}() shard keyed by something other than "
                        "this task's worker id; shards are only private "
                        "when worker-keyed",
                    )
                self.local.add(name)
                return
            # Fresh value from a call (splitmix64, .astype, ...).
            self.local.add(name)
            return
        if isinstance(value, ast.Subscript) and self._is_span_slice(value):
            # A [lo:hi] view is this task's disjoint window.
            self.local.add(name)

    def check(self, body: ast.AST) -> None:
        """*body* is an expression (lambda body) or a statement list owner."""
        stmts: List[ast.stmt]
        if isinstance(body, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stmts = body.body
        elif isinstance(body, ast.expr):
            self._check_expr_writes(body)
            return
        else:
            return
        for stmt in stmts:
            for node in [stmt, *_own_nodes(stmt)]:
                if isinstance(node, ast.Assign):
                    self._bind(node)
            for node in [stmt, *_own_nodes(stmt)]:
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        self._check_target(target)
                elif isinstance(node, ast.AugAssign):
                    self._check_target(node.target)
                elif isinstance(node, ast.expr):
                    self._check_expr_writes(node, nested=True)

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript):
            self._check_write_subscript(target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt)

    def _check_expr_writes(self, expr: ast.expr, nested: bool = False) -> None:
        """``out=`` keyword targets and ``np.<ufunc>.at`` first args."""
        nodes: List[ast.AST] = [expr] if nested else [expr, *_own_nodes(expr)]
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "out":
                    continue
                if isinstance(kw.value, ast.Subscript):
                    self._check_write_subscript(kw.value)
                elif not self._is_private_base(kw.value):
                    self.report(
                        kw.value,
                        f"out={ast.unparse(kw.value)!r} targets a whole "
                        "shared array from a parallel task; write the "
                        "task's own [lo:hi] slice",
                    )
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "at"
                and node.args
            ):
                first = node.args[0]
                if isinstance(first, ast.Subscript):
                    self._check_write_subscript(first)
                elif not self._is_private_base(first):
                    self.report(
                        first,
                        f"ufunc.at on {ast.unparse(first)!r} scatters into "
                        "a shared array from a parallel task; scatter into "
                        "a private worker shard instead",
                    )


def _lambda_roles(
    lam: ast.Lambda, outer_roles: Dict[str, str]
) -> Dict[str, str]:
    """Map lambda params to roles via their ``p=p`` rebinding defaults."""
    roles: Dict[str, str] = {}
    args = lam.args.args
    defaults = lam.args.defaults
    bound = args[len(args) - len(defaults):]
    for param, default in zip(bound, defaults):
        if isinstance(default, ast.Name) and default.id in outer_roles:
            roles[param.arg] = outer_roles[default.id]
    return roles


def _positional_roles(
    call: ast.Call, roles: Dict[str, str], callee: FunctionInfo
) -> Optional[Dict[str, str]]:
    """Thread role names through ``body(w, lo, hi)`` into *callee* params."""
    params = [p for p in callee.params if p not in ("self", "cls")]
    out: Dict[str, str] = {}
    for param, arg in zip(params, call.args):
        if isinstance(arg, ast.Name) and arg.id in roles:
            out[param] = roles[arg.id]
    return out or None


def check_rl007(tree: ast.Module, path: str) -> List[Violation]:
    """Unprovable disjointness of writes issued from parallel tasks."""
    program = Program({path: tree})
    violations: List[Violation] = []

    for info in program.functions_in(path):
        spans = _span_vars(info)
        params = set(info.params)

        def local_def(name: str) -> Optional[FunctionInfo]:
            return program.functions.get((path, f"{info.qualname}.{name}"))

        def check_task(body: ast.AST, roles: Dict[str, str]) -> None:
            checker = _TaskBodyChecker(info, path, roles, violations)
            if isinstance(body, ast.Lambda):
                inner = _lambda_roles(body, roles)
                # A lambda that merely forwards to a local def threads
                # its roles through positionally.
                if (
                    isinstance(body.body, ast.Call)
                    and isinstance(body.body.func, ast.Name)
                ):
                    callee = local_def(body.body.func.id)
                    if callee is not None:
                        threaded = _positional_roles(
                            body.body, inner, callee
                        )
                        if threaded is not None:
                            check_task(callee.node, threaded)
                            return
                checker.roles = inner
                checker.check(body.body)
            else:
                checker.check(body)

        def flag_provenance(node: ast.AST, detail: str) -> None:
            violations.append(
                Violation(
                    rule="RL007",
                    path=path,
                    line=getattr(node, "lineno", info.node.lineno),
                    col=getattr(node, "col_offset", 0),
                    qualname=info.qualname,
                    message=(
                        f"parallel tasks built over {detail} without "
                        "chunk-grid provenance (_chunks/_worker_spans or "
                        "the fixed-step grid comprehension); disjointness "
                        "is unprovable"
                    ),
                )
            )

        for node in _own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # Pattern a: self._foreach_span(spans, body)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "_foreach_span"
                and len(node.args) >= 2
            ):
                spans_expr, body_expr = node.args[0], node.args[1]
                if isinstance(spans_expr, ast.Name) and spans_expr.id in params:
                    continue  # concrete provenance checked at call sites
                if not (
                    (isinstance(spans_expr, ast.Name) and spans_expr.id in spans)
                    or _is_span_maker_call(spans_expr)
                ):
                    flag_provenance(node, ast.unparse(spans_expr))
                    continue
                base_roles = {"lo": _LO, "hi": _HI}
                if isinstance(body_expr, ast.Lambda):
                    lam_params = [a.arg for a in body_expr.args.args]
                    roles = dict(zip(lam_params, (_LO, _HI)))
                    checker = _TaskBodyChecker(info, path, roles, violations)
                    checker.check(body_expr.body)
                elif isinstance(body_expr, ast.Name):
                    callee = local_def(body_expr.id)
                    if callee is not None:
                        callee_params = [
                            p for p in callee.params if p not in ("self", "cls")
                        ]
                        roles = dict(zip(callee_params, (_LO, _HI)))
                        check_task(callee.node, roles)
                del base_roles
            # Pattern b: self._run([...]) over a span iteration.
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "_run"
                and node.args
            ):
                tasks = node.args[0]
                if isinstance(tasks, ast.Name) and tasks.id in params:
                    continue
                if isinstance(tasks, ast.ListComp) and len(tasks.generators) == 1:
                    gen = tasks.generators[0]
                    roles = _span_iter_roles(
                        gen.target, gen.iter, spans, params
                    ) or {}
                    if not roles:
                        flag_provenance(node, ast.unparse(gen.iter))
                        continue
                    elt = tasks.elt
                    if isinstance(elt, ast.Lambda):
                        check_task(elt, roles)
                elif isinstance(tasks, (ast.List, ast.Tuple)):
                    for elt in tasks.elts:
                        if isinstance(elt, ast.Lambda):
                            check_task(elt, {})
            # Pattern c: pool.submit(lambda ...) inside a span iteration.
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "submit"
                and node.args
                and isinstance(node.args[0], ast.Lambda)
            ):
                roles = _submit_context_roles(info, node, spans, params)
                if roles is None:
                    flag_provenance(node, "an unrecognized iteration")
                else:
                    check_task(node.args[0], roles)
    return violations


def _submit_context_roles(
    info: FunctionInfo,
    submit_call: ast.Call,
    spans: Set[str],
    params: Set[str],
) -> Optional[Dict[str, str]]:
    """Roles from the comprehension/for-loop enclosing a ``submit`` call."""
    for node in _own_nodes(info.node):
        candidates: List[Tuple[ast.expr, ast.expr, ast.AST]] = []
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            if len(node.generators) == 1:
                gen = node.generators[0]
                candidates.append((gen.target, gen.iter, node.elt))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            candidates.append((node.target, node.iter, node))
        for target, iter_expr, scope in candidates:
            if any(child is submit_call for child in ast.walk(scope)):
                return _span_iter_roles(target, iter_expr, spans, params)
    return None


# ---------------------------------------------------------------------------
# RL008 — resource lifecycle typestate
# ---------------------------------------------------------------------------

_ST_UNCLAIMED = "unclaimed"
_ST_CLAIMED = "claimed"
_ST_RELEASED = "released"
_ST_MAYBE = "maybe"

#: (kind, var, event) where event is "claim" | "release" | "rebind".
_Event = Tuple[str, str, str]

_EXIT_CHECKED_KINDS = ("pool", "token")
_KIND_DESC = {
    "pool": "Session pool claim",
    "token": "contextvar token",
    "workspace": "workspace claim",
}


def _claim_of(value: ast.expr) -> Optional[Tuple[str, Optional[ast.Call]]]:
    """Kind of claim a bound RHS value performs, if any."""
    for node in ast.walk(value):
        if isinstance(node, (ast.Lambda,)):
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "_claim_pool":
                return "pool", node
            if node.func.attr == "acquire_workspace":
                return "workspace", node
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "set"
        and len(value.args) == 1
        and not value.keywords
    ):
        return "token", value
    return None


def _stmt_events(
    stmt: Optional[ast.AST], tracked: Dict[str, str]
) -> List[_Event]:
    """Lifecycle events one CFG node's own statement performs."""
    if stmt is None or isinstance(stmt, (ast.Try, ast.ExceptHandler)):
        return []
    scan: List[ast.AST]
    if isinstance(stmt, (ast.If, ast.While)):
        scan = list(ast.walk(stmt.test))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        scan = list(ast.walk(stmt.iter))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        scan = [n for item in stmt.items for n in ast.walk(item.context_expr)]
    else:
        scan = [
            n
            for n in ast.walk(stmt)
            if not isinstance(n, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
    events: List[_Event] = []
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        claim = _claim_of(stmt.value)
        for target in targets:
            try:
                var = ast.unparse(target)
            except Exception:  # pragma: no cover - malformed target
                continue
            if claim is not None:
                events.append((claim[0], var, "claim"))
            elif var in tracked:
                events.append((tracked[var], var, "rebind"))
    for node in scan:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "_release_pool" and node.args:
            try:
                events.append(("pool", ast.unparse(node.args[0]), "release"))
            except Exception:  # pragma: no cover
                pass
        elif node.func.attr == "reset" and len(node.args) == 1:
            try:
                var = ast.unparse(node.args[0])
            except Exception:  # pragma: no cover
                continue
            if tracked.get(var) == "token":
                events.append(("token", var, "release"))
    return events


def _collect_tracked(fn: ast.AST) -> Dict[str, str]:
    """var -> kind for every claim the function performs."""
    tracked: Dict[str, str] = {}
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            claim = _claim_of(node.value)
            if claim is None:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                try:
                    tracked[ast.unparse(target)] = claim[0]
                except Exception:  # pragma: no cover
                    pass
    return tracked


def check_rl008(tree: ast.Module, path: str) -> List[Violation]:
    """Claim/release lifecycles proven safe on every CFG path."""
    program = Program({path: tree})
    violations: List[Violation] = []

    for info in program.functions_in(path):
        fn = info.node
        # Discarded acquire results first: ownership must be bound.
        for stmt in _own_nodes(fn):
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr in ("acquire_workspace", "_claim_pool")
            ):
                violations.append(
                    Violation(
                        rule="RL008",
                        path=path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        qualname=info.qualname,
                        message=(
                            f"{stmt.value.func.attr}() result discarded; "
                            "the claim must be bound so it can be released "
                            "(or the workspace ownership tracked)"
                        ),
                    )
                )
        # Workspace claims are claim-once *per function*, regardless of
        # which name each claim binds: the first acquire takes the
        # pooled arena, so a second in the same function silently works
        # on a fresh arena — almost certainly not what the author meant.
        ws_claims = sorted(
            (
                node
                for node in _own_nodes(fn)
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                and node.value is not None
                and (claim := _claim_of(node.value)) is not None
                and claim[0] == "workspace"
            ),
            key=lambda node: node.lineno,
        )
        for extra in ws_claims[1:]:
            violations.append(
                Violation(
                    rule="RL008",
                    path=path,
                    line=extra.lineno,
                    col=extra.col_offset,
                    qualname=info.qualname,
                    message=(
                        "second acquire_workspace() in one function "
                        "(claim-once contract): only the first claim gets "
                        "the pooled arena; hoist or thread the workspace"
                    ),
                )
            )
        tracked = _collect_tracked(fn)
        if not tracked:
            continue
        cfg = build_cfg(fn)  # type: ignore[arg-type]
        events = {
            nid: _stmt_events(node.stmt, tracked)
            for nid, node in cfg.nodes.items()
        }
        claim_once: Set[Tuple[int, str]] = set()

        StateT = Optional[Dict[str, str]]

        def join(a: StateT, b: StateT) -> StateT:
            if a is None:
                return dict(b) if b is not None else None
            if b is None:
                return dict(a)
            return {
                var: (a[var] if a[var] == b[var] else _ST_MAYBE)
                for var in a
            }

        def transfer(nid: int, state: StateT) -> StateT:
            if state is None:
                return None
            out = dict(state)
            for kind, var, event in events[nid]:
                if event == "claim":
                    if out.get(var) == _ST_CLAIMED:
                        claim_once.add((cfg.nodes[nid].line, var))
                    out[var] = _ST_CLAIMED
                elif event == "release":
                    out[var] = _ST_RELEASED
                else:  # rebind without claiming
                    out[var] = _ST_UNCLAIMED
            return out

        init: Dict[str, str] = {var: _ST_UNCLAIMED for var in tracked}
        result = run_forward(
            cfg,
            init=init,
            bottom=None,
            transfer=transfer,
            join=join,
            equals=lambda a, b: a == b,
        )
        for line, var in sorted(claim_once):
            if tracked[var] == "workspace":
                continue  # covered by the per-function claim-once scan
            violations.append(
                Violation(
                    rule="RL008",
                    path=path,
                    line=line,
                    col=0,
                    qualname=info.qualname,
                    message=(
                        f"{_KIND_DESC[tracked[var]]} {var!r} claimed again "
                        "while already claimed (claim-once contract)"
                    ),
                )
            )
        for node, via_exc in cfg.exit_preds():
            out_state = result.out_states.get(node.nid)
            if via_exc:
                out_state = join(
                    result.in_states.get(node.nid), out_state  # type: ignore[arg-type]
                )
            if not isinstance(out_state, dict):
                continue
            for var, state in out_state.items():
                if (
                    state == _ST_CLAIMED
                    and tracked.get(var) in _EXIT_CHECKED_KINDS
                ):
                    kind = "an exceptional" if via_exc else "a return"
                    violations.append(
                        Violation(
                            rule="RL008",
                            path=path,
                            line=node.line or fn.lineno,
                            col=0,
                            qualname=info.qualname,
                            message=(
                                f"{_KIND_DESC[tracked[var]]} {var!r} still "
                                f"claimed on {kind} path; release it in a "
                                "finally block covering every exit"
                            ),
                        )
                    )
    return violations


# ---------------------------------------------------------------------------
# RL009 — order-sensitive shard combines
# ---------------------------------------------------------------------------

#: Function names whose combine loops are the proven-deterministic
#: merges (reverse-span overwrite; np.minimum fold).
_SANCTIONED_COMBINERS = ("winner_scatter", "minimum_scatter")

_ORDER_SENSITIVE_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow)
_ARITH_UFUNCS = frozenset({"add", "subtract", "multiply", "divide", "sum"})
_MERGE_UFUNCS = frozenset({"minimum", "maximum", "fmin", "fmax"})


def _np_attr(func: ast.expr) -> Optional[str]:
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def check_rl009(tree: ast.Module, path: str) -> List[Violation]:
    """Shard combine loops outside the sanctioned combiner shapes."""
    program = Program({path: tree})
    violations: List[Violation] = []

    for info in program.functions_in(path):
        spans = _span_vars(info)
        spans |= {p for p in info.params if p == "spans"}
        if not spans:
            continue
        sanctioned = info.name in _SANCTIONED_COMBINERS

        for loop in _own_nodes(info.node):
            if not isinstance(loop, (ast.For, ast.AsyncFor)):
                continue
            iter_names = {
                n.id for n in ast.walk(loop.iter) if isinstance(n, ast.Name)
            }
            if not (iter_names & spans):
                continue
            # Names bound inside the loop body (shard views, hit lists)
            # are per-iteration scratch, not the merge destination.
            loop_locals = set(_tuple_names(loop.target))
            for node in ast.walk(loop):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and isinstance(
                            node.value, (ast.Call, ast.Subscript)
                        ):
                            loop_locals.add(target.id)

            def flag(node: ast.AST, message: str) -> None:
                violations.append(
                    Violation(
                        rule="RL009",
                        path=path,
                        line=getattr(node, "lineno", loop.lineno),
                        col=getattr(node, "col_offset", 0),
                        qualname=info.qualname,
                        message=message,
                    )
                )

            for node in ast.walk(loop):
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Subscript
                ):
                    base = _base_name(node.target.value)
                    if base in loop_locals:
                        continue
                    if isinstance(node.op, _ORDER_SENSITIVE_OPS):
                        flag(
                            node,
                            f"order-sensitive accumulation into {base!r} in "
                            "a shard combine loop; per-shard arithmetic "
                            "folds depend on the merge order",
                        )
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if not isinstance(target, ast.Subscript):
                            continue
                        base = _base_name(target.value)
                        if base is None or base in loop_locals:
                            continue
                        rhs = node.value
                        np_fn = (
                            _np_attr(rhs.func)
                            if isinstance(rhs, ast.Call)
                            else None
                        )
                        arithmetic = (
                            isinstance(rhs, ast.BinOp)
                            and isinstance(rhs.op, _ORDER_SENSITIVE_OPS)
                            and base
                            in {
                                n.id
                                for n in ast.walk(rhs)
                                if isinstance(n, ast.Name)
                            }
                        ) or (np_fn in _ARITH_UFUNCS)
                        if arithmetic:
                            flag(
                                node,
                                f"order-sensitive accumulation into {base!r} "
                                "in a shard combine loop; use the sanctioned "
                                "overwrite/minimum merges",
                            )
                        elif not sanctioned:
                            flag(
                                node,
                                f"shard combine writes {base!r} outside the "
                                "sanctioned combiners "
                                "(winner_scatter/minimum_scatter); combine "
                                "determinism is only proven there",
                            )
    return violations


# ---------------------------------------------------------------------------
# Rule documentation (``repro lint --explain RLxxx``)
# ---------------------------------------------------------------------------

RULE_DOCS: Dict[str, str] = {
    "RL001": (
        "Shared-array writes must route through primitives.atomics.\n\n"
        "A bare subscript store (labels[idx] = ...) into a shared array —\n"
        "a parameter, self.<attr>, or an alias of either — is the bug\n"
        "class the simulated CRCW machine exists to prevent. Legal claim\n"
        "scatters are registered in the reprolint.toml allowlist.\n\n"
        "Runtime counterpart: the PRAM race sanitizer's post-round\n"
        "snapshot diff (repro --sanitize)."
    ),
    "RL002": (
        "No allocating NumPy calls in the fast-backend kernels.\n\n"
        "Round temporaries go through the Workspace vocabulary, whose\n"
        "arena gathers hold per-labeling peak memory down; a fresh\n"
        "np.zeros/np.concatenate (without out=) bypasses that seam.\n"
        "Zero-length sentinels (np.zeros(0)) are exempt.\n\n"
        "Runtime counterpart: the arena-reuse property tests and the\n"
        "benchmark's peak_mem_ratio bound."
    ),
    "RL003": (
        "Edge-expanding kernels must charge the cost tracker on every\n"
        "post-expand return path.\n\n"
        "Otherwise the (work, depth) profiles undercount exactly when a\n"
        "kernel exits early and the figures silently diverge from the\n"
        "paper's O(m) accounting.\n\n"
        "Runtime counterpart: the cost-model parity fixtures."
    ),
    "RL004": (
        "No np.random module-global state and no wall-clock reads in\n"
        "simulation code.\n\n"
        "Randomness flows through seeded generators (primitives.rand /\n"
        "default_rng(seed)); real time belongs to the wall-clock harness\n"
        "(analysis/wallclock.py).\n\n"
        "Runtime counterpart: byte-identical golden parity replays."
    ),
    "RL005": (
        "No reads of the retired global-singleton accessors outside the\n"
        "runtime package.\n\n"
        "Ambient state (tracker, sanitizer, fault plan, backend) is read\n"
        "from repro.runtime.current_context(). Definitions of those\n"
        "names are flagged too, so the accessors cannot come back."
    ),
    "RL006": (
        "Worker-count taint: no value derived from\n"
        "ExecutionContext.workers, os.cpu_count(), or a workers\n"
        "parameter may size an allocation, the chunk grid, a range()\n"
        "step, or a reduction operand.\n\n"
        "The parallel backend is deterministic because the chunk grid is\n"
        "a pure function of the input size (DEFAULT_CHUNK_SIZE); a\n"
        "worker-shaped buffer or chunk makes results depend on\n"
        "--workers. Interprocedural taint summaries follow the value\n"
        "through helper calls and the backend registry.\n\n"
        "Runtime counterpart: golden parity replays at w=2 vs w=4.\n"
        "Allowlist policy: only span *partitioning* proven\n"
        "result-independent (e.g. ParallelWorkspace._worker_spans, whose\n"
        "combine notes carry the proof) may be suppressed."
    ),
    "RL007": (
        "Disjoint-slice proof: every write issued from a parallel task\n"
        "body must be provably private — the task's own [lo:hi] slice of\n"
        "a chunk-grid span, a worker-keyed shard/cell, or a buffer the\n"
        "task allocated itself. Span lists must come from\n"
        "_chunks()/_worker_spans() or the fixed-step grid comprehension.\n"
        "Anything the analysis cannot prove disjoint is a finding.\n\n"
        "Runtime counterpart: the PRAM race sanitizer and the w=2/w=4\n"
        "parity fixtures catch overlapping slices as nondeterminism.\n"
        "Allowlist policy: none expected; fix the kernel instead."
    ),
    "RL008": (
        "Resource lifecycle typestate: Session pool claims\n"
        "(_claim_pool/_release_pool) and contextvar tokens (set/reset)\n"
        "must release on every CFG path, normal and exceptional —\n"
        "i.e. in a finally block covering every exit.\n"
        "acquire_workspace() is claim-once and its result must be bound.\n\n"
        "The analysis runs a forward typestate dataflow\n"
        "{unclaimed, claimed, released, maybe} over the per-function\n"
        "CFG, including exceptional edges; only definitely-claimed exits\n"
        "are flagged, so conditional claims released conditionally stay\n"
        "clean.\n\n"
        "Runtime counterpart: the concurrency smoke tests (a leaked pool\n"
        "claim deadlocks the session pool).\n"
        "Allowlist policy: none expected; restructure with try/finally."
    ),
    "RL009": (
        "Order-sensitive shard combines: sequential shard-merge loops\n"
        "(for ... over a span list) are only deterministic for the two\n"
        "sanctioned combiner shapes — winner_scatter's reverse-span\n"
        "overwrite and minimum_scatter's np.minimum fold. Arithmetic\n"
        "accumulation (+=, np.add, ...) over shards depends on the merge\n"
        "order and is always flagged; overwrite/min-merges outside the\n"
        "sanctioned combiners are flagged until proven and sanctioned.\n\n"
        "Runtime counterpart: sanitizer record_combine coverage plus the\n"
        "golden parity fixtures.\n"
        "Allowlist policy: a new combiner needs a written determinism\n"
        "proof in its docstring before an allowlist entry is acceptable."
    ),
    "RL010": (
        "Observational purity of the tracing layer (repro.obs).\n\n"
        "Tracer and metrics code observes a run; it may never write\n"
        "back: no subscript/augmented/attribute stores rooted at a\n"
        "function parameter (the run state handed in for observation),\n"
        "no in-place np.* or ndarray-method mutation, no cost-tracker\n"
        "charges (tracker.add/sync). Timestamps are wall-clock by\n"
        "design — repro.obs is exempt from RL004's clock ban, and this\n"
        "rule polices its purity instead.\n\n"
        "Runtime counterpart: the tracing-determinism parity tests\n"
        "(tests/test_obs.py) replay golden captures with tracing off\n"
        "and on and require byte-identical labelings and charges.\n"
        "Allowlist policy: none expected; fix the tracer instead."
    ),
}


FLOW_RULE_CHECKERS: Dict[str, Callable[[ast.Module, str], List[Violation]]] = {
    "RL006": check_rl006,
    "RL007": check_rl007,
    "RL008": check_rl008,
    "RL009": check_rl009,
}

# One registry for the linter and the tests: the flow rules join the
# syntactic ones.
RULE_CHECKERS.update(FLOW_RULE_CHECKERS)
