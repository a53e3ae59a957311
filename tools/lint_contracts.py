#!/usr/bin/env python3
"""Static contract lint for ``src/repro`` (stdlib-only, AST-based).

Nine rules, each guarding an invariant the test suite cannot easily
see because violations only bite in another process, another run, or
only on the path a test does not take:

C001  MachineModel classifiers must be named module-level functions.
      A ``lambda`` (or a function nested inside another function)
      passed as ``reg_class_of`` cannot be pickled, which breaks the
      serve worker pool and the persistent compile cache the moment
      such a machine reaches them (see ``default_reg_class`` in
      ``src/repro/machine/model.py``).

C002  Instrumentation names must match the schema regex published in
      ``docs/observability.md`` (the ``<!-- obs-name-schema: ... -->``
      marker).  Checks every literal or f-string first argument of
      ``obs.span`` / ``obs.count`` / ``obs.peak`` / ``obs.event``;
      f-string placeholders are replaced with ``x`` before matching,
      so ``f"serve.error.{code}"`` is checked as ``serve.error.x``.

C004  No module under ``src/repro`` except ``reference.py`` itself may
      import ``repro.reference``.  That module is the dict-of-sets
      oracle the bitset measurement core is tested against; a
      production import would bring back a second measurement engine
      (see docs/performance.md).

C005  No module under ``src/repro`` may import ``networkx`` or
      ``numpy``.  The compiler, the analyzer and the service run on
      the standard library alone (``pyproject.toml`` declares no
      runtime dependencies); networkx is a test-only dependency of the
      ``tests/test_dilworth.py`` cross-check.

C006  No module under ``src/repro`` except ``serve/pool.py`` may
      import ``multiprocessing``.  ``WorkerPool`` is the one process
      executor: the server's warm pool and ``compile_program(jobs=N)``
      both run on it, so a second pool would bring back a second
      supervision, fallback and cost model (see docs/serving.md).

C007  No module under ``src/repro`` except ``graph/dilworth.py`` may
      reference ``BitsetKuhn`` (import it, name it or reach it as an
      attribute).  It is the one bipartite matcher, and
      ``graph/dilworth.py`` is its one front end (chain decompositions,
      exact widths, antichains); a second caller is where a second
      matcher, or a second way to drive this one, comes back (see
      docs/performance.md).

C008  No module under ``src/repro`` except ``serve/cache.py`` and
      ``serve/pool.py`` may call ``trace_key``, ``map_shards``,
      ``_compile_one`` or ``.put`` on a cache (a receiver named like
      ``cache`` or ``store``).  ``serve/pool.py::compile_traces`` is
      the one cache-and-dispatch path: it keys every trace compile,
      stores every artifact that did not degrade and dispatches the
      misses.  A second caller is where a second cache policy comes
      back (see docs/serving.md).

C009  No module under ``src/repro`` except ``graph/dag.py`` may name
      the DAG's private caches ``_memo``, ``_desc_cache``,
      ``_mask_index`` or ``_mask_order`` (as an attribute of anything
      but ``self``, or as a ``getattr``-family string), nor assign a
      ``_``-prefixed attribute on a receiver named ``dag``.  Every
      analysis derived from a DAG version goes through
      ``DependenceDAG.derived``, whose memo a transaction snapshots and
      restores whole; a cache kept on the DAG from outside is one that
      rollback and copy do not know about (see docs/passes.md).

C010  No module under ``src/repro`` may compare an exception's type
      name (``.__name__``, directly or through a variable assigned
      from it) with a string literal, and no ``except`` clause or
      other tuple may list two or more classes of the ``CompileError``
      family (resolved from the class statements under ``src/repro``).
      ``repro.diagnostics.CompileError.code`` is the one answer to
      "which exceptions are compile failures, and what does each mean
      to a caller"; a name match misses subclasses, and a hand-kept
      list drifts from the family (see docs/serving.md).

Usage::

    python tools/lint_contracts.py [--root DIR]

Prints ``file:line: CODE: message`` per finding and exits non-zero if
any were produced.  Wired into CI (`analyze-smoke`) and exercised by
``tests/test_analyze.py``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
OBS_METHODS = {"span", "count", "peak", "event"}
SCHEMA_MARKER = re.compile(r"<!--\s*obs-name-schema:\s*(?P<rx>.+?)\s*-->")


class Finding:
    def __init__(self, path: Path, line: int, code: str, message: str):
        self.path = path
        self.line = line
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"


def load_name_schema(root: Path) -> re.Pattern:
    """Extract the obs-name regex from docs/observability.md."""
    doc = root / "docs" / "observability.md"
    match = SCHEMA_MARKER.search(doc.read_text(encoding="utf-8"))
    if match is None:
        raise SystemExit(
            f"{doc}: missing '<!-- obs-name-schema: ... -->' marker; "
            "the instrumentation-name schema must be published there"
        )
    return re.compile(match.group("rx"))


def python_files(root: Path) -> Iterator[Path]:
    yield from sorted((root / "src" / "repro").rglob("*.py"))


# ----------------------------------------------------------------------
# C001: pickle-hostile MachineModel classifiers.
# ----------------------------------------------------------------------
def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _nested_function_names(tree: ast.Module) -> set:
    """Names of functions defined anywhere below module level."""
    nested = set()
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(inner.name)
    return nested


def lint_classifiers(path: Path, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    nested = _nested_function_names(tree)

    def classifier_args(call: ast.Call) -> Iterator[ast.expr]:
        for kw in call.keywords:
            if kw.arg == "reg_class_of":
                yield kw.value
        # MachineModel(name, fu_classes, registers, reg_class_of)
        if _call_name(call) == "MachineModel" and len(call.args) >= 4:
            yield call.args[3]

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for value in classifier_args(node):
            if isinstance(value, ast.Lambda):
                findings.append(Finding(
                    path, value.lineno, "C001",
                    "lambda passed as MachineModel classifier "
                    "(reg_class_of); lambdas cannot be pickled, which "
                    "breaks the serve worker pool and compile cache — "
                    "use a named module-level function "
                    "(e.g. default_reg_class)",
                ))
            elif isinstance(value, ast.Name) and value.id in nested:
                findings.append(Finding(
                    path, value.lineno, "C001",
                    f"closure {value.id!r} passed as MachineModel "
                    "classifier (reg_class_of); nested functions cannot "
                    "be pickled — hoist it to module level",
                ))
    return findings


# ----------------------------------------------------------------------
# C002: instrumentation names vs the published schema.
# ----------------------------------------------------------------------
def _literal_name(node: ast.expr) -> Optional[str]:
    """A checkable rendering of an obs-name argument, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:  # FormattedValue: any substitution is one segment
                parts.append("x")
        return "".join(parts)
    return None


def lint_obs_names(
    path: Path, tree: ast.Module, schema: re.Pattern
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        is_obs_call = (
            isinstance(func, ast.Attribute)
            and func.attr in OBS_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id == "obs"
        )
        if not is_obs_call:
            continue
        name = _literal_name(node.args[0])
        if name is None:
            continue  # dynamic name; not statically checkable
        if schema.fullmatch(name) is None:
            findings.append(Finding(
                path, node.lineno, "C002",
                f"obs.{func.attr} name {name!r} does not match the "
                f"schema {schema.pattern!r} published in "
                "docs/observability.md",
            ))
    return findings


# ----------------------------------------------------------------------
# C004: production imports of the reference oracle.
# ----------------------------------------------------------------------
ORACLE_MODULE = "repro.reference"


def _imports(tree: ast.Module) -> Iterator[Tuple[ast.stmt, List[str]]]:
    """Each absolute import statement with the dotted names it binds
    (``from a import b`` yields ``a`` and ``a.b``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node, [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]


def lint_oracle_imports(path: Path, tree: ast.Module) -> List[Finding]:
    if path.as_posix().endswith("src/repro/reference.py"):
        return []
    findings: List[Finding] = []
    for node, modules in _imports(tree):
        if any(
            module == ORACLE_MODULE or module.startswith(ORACLE_MODULE + ".")
            for module in modules
        ):
            findings.append(Finding(
                path, node.lineno, "C004",
                "production code imports repro.reference; that module is "
                "the test-only oracle for the bitset measurement core, "
                "and importing it brings back a second engine",
            ))
    return findings


# ----------------------------------------------------------------------
# C005: third-party graph/array libraries in the runtime.
# ----------------------------------------------------------------------
FORBIDDEN_PACKAGES = ("networkx", "numpy")


def lint_runtime_dependencies(path: Path, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    for node, modules in _imports(tree):
        for package in sorted(
            {module.split(".")[0] for module in modules} & set(FORBIDDEN_PACKAGES)
        ):
            findings.append(Finding(
                path, node.lineno, "C005",
                f"src/repro imports {package}; the runtime has no "
                "third-party dependencies (networkx is test-only)",
            ))
    return findings


# ----------------------------------------------------------------------
# C006: process executors outside the worker pool.
# ----------------------------------------------------------------------
PROCESS_EXECUTOR = "src/repro/serve/pool.py"


def lint_process_executors(path: Path, tree: ast.Module) -> List[Finding]:
    if path.as_posix().endswith(PROCESS_EXECUTOR):
        return []
    findings: List[Finding] = []
    for node, modules in _imports(tree):
        if any(module.split(".")[0] == "multiprocessing" for module in modules):
            findings.append(Finding(
                path, node.lineno, "C006",
                "src/repro imports multiprocessing outside serve/pool.py; "
                "WorkerPool is the one process executor — run parallel "
                "work through it",
            ))
    return findings


# ----------------------------------------------------------------------
# C007: bipartite matching outside the Dilworth front end.
# ----------------------------------------------------------------------
MATCHER = "BitsetKuhn"
MATCHER_FRONT_END = "src/repro/graph/dilworth.py"


def lint_matcher_references(path: Path, tree: ast.Module) -> List[Finding]:
    if path.as_posix().endswith(MATCHER_FRONT_END):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            hit = node.id == MATCHER
        elif isinstance(node, ast.Attribute):
            hit = node.attr == MATCHER
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(
                alias.name.split(".")[-1] == MATCHER for alias in node.names
            )
        else:
            continue
        if hit:
            findings.append(Finding(
                path, node.lineno, "C007",
                "src/repro references BitsetKuhn outside graph/dilworth.py; "
                "it is the one bipartite matcher — measure through "
                "dilworth (width_matching, minimum_chain_decomposition, "
                "maximum_antichain)",
            ))
    return findings


# ----------------------------------------------------------------------
# C008: cache policy and dispatch outside the cache-and-dispatch path.
# ----------------------------------------------------------------------
CACHE_POLICY_MODULES = ("src/repro/serve/cache.py", "src/repro/serve/pool.py")
CACHE_POLICY_CALLS = {"trace_key", "map_shards", "_compile_one"}
CACHE_RECEIVER = re.compile(r"cache|store", re.IGNORECASE)


def _callee(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def lint_cache_policy(path: Path, tree: ast.Module) -> List[Finding]:
    if path.as_posix().endswith(CACHE_POLICY_MODULES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node.func)
        if name == "put":
            receiver = _callee(node.func.value)
            hit = receiver is not None and bool(CACHE_RECEIVER.search(receiver))
        else:
            hit = name in CACHE_POLICY_CALLS
        if hit:
            findings.append(Finding(
                path, node.lineno, "C008",
                f"src/repro calls {name} outside serve/cache.py and "
                "serve/pool.py; compile_traces is the one "
                "cache-and-dispatch path — key, store and dispatch "
                "trace compiles through it",
            ))
    return findings


# ----------------------------------------------------------------------
# C009: the DAG's private caches outside graph/dag.py.
# ----------------------------------------------------------------------
DAG_MODULE = "src/repro/graph/dag.py"
DAG_CACHES = {"_memo", "_desc_cache", "_mask_index", "_mask_order"}
ATTR_BUILTINS = {"getattr", "setattr", "hasattr", "delattr"}


def _touches_dag_private(receiver: ast.expr, attr: str, write: bool) -> bool:
    """Whether ``receiver.attr`` (written when ``write``) breaks C009."""
    owner = receiver.id if isinstance(receiver, ast.Name) else None
    if attr in DAG_CACHES:
        return owner != "self"
    return write and attr.startswith("_") and owner == "dag"


def lint_dag_private_state(path: Path, tree: ast.Module) -> List[Finding]:
    if path.as_posix().endswith(DAG_MODULE):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attr = node.attr
            hit = _touches_dag_private(
                node.value, attr, isinstance(node.ctx, (ast.Store, ast.Del))
            )
        elif (
            isinstance(node, ast.Call)
            and _callee(node.func) in ATTR_BUILTINS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            attr = node.args[1].value
            hit = _touches_dag_private(
                node.args[0], attr, _callee(node.func) in ("setattr", "delattr")
            )
        else:
            continue
        if hit:
            findings.append(Finding(
                path, node.lineno, "C009",
                f"src/repro touches the DAG's private {attr} outside "
                "graph/dag.py; derive per-version analyses through "
                "DependenceDAG.derived, the one memo that rollback and "
                "copy maintain",
            ))
    return findings


# ----------------------------------------------------------------------
# C010: exception lists and type-name matching beside CompileError.code.
# ----------------------------------------------------------------------
FAILURE_BASE = "CompileError"


def compile_error_family(trees: List[ast.Module]) -> set:
    """Names of ``CompileError`` and every class deriving from it."""
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_callee(base) for base in node.bases}
    family = {FAILURE_BASE}
    while True:
        grown = family | {name for name, of in bases.items() if of & family}
        if grown == family:
            return family
        family = grown


def _is_str_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_str_literal(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def lint_failure_classification(
    path: Path, tree: ast.Module, family: set
) -> List[Finding]:
    def is_type_name(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "__name__"

    name_vars = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_type_name(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hit = any(
                is_type_name(o) or (isinstance(o, ast.Name) and o.id in name_vars)
                for o in operands
            ) and any(_is_str_literal(o) for o in operands)
            message = (
                "src/repro matches an exception's type name against a "
                "string; read CompileError.code instead (a name match "
                "misses subclasses)"
            )
        elif isinstance(node, ast.Tuple):
            members = sorted({_callee(elt) for elt in node.elts} & family)
            hit = len(members) >= 2
            message = (
                f"src/repro lists CompileError classes {members} together; "
                "catch CompileError and read its code instead of keeping "
                "an exception list"
            )
        else:
            continue
        if hit:
            findings.append(Finding(path, node.lineno, "C010", message))
    return findings


# ----------------------------------------------------------------------
def run(root: Path) -> List[Finding]:
    schema = load_name_schema(root)
    trees = [
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for path in python_files(root)
    ]
    family = compile_error_family([tree for _, tree in trees])
    findings: List[Finding] = []
    for path, tree in trees:
        rel = path.relative_to(root)
        findings.extend(lint_classifiers(rel, tree))
        findings.extend(lint_obs_names(rel, tree, schema))
        findings.extend(lint_oracle_imports(rel, tree))
        findings.extend(lint_runtime_dependencies(rel, tree))
        findings.extend(lint_process_executors(rel, tree))
        findings.extend(lint_matcher_references(rel, tree))
        findings.extend(lint_cache_policy(rel, tree))
        findings.extend(lint_dag_private_state(rel, tree))
        findings.extend(lint_failure_classification(rel, tree, family))
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="repository root (default: inferred from this file)",
    )
    args = parser.parse_args(argv)
    findings = run(args.root.resolve())
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_contracts: {len(findings)} finding(s)")
        return 1
    print("lint_contracts: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
