#!/usr/bin/env python
"""Repo invariant gate: AST lint over ``src/repro`` (stdlib only).

Five invariants, each of which has silently rotted in similar codebases and
none of which the type checker can express:

1. **Every serve/CLI JSON document is stamped.**  Arguments to
   ``json_text(...)`` and ``_print_json(...)`` must be built by
   ``stamped(...)``, a ``*_document(...)`` helper, a ``.document(...)`` /
   ``.to_json_dict(...)`` method, or a local name assigned from one of those
   in the same function.  (The ``_print_json`` wrapper itself is the one
   blessed pass-through.)  This keeps ``schema``/``generator``/``version``
   on every machine-readable payload.

2. **No module-global interner state.**  ``FactUniverse()`` must never be
   instantiated at module scope or as a function-parameter default — a
   shared interner makes bit positions leak between unrelated analyses and
   breaks worker-pool isolation.

3. **Every cacheable pipeline stage declares its cache-key options.**
   Each ``Stage(...)`` construction must pass ``option_fields`` (third
   positional argument onwards or by keyword) unless the stage is named
   ``"parse"`` (keyed by source digest alone) or is ``cacheable=False``.
   A stage that forgets this is cached under too-weak a key and serves
   stale artifacts when options change.

4. **Diagnostic codes are registered exactly once.**  Every string literal
   matching ``IFA<3 digits>`` that is *assigned to a name* must be unique
   across the tree — two rules (or a rule and the flow checker) sharing a
   code would corrupt the lint catalog and docs gate.

5. **``src/repro`` imports only the standard library and itself.**  Every
   ``import X`` / ``from X import ...`` must name a module whose top-level
   package is in ``sys.stdlib_module_names`` or is ``repro``.  The package
   declares no dependencies, so a third-party import either breaks on a
   clean install or, guarded by ``try``, silently changes behaviour and
   start-up cost with whatever happens to be installed.

Usage: ``python scripts/check_invariants.py [PATH ...]`` — paths default to
``src/repro``; passing explicit paths lets the tests seed violations in a
scratch tree.  Exits 1 listing every violation, 0 when clean.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = (REPO_ROOT / "src" / "repro",)

#: JSON sinks whose argument must be a stamped document (invariant 1).
JSON_SINKS = ("json_text", "_print_json")
#: Call shapes that produce stamped documents.
DOCUMENT_FUNCTIONS = ("stamped",)
DOCUMENT_SUFFIXES = ("_document",)
DOCUMENT_METHODS = ("document", "to_json_dict", "stamped")
#: The one blessed pass-through wrapper for invariant 1.
SINK_WRAPPERS = ("_print_json",)

#: Diagnostic code shape (invariant 4).
CODE_PATTERN = re.compile(r"^IFA[0-9]{3}\Z")


def python_files(paths: Tuple[Path, ...]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _call_name(node: ast.AST) -> str:
    """The bare function name of a call target (``''`` when not a call)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_document_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in DOCUMENT_FUNCTIONS or func.id.endswith(
            DOCUMENT_SUFFIXES
        )
    if isinstance(func, ast.Attribute):
        return func.attr in DOCUMENT_METHODS or func.attr.endswith(
            DOCUMENT_SUFFIXES
        )
    return False


def _document_names(function: ast.AST) -> set:
    """Local names bound (anywhere in ``function``) to a document call."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _is_document_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_document_call(node.value) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
    return names


def check_stamped_json(tree: ast.Module, relpath: str) -> List[str]:
    """Invariant 1: JSON sink arguments must be stamped documents."""
    failures = []
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # Function scopes first: ast.walk(tree) descends into function bodies,
    # so the module scope must only pick up calls no function claimed.
    scopes = [(fn, fn.name, _document_names(fn)) for fn in functions] + [
        (tree, "<module>", set())
    ]
    seen = set()
    for scope, scope_name, documents in scopes:
        for node in ast.walk(scope):
            if scope is tree and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue  # handled by the per-function scopes
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node.func) not in JSON_SINKS:
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if scope_name in SINK_WRAPPERS:
                continue  # the wrapper forwards its parameter by design
            if not node.args:
                continue
            argument = node.args[0]
            if _is_document_call(argument):
                continue
            if isinstance(argument, ast.Name) and argument.id in documents:
                continue
            failures.append(
                f"{relpath}:{node.lineno}: argument of "
                f"{_call_name(node.func)}() is not a stamped document "
                "(build it with stamped(), a *_document() helper, "
                ".document() or .to_json_dict())"
            )
    return failures


def check_no_global_universe(tree: ast.Module, relpath: str) -> List[str]:
    """Invariant 2: no module-scope or default-argument ``FactUniverse()``."""
    failures = []

    def is_universe_call(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and _call_name(node.func) == (
            "FactUniverse"
        )

    for node in tree.body:  # module scope only — locals are fine
        values = []
        if isinstance(node, ast.Assign):
            values.append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            values.append(node.value)
        for value in values:
            for sub in ast.walk(value):
                if is_universe_call(sub):
                    failures.append(
                        f"{relpath}:{sub.lineno}: FactUniverse() instantiated "
                        "at module scope — interner state must never be "
                        "global"
                    )
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            for sub in ast.walk(default):
                if is_universe_call(sub):
                    failures.append(
                        f"{relpath}:{sub.lineno}: FactUniverse() as a "
                        f"default argument of {node.name}() — the instance "
                        "would be shared across calls"
                    )
    return failures


def check_stage_option_fields(tree: ast.Module, relpath: str) -> List[str]:
    """Invariant 3: cacheable ``Stage(...)`` calls declare option_fields."""
    failures = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or _call_name(node.func) != "Stage":
            continue
        name = ""
        if node.args and isinstance(node.args[0], ast.Constant):
            if isinstance(node.args[0].value, str):
                name = node.args[0].value
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        cacheable = keywords.get("cacheable")
        if isinstance(cacheable, ast.Constant) and cacheable.value is False:
            continue
        if name == "parse":
            continue  # keyed by the source digest alone, by design
        if len(node.args) >= 4 or "option_fields" in keywords:
            continue
        failures.append(
            f"{relpath}:{node.lineno}: Stage({name!r}, ...) is cacheable but "
            "declares no option_fields — its cache key would ignore the "
            "analysis options"
        )
    return failures


def check_stdlib_imports(tree: ast.Module, relpath: str) -> List[str]:
    """Invariant 5: absolute imports name the stdlib or ``repro``."""
    failures = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            top = module.partition(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                failures.append(
                    f"{relpath}:{node.lineno}: imports {module!r}, which is "
                    "neither the standard library nor repro — src/ declares "
                    "no third-party dependencies"
                )
    return failures


def collect_diagnostic_codes(
    tree: ast.Module, relpath: str
) -> List[Tuple[str, str]]:
    """All ``NAME = "IFAnnn"`` assignments as ``(code, location)`` pairs."""
    codes = []
    for node in ast.walk(tree):
        targets: List[ast.AST] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, ast.Constant):
            continue
        if not isinstance(value.value, str):
            continue
        if not CODE_PATTERN.match(value.value):
            continue
        if any(isinstance(target, ast.Name) for target in targets):
            codes.append((value.value, f"{relpath}:{node.lineno}"))
    return codes


def check_tree(paths: Tuple[Path, ...]) -> List[str]:
    failures = []
    codes: dict = {}
    for path in python_files(paths):
        try:
            relpath = str(path.relative_to(REPO_ROOT))
        except ValueError:
            relpath = str(path)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as error:
            failures.append(f"{relpath}: syntax error: {error}")
            continue
        failures.extend(check_stamped_json(tree, relpath))
        failures.extend(check_no_global_universe(tree, relpath))
        failures.extend(check_stage_option_fields(tree, relpath))
        failures.extend(check_stdlib_imports(tree, relpath))
        for code, location in collect_diagnostic_codes(tree, relpath):
            codes.setdefault(code, []).append(location)
    for code in sorted(codes):
        locations = codes[code]
        if len(locations) > 1:
            failures.append(
                f"diagnostic code {code!r} assigned {len(locations)} times "
                f"({', '.join(locations)}) — codes must be registered "
                "exactly once"
            )
    return failures


def main(argv: List[str]) -> int:
    paths = (
        tuple(Path(arg).resolve() for arg in argv[1:])
        if len(argv) > 1
        else DEFAULT_PATHS
    )
    failures = check_tree(paths)
    for failure in failures:
        print(f"invariant check: {failure}", file=sys.stderr)
    if failures:
        print(
            f"invariant check: {len(failures)} violation(s)", file=sys.stderr
        )
        return 1
    count = sum(1 for _ in python_files(paths))
    print(
        f"invariant check: {count} files OK (stamped JSON sinks, no global "
        "interner state, stage cache keys declared, diagnostic codes unique, "
        "stdlib-only imports)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
