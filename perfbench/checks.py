"""Output checks applied to every document the benchmark receives.

Each check returns ``None`` when the document is right and a one-line reason
when it is not; the workloads count a reason as a failed op.  The facts
checked do not come from the analyser under test:

* every document is JSON stamped ``vhdl-ifa/v1`` with the expected
  ``command``, and (once per distinct input) validates against
  ``docs/schema_v1.json``;
* a chain design of ``P`` processes and ``A`` assignments has
  ``P * (A + 4)`` labels, ``chain_in`` reaches ``chain_out`` in the
  analyze graph, and ``check`` reports a ``chain_in -> chain_out``
  violation under the fixed policy;
* the paper programs carry the edges written by hand in ``expected.json``
  (taken from the assertions of the test suite);
* documents of one request from different surfaces are byte-identical
  once the fields ``render.volatile_pointers`` names are masked.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

STAMP = "vhdl-ifa/v1"
HERE = Path(__file__).resolve().parent

#: Hand-written edge facts of the paper programs (default options).
EXPECTED: Dict[str, Dict[str, List[List[str]]]] = json.loads(
    (HERE / "expected.json").read_text(encoding="utf-8")
)["edges"]


class Checker:
    """Validates documents; schema validation runs once per distinct key.

    The schema validation of a document is deferred to :meth:`finish`, after
    the timed window, so that it does not take the window's time; the cheap
    checks run on every document as it arrives.
    """

    def __init__(self, schema_path: Path):
        import jsonschema

        full = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validators = {
            command: jsonschema.Draft7Validator(
                {"definitions": full["definitions"], **document}
            )
            for command, document in full["documents"].items()
        }
        self._validated: set = set()
        self._pending: List[Tuple[str, str, str]] = []

    def document(
        self,
        text: str,
        command: str,
        facts: Optional[Dict[str, Any]] = None,
        key: Optional[str] = None,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """Parse and check one encoded document; returns ``(doc, reason)``."""
        try:
            document = json.loads(text)
        except ValueError as error:
            return None, f"not JSON: {error}"
        if not isinstance(document, dict):
            return None, "not a JSON object"
        if document.get("schema") != STAMP:
            return document, f"schema stamp {document.get('schema')!r}"
        if document.get("command") != command:
            return document, f"command {document.get('command')!r} != {command!r}"
        if key is None or key not in self._validated:
            self._pending.append((command, text, key or command))
            if key is not None:
                self._validated.add(key)
        reason = check_facts(document, command, facts or {})
        return document, reason

    def finish(self) -> List[Tuple[str, Optional[str]]]:
        """Validate the deferred documents: ``(key, reason or None)`` each."""
        outcomes = []
        for command, text, key in self._pending:
            error = next(iter(self._validators[command].iter_errors(json.loads(text))), None)
            outcomes.append((key, None if error is None else f"schema: {error.message[:200]}"))
        self._pending.clear()
        return outcomes


def _reaches(adjacency: Dict[str, List[str]], source: str, target: str) -> bool:
    seen = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for successor in adjacency.get(node, ()):
            if successor == target:
                return True
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return False


def check_facts(document: Dict[str, Any], command: str, facts: Dict[str, Any]) -> Optional[str]:
    """The facts of one input that the document must show."""
    design = facts.get("design")
    if design is not None and document.get("design") != design:
        return f"design {document.get('design')!r} != {design!r}"
    if command == "analyze":
        adjacency = document["graph"]["adjacency"]
        labels = facts.get("labels")
        if labels is not None and document["summary"]["labels"] != labels:
            return f"labels {document['summary']['labels']} != {labels}"
        reach = facts.get("reach")
        if reach is not None and not _reaches(adjacency, *reach):
            return f"{reach[0]} does not reach {reach[1]}"
        expected = EXPECTED.get(facts.get("paper", ""))
        if expected is not None:
            for source, target in expected["present"]:
                if target not in adjacency.get(source, ()):
                    return f"missing edge {source} -> {target}"
            for source, target in expected["absent"]:
                if target in adjacency.get(source, ()):
                    return f"unexpected edge {source} -> {target}"
    if command == "check":
        violation = facts.get("violation")
        if violation is not None and not any(
            (item.get("source"), item.get("target")) == tuple(violation)
            for item in document.get("violations", ())
        ):
            return f"no {violation[0]} -> {violation[1]} violation"
        if document.get("clean") != (not document.get("violations")):
            return "clean flag disagrees with violations"
    if command == "lint" and document.get("clean") != (not document.get("findings")):
        return "clean flag disagrees with findings"
    return None


def expected_exit(command: str, document: Dict[str, Any]) -> int:
    """The CLI exit code a document implies (0 clean, 3 violation/finding)."""
    if command == "check":
        return 0 if document.get("clean") else 3
    if command == "lint":
        errors = document.get("summary", {}).get("errors", 0)
        return 3 if errors else 0
    return 0


def _mask(node: Any, parts: List[str], kind: str) -> None:
    if not parts or not isinstance(node, dict):
        return
    head, rest = parts[0], parts[1:]
    keys: Iterable[str] = list(node) if head == "*" else [head]
    for key in keys:
        if key not in node:
            continue
        if rest:
            _mask(node[key], rest, kind)
        else:
            node[key] = {"$volatile": kind}


def masked(document: Dict[str, Any], pointers: Dict[str, str]) -> str:
    """``document`` with every volatile pointer replaced, re-encoded."""
    copy = json.loads(json.dumps(document))
    for pointer, kind in pointers.items():
        _mask(copy, pointer.strip("/").split("/"), kind)
    return json.dumps(copy, indent=2, ensure_ascii=False)
