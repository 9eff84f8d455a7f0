"""The edge-by-edge policy checker: the oracle for ``check_policy``.

This is the checker as first written: it decodes every edge of the flow
graph to a pair of names, sorts them, and asks the policy for the clearance
of both endpoints of each one; the transitive mode walks every reachable
target of every source and finds each witness path with its own
breadth-first search.  :func:`repro.security.policy.check_policy` must
return exactly what this returns, violation for violation and path for path.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Tuple

from repro.analysis.flowgraph import FlowGraph
from repro.analysis.resource_matrix import base_resource
from repro.security.policy import FlowPolicy, PolicyViolation


def check_policy_reference(
    graph: FlowGraph,
    policy: FlowPolicy,
    transitive: bool = False,
    restrict_to: Optional[Iterable[str]] = None,
) -> List[PolicyViolation]:
    """Every violation of ``policy`` in ``graph``, ordered by ``(source, target)``."""
    interesting = set(restrict_to) if restrict_to is not None else None
    violations: List[PolicyViolation] = []

    def endpoint_ok(name: str) -> bool:
        return interesting is None or base_resource(name) in interesting or name in interesting

    if not transitive:
        for source, target in sorted(graph.edges):
            if source == target:
                continue
            if not (endpoint_ok(source) and endpoint_ok(target)):
                continue
            src_level = policy.level_of(source)
            dst_level = policy.level_of(target)
            if not policy.allows(src_level, dst_level):
                violations.append(
                    PolicyViolation(source, target, src_level, dst_level, (source, target))
                )
        return violations

    for source in sorted(graph.nodes):
        if not endpoint_ok(source):
            continue
        src_level = policy.level_of(source)
        for target in sorted(graph.reachable_from(source)):
            if source == target or not endpoint_ok(target):
                continue
            dst_level = policy.level_of(target)
            if not policy.allows(src_level, dst_level):
                path = witness_path_reference(graph, source, target)
                violations.append(
                    PolicyViolation(source, target, src_level, dst_level, path)
                )
    return violations


def witness_path_reference(
    graph: FlowGraph, source: str, target: str
) -> Tuple[str, ...]:
    """A shortest edge path from ``source`` to ``target`` (one BFS per pair)."""
    queue = deque([(source, (source,))])
    seen = {source}
    while queue:
        node, path = queue.popleft()
        for successor in sorted(graph.successors(node)):
            if successor == target:
                return path + (successor,)
            if successor not in seen:
                seen.add(successor)
                queue.append((successor, path + (successor,)))
    return (source, target)
