"""Flow policies and their enforcement on information-flow graphs.

A policy assigns a *clearance* (security level) to resources and states which
flows between levels are permitted.  Policies need not be transitive — the
paper cites Rushby's channel-control policies [14] and the non-transitive MLS
extension of Haigh and Young [4] — so the checker can operate either on direct
edges only (non-transitive, channel-control style) or on all paths (classical
noninterference style).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.flowgraph import FlowGraph
from repro.analysis.resource_matrix import base_resource
from repro.dataflow.universe import bit_indices
from repro.errors import PolicyError


@dataclass(frozen=True, order=True)
class Clearance:
    """A named security level with a numeric rank (higher = more secret)."""

    rank: int
    name: str

    def __str__(self) -> str:
        return self.name


#: Conventional two-point lattice.
PUBLIC = Clearance(0, "public")
SECRET = Clearance(1, "secret")


@dataclass(frozen=True)
class PolicyViolation:
    """One flow that the policy forbids."""

    source: str
    target: str
    source_level: Clearance
    target_level: Clearance
    path: Tuple[str, ...] = ()

    def describe(self) -> str:
        """A one-line human-readable description."""
        via = ""
        if len(self.path) > 2:
            via = " via " + " -> ".join(self.path[1:-1])
        return (
            f"flow from {self.source} ({self.source_level}) to "
            f"{self.target} ({self.target_level}) is not permitted{via}"
        )


@dataclass
class FlowPolicy:
    """A general (possibly non-transitive) flow policy.

    ``levels`` assigns a clearance to each resource (resources without an
    assignment get ``default_level``).  ``permitted`` lists the ordered pairs
    of clearances between which information may flow; flows within a level are
    always permitted.  ``transitive`` records the policy's *preferred*
    checking mode: ``False`` is the channel-control reading (direct edges
    only, the paper's non-transitive result graph), ``True`` asks for the
    classical all-paths noninterference check.  :func:`check_policy` still
    takes an explicit ``transitive`` argument; the field is the default the
    CLI and the serve mode use when the caller does not say.
    """

    levels: Dict[str, Clearance] = field(default_factory=dict)
    permitted: Set[Tuple[Clearance, Clearance]] = field(default_factory=set)
    default_level: Clearance = PUBLIC
    transitive: bool = False

    def level_of(self, resource: str) -> Clearance:
        """The clearance of ``resource`` (``n◦``/``n•`` share ``n``'s level)."""
        name = base_resource(resource)
        return self.levels.get(name, self.default_level)

    def assign(self, resource: str, level: Clearance) -> None:
        """Assign a clearance to a resource."""
        self.levels[resource] = level

    def permit(self, source: Clearance, target: Clearance) -> None:
        """Allow flows from ``source``-level resources to ``target``-level ones."""
        self.permitted.add((source, target))

    def allows(self, source: Clearance, target: Clearance) -> bool:
        """True when a flow between the two levels is permitted."""
        if source == target:
            return True
        return (source, target) in self.permitted


class TwoLevelPolicy(FlowPolicy):
    """The classical ``public ⊑ secret`` lattice policy.

    Secret resources are listed explicitly; everything else is public.  Flows
    from public to secret are permitted, flows from secret to public are not.
    """

    def __init__(self, secret_resources: Iterable[str] = ()):
        super().__init__(default_level=PUBLIC)
        for name in secret_resources:
            self.assign(name, SECRET)
        self.permit(PUBLIC, SECRET)

    @property
    def secret_resources(self) -> FrozenSet[str]:
        """The resources classified as secret."""
        return frozenset(
            name for name, level in self.levels.items() if level == SECRET
        )


def check_policy(
    graph: FlowGraph,
    policy: FlowPolicy,
    transitive: bool = False,
    restrict_to: Optional[Iterable[str]] = None,
) -> List[PolicyViolation]:
    """Check ``graph`` against ``policy`` and return every violation.

    With ``transitive=False`` (the default, matching the non-transitive reading
    of the paper's result graph) only direct edges are checked; with
    ``transitive=True`` every path is considered — each violating pair is
    reported once with a shortest witness path.  ``restrict_to`` optionally
    limits the endpoints considered (e.g. to ports only).  Violations come
    back ordered by ``(source, target)``.

    The check runs on the graph's bitsets: ``policy.level_of`` is asked once
    per node, each clearance gets the mask of the nodes it may not flow to,
    and each adjacency row is ANDed with its node's mask, so only violating
    edges are ever decoded to names.
    """
    if not isinstance(policy, FlowPolicy):
        raise PolicyError("check_policy expects a FlowPolicy")
    universe = graph.universe
    fact_of = universe.fact_of
    forward, adjacency = graph.adjacency()
    in_use = graph.node_bits
    for index, bits in adjacency.items():
        in_use |= bits | 1 << index
    interesting = set(restrict_to) if restrict_to is not None else None
    level_at: Dict[int, Clearance] = {}
    level_bits: Dict[Clearance, int] = {}
    for index in bit_indices(in_use):
        name = fact_of(index)
        if not (
            interesting is None
            or name in interesting
            or base_resource(name) in interesting
        ):
            continue
        level = level_at[index] = policy.level_of(name)
        level_bits[level] = level_bits.get(level, 0) | 1 << index

    def forbidden(outgoing: bool) -> Dict[Clearance, int]:
        """Per clearance, the nodes it may not flow to (``outgoing``) or
        receive from (otherwise)."""
        masks: Dict[Clearance, int] = {}
        for level in level_bits:
            mask = 0
            for other, bits in level_bits.items():
                allowed = (
                    policy.allows(level, other)
                    if outgoing
                    else policy.allows(other, level)
                )
                if not allowed:
                    mask |= bits
            masks[level] = mask
        return masks

    pairs: List[Tuple[int, int]] = []
    if not transitive:
        masks = forbidden(outgoing=forward)
        for index, row in adjacency.items():
            level = level_at.get(index)
            if level is None:
                continue
            bad = row & masks[level] & ~(1 << index)
            for other in bit_indices(bad):
                pairs.append((index, other) if forward else (other, index))
    else:
        masks = forbidden(outgoing=True)
        sources = 0
        for level, bits in level_bits.items():
            if masks[level]:
                sources |= bits
        sources &= graph.node_bits
        reach = graph.reach_bits(sources)
        for index in bit_indices(sources):
            bad = reach.get(index, 0) & masks[level_at[index]] & ~(1 << index)
            for other in bit_indices(bad):
                pairs.append((index, other))

    pairs.sort(key=lambda pair: (fact_of(pair[0]), fact_of(pair[1])))
    paths = _witness_paths(graph, pairs) if transitive else {}
    violations: List[PolicyViolation] = []
    for source_index, target_index in pairs:
        source, target = fact_of(source_index), fact_of(target_index)
        violations.append(
            PolicyViolation(
                source,
                target,
                level_at[source_index],
                level_at[target_index],
                paths.get((source_index, target_index), (source, target)),
            )
        )
    return violations


def _witness_paths(
    graph: FlowGraph, pairs: List[Tuple[int, int]]
) -> Dict[Tuple[int, int], Tuple[str, ...]]:
    """A shortest edge path for every ``(source, target)`` index pair.

    One breadth-first search per distinct source, recording each node's
    discoverer and visiting successors in name order, so the path found is
    the first shortest path in that order; the search stops once every
    target of the source has been discovered.
    """
    fact_of = graph.universe.fact_of
    successors = graph.successor_map()
    ordered: Dict[int, List[int]] = {}
    targets_of: Dict[int, Set[int]] = {}
    for source, target in pairs:
        targets_of.setdefault(source, set()).add(target)
    paths: Dict[Tuple[int, int], Tuple[str, ...]] = {}
    for source, targets in targets_of.items():
        parent = {source: source}
        pending = set(targets)
        queue = deque([source])
        while queue and pending:
            node = queue.popleft()
            following = ordered.get(node)
            if following is None:
                following = ordered[node] = sorted(
                    bit_indices(successors.get(node, 0)), key=fact_of
                )
            for successor in following:
                if successor not in parent:
                    parent[successor] = node
                    pending.discard(successor)
                    queue.append(successor)
        for target in targets:
            chain = [target]
            while chain[-1] != source:
                chain.append(parent[chain[-1]])
            paths[(source, target)] = tuple(fact_of(i) for i in reversed(chain))
    return paths
