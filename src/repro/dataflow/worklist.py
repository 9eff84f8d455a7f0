"""Worklist solver computing the least solution of a Monotone Framework.

:func:`solve` interns every fact occurring in a kill, gen or extremal set into
a :class:`~repro.dataflow.universe.FactUniverse` and runs the chaotic
iteration entirely on Python-int bitsets: the transfer function is
``(entry & ~kill) | gen`` and joins are word-wise ``|`` (may analyses) or
``&`` (the paper's dotted intersection ``⋂˙``, which yields ``0`` for an empty
family of predecessors).  The worklist is prioritised by reverse postorder of
the flow graph, so acyclic stretches converge in one sweep.  The solution is
decoded back to frozensets at the boundary, so callers never see bitsets.  The
original frozenset engine lives on as a test oracle
(``tests/oracles/worklist.py``), and the test suite asserts both agree on the
paper programs, the AES rounds and randomized programs.

Because every equation right-hand side is monotone and the lattices are
finite, the iteration terminates in the least solution — the solution the
paper requires ("the smallest solution to the equation systems").
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, FrozenSet, List, Set, Tuple, TypeVar

from repro.dataflow.framework import DataflowInstance, DataflowSolution, JoinMode
from repro.dataflow.universe import FactUniverse

Fact = TypeVar("Fact")


def reverse_postorder(
    labels: FrozenSet[int],
    successors: Dict[int, List[int]],
    roots: FrozenSet[int],
) -> Dict[int, int]:
    """Rank every label by reverse postorder of a DFS from ``roots``.

    Labels unreachable from the roots are ranked after all reachable ones, in
    ascending label order, so the result is a total, deterministic priority.
    """
    postorder: List[int] = []
    visited: Set[int] = set()
    for root in sorted(roots):
        if root in visited:
            continue
        # Iterative DFS with an explicit (label, child-iterator) stack.
        stack: List[Tuple[int, int]] = [(root, 0)]
        visited.add(root)
        while stack:
            label, child_index = stack[-1]
            children = successors.get(label, ())
            if child_index < len(children):
                stack[-1] = (label, child_index + 1)
                child = children[child_index]
                if child not in visited:
                    visited.add(child)
                    stack.append((child, 0))
            else:
                stack.pop()
                postorder.append(label)
    order = {label: rank for rank, label in enumerate(reversed(postorder))}
    for label in sorted(labels - visited):
        order[label] = len(order)
    return order


def solve(instance: DataflowInstance) -> DataflowSolution:
    """Compute the least solution of ``instance`` on the bitset engine."""
    predecessors: Dict[int, List[int]] = defaultdict(list)
    successors: Dict[int, List[int]] = defaultdict(list)
    for src, dst in instance.flow:
        predecessors[dst].append(src)
        successors[src].append(dst)

    universe: FactUniverse = FactUniverse()
    extremal_bits: Dict[int, int] = {
        label: universe.encode(instance.extremal_value.get(label, ()))
        for label in instance.extremal_labels
    }
    not_kill: Dict[int, int] = {}
    gen_bits: Dict[int, int] = {}
    for label in instance.labels:
        not_kill[label] = ~universe.encode(instance.kill.get(label, ()))
        gen_bits[label] = universe.encode(instance.gen.get(label, ()))

    entry: Dict[int, int] = {}
    exit_: Dict[int, int] = {}
    for label in instance.labels:
        entry[label] = extremal_bits.get(label, 0)
        exit_[label] = (entry[label] & not_kill[label]) | gen_bits[label]

    order = reverse_postorder(instance.labels, successors, instance.extremal_labels)
    worklist: List[Tuple[int, int]] = [(order[label], label) for label in instance.labels]
    heapq.heapify(worklist)
    queued: Set[int] = set(instance.labels)
    union_join = instance.join_mode is JoinMode.UNION
    iterations = 0

    while worklist:
        _, label = heapq.heappop(worklist)
        if label not in queued:
            continue
        queued.discard(label)
        iterations += 1

        if label in extremal_bits:
            # The paper's equations give extremal labels exactly the extremal
            # value ("∅ if l = init(ss_i)"); entries are isolated, so there are
            # no incoming edges to join anyway.
            new_entry = extremal_bits[label]
        else:
            incoming = predecessors.get(label)
            if not incoming:
                new_entry = 0
            elif union_join:
                new_entry = 0
                for pred in incoming:
                    new_entry |= exit_[pred]
            else:
                new_entry = exit_[incoming[0]]
                for pred in incoming[1:]:
                    new_entry &= exit_[pred]

        new_exit = (new_entry & not_kill[label]) | gen_bits[label]
        changed = new_entry != entry[label] or new_exit != exit_[label]
        entry[label] = new_entry
        exit_[label] = new_exit
        if changed:
            for succ in successors.get(label, []):
                if succ not in queued:
                    heapq.heappush(worklist, (order[succ], succ))
                    queued.add(succ)

    # Adjacent labels usually share bitsets (exit(l) == entry(l')), so decode
    # each distinct bitset once.
    decoded: Dict[int, FrozenSet] = {}

    def decode(bits: int) -> FrozenSet:
        value = decoded.get(bits)
        if value is None:
            value = decoded[bits] = universe.decode(bits)
        return value

    return DataflowSolution(
        entry={label: decode(bits) for label, bits in entry.items()},
        exit={label: decode(bits) for label, bits in exit_.items()},
        iterations=iterations,
    )
