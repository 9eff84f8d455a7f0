"""The frozenset worklist engine, reference for :func:`repro.dataflow.worklist.solve`.

The shipped solver interns facts and iterates on int bitsets in reverse
postorder; this is the original FIFO iteration over frozensets, using the
instance's own ``transfer`` and ``join``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, FrozenSet, List, Set

from repro.dataflow.framework import EMPTY, DataflowInstance, DataflowSolution


def solve_sets(instance: DataflowInstance) -> DataflowSolution:
    """The least solution of ``instance``, computed on frozensets."""
    predecessors: Dict[int, List[int]] = defaultdict(list)
    successors: Dict[int, List[int]] = defaultdict(list)
    for src, dst in instance.flow:
        predecessors[dst].append(src)
        successors[src].append(dst)

    entry: Dict[int, FrozenSet] = {}
    exit_: Dict[int, FrozenSet] = {}
    for label in instance.labels:
        if label in instance.extremal_labels:
            entry[label] = frozenset(instance.extremal_value.get(label, EMPTY))
        else:
            entry[label] = EMPTY
        exit_[label] = instance.transfer(label, entry[label])

    worklist: Deque[int] = deque(sorted(instance.labels))
    queued: Set[int] = set(worklist)
    iterations = 0

    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        iterations += 1

        if label in instance.extremal_labels:
            new_entry = frozenset(instance.extremal_value.get(label, EMPTY))
        else:
            incoming = [exit_[pred] for pred in predecessors.get(label, [])]
            new_entry = instance.join(incoming)

        new_exit = instance.transfer(label, new_entry)
        changed = new_entry != entry[label] or new_exit != exit_[label]
        entry[label] = new_entry
        exit_[label] = new_exit
        if changed:
            for succ in successors.get(label, []):
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)

    return DataflowSolution(entry=entry, exit=exit_, iterations=iterations)
