"""Entry-at-a-time reference fixpoint for the Table 8 ``R0`` closure.

The shipped :func:`repro.analysis.closure.propagate` ORs whole per-label
bitsets along the SCC condensation of the copy-edge graph; this is the
original worklist over single ``(name, label, R0)`` entries it replaced.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.analysis.closure import CopyEdges, Seeds
from repro.analysis.resource_matrix import Access, Entry, ResourceMatrix


def propagate_naive(seeds: Seeds, copy_edges: CopyEdges) -> ResourceMatrix:
    """Every ``R0`` entry ``(n, l, R0)`` with a copy edge ``l → l*`` spawns
    ``(n, l*, R0)``, transitively, one deque item per (name, label) pair.

    The result interns into a private universe, deliberately independent of
    the seeds' session, relying on the name-based cross-universe equality of
    :class:`ResourceMatrix` for comparisons.
    """
    matrix = ResourceMatrix()
    worklist: Deque[Entry] = deque()
    for entry in seeds:
        if matrix.add_entry(entry) and entry.access is Access.R0:
            worklist.append(entry)

    while worklist:
        entry = worklist.popleft()
        for target in copy_edges.get(entry.label, ()):
            new_entry = Entry(entry.name, target, Access.R0)
            if matrix.add_entry(new_entry):
                worklist.append(new_entry)
    return matrix
