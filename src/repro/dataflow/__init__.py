"""Generic Monotone-Framework machinery (the paper's analyses are instances).

The Reaching Definitions analyses of Section 4 are forward data-flow analyses
over powerset lattices.  :mod:`repro.dataflow.framework` provides the instance
description (:class:`~repro.dataflow.framework.DataflowInstance`),
:mod:`repro.dataflow.universe` the fact interner that turns fact sets into
int bitsets, and :mod:`repro.dataflow.worklist` the bitset chaotic-iteration
solver computing the least solution of the equation system.
"""

from repro.dataflow.framework import DataflowInstance, DataflowSolution, JoinMode
from repro.dataflow.universe import FactUniverse
from repro.dataflow.worklist import solve

__all__ = [
    "DataflowInstance",
    "DataflowSolution",
    "FactUniverse",
    "JoinMode",
    "solve",
]
