"""Balanced partitioning, balanced vertex cuts and distance preservation.

This package implements Section 4.1 of the paper over CSR snapshots
(:class:`~repro.core.flat.FlatWorkingGraph`), searched through the
shortest-path backend seam:

* :mod:`repro.partition.partition` - Algorithm 1 (BalancedPartition),
* :mod:`repro.partition.cut` - Algorithm 2 (BalancedCut), and
* :mod:`repro.partition.shortcuts` - Algorithm 3 (AddShortcuts) together
  with the redundancy elimination of Lemma 4.11 and the shortcut-enhanced
  child snapshot of Definition 4.9.
"""

from repro.partition.partition import BalancedPartitionResult, balanced_partition
from repro.partition.cut import BalancedCutResult, balanced_cut
from repro.partition.shortcuts import Shortcut, child_adjacency, compute_shortcuts

__all__ = [
    "balanced_partition",
    "BalancedPartitionResult",
    "balanced_cut",
    "BalancedCutResult",
    "compute_shortcuts",
    "child_adjacency",
    "Shortcut",
]
