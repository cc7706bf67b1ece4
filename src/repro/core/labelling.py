"""Hierarchical cut 2-hop labels (Section 4.2).

The labelling assigns every vertex one *distance array per ancestor cut*
in the balanced tree hierarchy.  Within an array, positions follow the
per-node rank order of the cut vertices; only the distance values are
stored (no hub identifiers), which halves the storage compared to generic
2-hop labels.  Tail pruning (Algorithm 5) truncates each array to the
prefix required for correctness.

This module holds

* :func:`node_distance_arrays` - Algorithm 5 for a single tree node
  (both the tail-pruned and the naive variant used as the upper bound of
  Section 4.2.1), and
* :class:`HC2LLabelling` - the nested per-vertex container plus size
  metrics.  Construction and relabelling write
  :class:`~repro.core.flat.FlatLabelling` buffers directly; the nested
  form survives as the read-only :attr:`HC2LIndex.labelling
  <repro.core.index.HC2LIndex.labelling>` view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.backends import BackendSpec, resolve_backend
from repro.core.flat import FlatWorkingGraph
from repro.core.ranking import CutRanking


def node_distance_arrays(
    flat: FlatWorkingGraph,
    ranking: CutRanking,
    tail_pruning: bool = True,
    backend: BackendSpec = None,
) -> Tuple[Dict[int, List[float]], np.ndarray]:
    """Compute the per-vertex distance arrays for one tree node (Algorithm 5).

    Parameters
    ----------
    flat:
        Snapshot of the node's (distance-preserving) subgraph; the
        construction shares it with the ranking pass.
    ranking:
        The ranked cut vertices of the node (Equation 6 order).
    tail_pruning:
        When ``False`` the full (naive) arrays are kept; this is the upper
        bound labelling of Section 4.2.1 used by the ablation benchmark.
    backend:
        The :class:`~repro.core.backends.ShortestPathBackend` running the
        per-cut-vertex searches (name, instance, or ``None`` for the
        default).

    Returns
    -------
    (arrays, cut_distances)
        ``arrays`` maps every vertex of the subgraph to its (possibly
        tail-pruned) distance array for this node.  ``cut_distances`` is
        the ``(ranked cut x snapshot)`` float64 block of single-source
        distances (row ``i`` from ``ranking.ordered[i]``, column ``j`` to
        dense vertex ``j``, ``inf`` where unreached), which the shortcut
        computation (Algorithm 3) reads at the border columns.
    """
    ordered_cut = ranking.ordered
    vertices = flat.vertices
    if not ordered_cut:
        return {v: [] for v in vertices}, np.empty((0, len(vertices)), dtype=np.float64)

    search = resolve_backend(backend)
    cut_dense = flat.dense_ids(ordered_cut)
    prune_sets = [cut_dense[:i] for i in range(len(cut_dense))]
    dists, prunes = search.dist_and_prune_many(flat, cut_dense, prune_sets)

    num_searches = len(cut_dense)
    dist_matrix = np.asarray(dists, dtype=np.float64)

    # Tail pruning (Definition 4.18): keep, per vertex, the prefix up to
    # the last search whose shortest path does NOT run through an
    # earlier-ranked cut vertex.  Vectorised over the (search, vertex)
    # flag matrix; the values extracted are exactly the search distances,
    # so the arrays are bit-identical to the per-pair assembly.
    if tail_pruning:
        not_pruned = ~np.asarray(prunes, dtype=bool)
        any_kept = not_pruned.any(axis=0)
        keep = np.where(
            any_kept, num_searches - 1 - np.argmax(not_pruned[::-1, :], axis=0), 0
        )
        lengths = (keep + 1).tolist()
    else:
        lengths = [num_searches] * len(vertices)

    arrays: Dict[int, List[float]] = {
        v: dist_matrix[: lengths[j], j].tolist() for j, v in enumerate(vertices)
    }
    return arrays, dist_matrix


@dataclass
class HC2LLabelling:
    """Per-vertex hierarchical cut 2-hop labels.

    ``labels[v]`` is a list of distance arrays, one per level of the
    root-to-node path of ``v`` in the hierarchy (index = node depth).
    """

    num_vertices: int
    labels: List[List[List[float]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.labels:
            self.labels = [[] for _ in range(self.num_vertices)]

    def append_level(self, vertex: int, array: Sequence[float]) -> None:
        """Append the distance array of the next level for ``vertex``."""
        self.labels[vertex].append(list(array))

    def level_array(self, vertex: int, depth: int) -> List[float]:
        """Distance array of ``vertex`` at hierarchy depth ``depth``."""
        return self.labels[vertex][depth]

    def num_levels(self, vertex: int) -> int:
        """Number of levels stored for ``vertex`` (= node depth + 1)."""
        return len(self.labels[vertex])

    # ------------------------------------------------------------------ #
    # size metrics (Tables 2-4)
    # ------------------------------------------------------------------ #
    def total_entries(self) -> int:
        """Total number of stored distance values."""
        return sum(len(array) for levels in self.labels for array in levels)

    def entries_of(self, vertex: int) -> int:
        """Number of distance values stored for one vertex."""
        return sum(len(array) for array in self.labels[vertex])

    def size_bytes(self) -> int:
        """Approximate labelling size in bytes.

        Each distance value costs 8 bytes; each per-level array carries a
        2-byte length prefix; each vertex carries an 8-byte offset into the
        label storage.  Hub identifiers are *not* stored (Section 4.2.2).
        """
        entries = self.total_entries()
        level_overhead = sum(len(levels) * 2 for levels in self.labels)
        return entries * 8 + level_overhead + 8 * self.num_vertices

    def average_label_entries(self) -> float:
        """Mean number of stored distance values per vertex."""
        if self.num_vertices == 0:
            return 0.0
        return self.total_entries() / self.num_vertices

    def max_label_entries(self) -> int:
        """Largest per-vertex label, in distance values."""
        if self.num_vertices == 0:
            return 0
        return max(self.entries_of(v) for v in range(self.num_vertices))
