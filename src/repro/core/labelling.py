"""Hierarchical cut 2-hop labels (Section 4.2).

The labelling assigns every vertex one *distance array per ancestor cut*
in the balanced tree hierarchy.  Within an array, positions follow the
per-node rank order of the cut vertices; only the distance values are
stored (no hub identifiers), which halves the storage compared to generic
2-hop labels.  Tail pruning (Algorithm 5) truncates each array to the
prefix required for correctness.

This module holds :func:`node_distance_arrays`, Algorithm 5 for a single
tree node (both the tail-pruned and the naive variant used as the upper
bound of Section 4.2.1).  Construction and relabelling pack its arrays
into :class:`~repro.core.flat.FlatLabelling`, the one label store, which
also carries the size metrics of Tables 2-4.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
