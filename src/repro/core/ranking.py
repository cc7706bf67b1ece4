"""Cut-vertex ranking (Equation 6).

Before labels are constructed for a tree node, its cut vertices are ranked
by how often their shortest paths to other vertices are "covered" by
another cut vertex.  Highly covered vertices are placed at the *tail* of
the per-node order, which is what allows tail pruning (Definition 4.18) to
drop suffixes of distance arrays without storing vertex identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.backends import BackendSpec, resolve_backend
from repro.core.flat import FlatWorkingGraph


@dataclass
class CutRanking:
    """The ranked cut vertices of one tree node.

    ``ordered`` lists the cut vertices in ascending rank (least coverable
    first - these occupy the early, never-pruned positions of the distance
    arrays).  ``coverage`` stores the raw Equation 6 counts.
    """

    ordered: List[int]
    coverage: Dict[int, int]


def rank_cut_vertices(
    flat: FlatWorkingGraph,
    cut: Sequence[int],
    backend: BackendSpec = None,
) -> CutRanking:
    """Rank the cut vertices of a node by their coverage count (Equation 6).

    For each cut vertex ``v`` we run one pruneability-tracking search with
    the other cut vertices as the prune set; the coverage count ``P#(v)``
    is the number of vertices whose shortest path from ``v`` passes
    through another cut vertex.  Ties break on the vertex id so
    construction is deterministic.

    ``flat`` is the node's snapshot (the construction shares it between
    ranking and labelling, which also lets the ``csr`` backend reuse the
    distance rows across the two passes).  ``backend`` selects the
    :class:`~repro.core.backends.ShortestPathBackend` running the
    searches.
    """
    cut_list = list(cut)
    if len(cut_list) <= 1:
        return CutRanking(ordered=cut_list, coverage={v: 0 for v in cut_list})
    search = resolve_backend(backend)
    cut_dense = flat.dense_ids(cut_list)
    prune_sets = [[c for c in cut_dense if c != v_dense] for v_dense in cut_dense]
    _, prunes = search.dist_and_prune_many(flat, cut_dense, prune_sets)
    coverage: Dict[int, int] = {
        v: int(np.count_nonzero(through)) for v, through in zip(cut_list, prunes)
    }
    ordered = sorted(cut_list, key=lambda v: (coverage[v], v))
    return CutRanking(ordered=ordered, coverage=coverage)
