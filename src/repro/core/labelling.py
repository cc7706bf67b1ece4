"""Hierarchical cut 2-hop labels (Section 4.2).

The labelling assigns every vertex one *distance array per ancestor cut*
in the balanced tree hierarchy.  Within an array, positions follow the
per-node rank order of the cut vertices; only the distance values are
stored (no hub identifiers), which halves the storage compared to generic
2-hop labels.  Tail pruning (Algorithm 5) truncates each array to the
prefix required for correctness.

This module holds :func:`node_distance_arrays`, Algorithm 5 for a single
tree node (both the tail-pruned and the naive variant used as the upper
bound of Section 4.2.1), and the level packer: a node's level is its
``(hubs x snapshot)`` distance block cut to one length per vertex
(:func:`level_piece`), and :func:`pack_levels` gathers any set of such
pieces into :class:`~repro.core.flat.FlatLabelling`, the one label store,
which also carries the size metrics of Tables 2-4.  No level ever exists
as a per-vertex Python list.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import BackendSpec, resolve_backend
from repro.core.flat import FlatLabelling, FlatWorkingGraph
from repro.core.ranking import CutRanking


def node_distance_arrays(
    flat: FlatWorkingGraph,
    ranking: CutRanking,
    tail_pruning: bool = True,
    backend: BackendSpec = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute one tree node's distance arrays (Algorithm 5).

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
    (lengths, cut_distances)
        ``cut_distances`` is the ``(ranked cut x snapshot)`` float64 block
        of single-source distances (row ``i`` from ``ranking.ordered[i]``,
        column ``j`` to dense vertex ``j``, ``inf`` where unreached), which
        the shortcut computation (Algorithm 3) reads at the border columns.
        ``lengths[j]`` (int64) is how many leading rows of column ``j`` form
        dense vertex ``j``'s (possibly tail-pruned) distance array.
    """
    ordered_cut = ranking.ordered
    n = len(flat.vertices)
    if not ordered_cut:
        return np.zeros(n, dtype=np.int64), np.empty((0, n), dtype=np.float64)

    search = resolve_backend(backend)
    cut_dense = flat.dense_ids(ordered_cut)
    prune_sets = [cut_dense[:i] for i in range(len(cut_dense))]
    dists, prunes = search.dist_and_prune_many(flat, cut_dense, prune_sets)

    num_searches = len(cut_dense)
    dist_matrix = np.asarray(dists, dtype=np.float64)

    # Tail pruning (Definition 4.18): keep, per vertex, the prefix up to
    # the last search whose shortest path does NOT run through an
    # earlier-ranked cut vertex.  Vectorised over the (search, vertex)
    # flag matrix; the values kept are exactly the search distances.
    if not tail_pruning:
        return np.full(n, num_searches, dtype=np.int64), dist_matrix
    not_pruned = ~np.asarray(prunes, dtype=bool)
    any_kept = not_pruned.any(axis=0)
    keep = np.where(any_kept, num_searches - 1 - np.argmax(not_pruned[::-1, :], axis=0), 0)
    return (keep + 1).astype(np.int64), dist_matrix


class LevelPiece(NamedTuple):
    """One hierarchy node's label level over its snapshot's vertices.

    Vertex ``vertices[j]`` owns the array at depth ``depth`` whose
    ``lengths[j]`` values follow those of ``vertices[:j]`` in ``values``.
    """

    #: vertex ids (int64), one per snapshot vertex
    vertices: np.ndarray
    depth: int
    #: array length per vertex (int64)
    lengths: np.ndarray
    #: every vertex's array, concatenated in ``vertices`` order (float64)
    values: np.ndarray


def level_piece(
    vertices: Sequence[int], depth: int, lengths: np.ndarray, block: np.ndarray
) -> LevelPiece:
    """The level of a node whose ``(hubs x snapshot)`` distance block is ``block``.

    Vertex ``j``'s array is ``block[:lengths[j], j]``; the row-major read of
    ``block.T`` under the ``arange(hubs) < lengths`` mask lays every array
    out contiguously, in vertex order.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    values = block.T[np.arange(block.shape[0]) < lengths[:, None]]
    return LevelPiece(np.asarray(vertices, dtype=np.int64), depth, lengths, values)


def pack_levels(
    pieces: Sequence[LevelPiece],
    num_vertices: int,
    vertices: Optional[np.ndarray] = None,
) -> FlatLabelling:
    """Gather level pieces into one :class:`~repro.core.flat.FlatLabelling`.

    Position ``p`` of the result holds the levels of vertex ``vertices[p]``
    (``vertices`` ascends; by default position ``p`` is vertex ``p``),
    ordered by depth.  Each vertex owns one level per piece covering it,
    zero-length levels included; the pieces may come in any order.  Level
    arrays are byte-identical to the pieces' values.
    """
    if not pieces:
        return FlatLabelling(
            num_vertices,
            np.empty(0, dtype=np.float64),
            np.zeros(1, dtype=np.int64),
            np.zeros(num_vertices + 1, dtype=np.int64),
        )
    ids = np.concatenate([piece.vertices for piece in pieces])
    positions = ids if vertices is None else np.searchsorted(vertices, ids)
    depths = np.repeat(
        np.array([piece.depth for piece in pieces], dtype=np.int64),
        [len(piece.vertices) for piece in pieces],
    )
    lengths = np.concatenate([piece.lengths for piece in pieces])
    values = np.concatenate([piece.values for piece in pieces])
    starts = np.cumsum(lengths) - lengths
    order = np.lexsort((depths, positions))
    lengths = lengths[order]
    level_indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=level_indptr[1:])
    gather = np.repeat(starts[order] - level_indptr[:-1], lengths) + np.arange(
        int(level_indptr[-1]), dtype=np.int64
    )
    vertex_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(positions, minlength=num_vertices), out=vertex_indptr[1:])
    return FlatLabelling(num_vertices, values[gather], level_indptr, vertex_indptr)
