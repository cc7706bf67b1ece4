"""Algorithm 3 - AddShortcuts (distance preservation).

After a balanced cut ``(P_A, V_cut, P_B)``, the induced subgraphs on the
two partitions are not necessarily distance preserving: a shortest path
between two vertices of ``P_A`` may travel through the cut.  Lemma 4.8
shows that such paths always enter and leave the partition through *border
vertices* (vertices of the partition adjacent to the cut), so it suffices
to add shortcut edges between border vertices whose true distance is
shorter than their within-partition distance.  Lemma 4.11 identifies
redundant shortcuts (those realisable through a third border vertex),
which this module eliminates to keep the working graphs sparse.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import BackendSpec, resolve_backend
from repro.core.flat import FlatWorkingGraph

INF = float("inf")

#: Relative tolerance used when comparing alternative path lengths; two
#: floating point sums of the same edge weights can differ by a few ulps
#: depending on the order of addition.
_REL_EPS = 1e-9

#: Candidate pairs are tested for redundancy in chunks of about this many
#: (pair, third border) sums, bounding the scratch matrix.
_CHUNK = 1 << 20


class Shortcut(NamedTuple):
    """A shortcut edge ``(u, v)`` carrying the true graph distance.

    A named tuple: relabel records keep every shortcut a build emits, so
    the per-object size matters.
    """

    u: int
    v: int
    weight: float


def border_vertices(
    flat: FlatWorkingGraph, partition: Iterable[int], cut: Iterable[int]
) -> List[int]:
    """Vertices of ``partition`` adjacent to at least one cut vertex (Definition 4.7).

    One vectorised edge-mask scan over the snapshot; the result ascends
    (dense ids ascend with original ids).
    """
    indices = flat.csr_arrays()[1]
    n = len(flat.vertices)
    part_mask = np.zeros(n, dtype=bool)
    part_mask[flat.dense_ids(partition)] = True
    cut_mask = np.zeros(n, dtype=bool)
    cut_mask[flat.dense_ids(cut)] = True
    tails = flat.tails()
    border_dense = np.unique(tails[part_mask[tails] & cut_mask[indices]])
    return [flat.vertices[i] for i in border_dense.tolist()]


def compute_shortcuts(
    flat: FlatWorkingGraph,
    cut: Sequence[int],
    partition: Sequence[int],
    cut_distances: np.ndarray,
    backend: BackendSpec = None,
    within: Optional[FlatWorkingGraph] = None,
    borders: Optional[Sequence[int]] = None,
) -> List[Shortcut]:
    """Compute the non-redundant shortcuts for one partition (Algorithm 3).

    Parameters
    ----------
    flat:
        Snapshot of the *parent* subgraph (partition + cut + the other
        partition), which is distance preserving by induction.
    cut:
        The cut vertices separating the partitions.
    partition:
        The partition (list of vertices) receiving the shortcuts.
    cut_distances:
        The ``(len(cut) x len(flat.vertices))`` float64 block of the cut
        vertices' single-source distances over the parent snapshot (row
        ``i`` from ``cut[i]``, ``inf`` where unreached).  The labelling
        step computes it anyway (Algorithm 5), so the caller passes it in
        rather than recomputing; only the border columns are read.
    backend:
        The :class:`~repro.core.backends.ShortestPathBackend` running the
        per-border searches (name, instance, or ``None`` for the default).
    within:
        Optional pre-induced snapshot of ``partition`` (must equal
        ``flat.induce(partition)``).  The construction passes it in and
        reuses it for :func:`child_adjacency`, so each child is induced
        exactly once.
    borders:
        Optional ``border_vertices(flat, partition, cut)``, when the
        caller already holds it.

    Returns
    -------
    list of Shortcut
        Shortcuts to add to the child working graph for ``partition``, in
        ascending ``(u, v)`` order.
    """
    if borders is None:
        borders = border_vertices(flat, partition, cut)
    k = len(borders)
    if k < 2:
        return []

    # Lines 3-6: within-partition distances between border vertices: the
    # backend searches from every border but the last over the induced
    # partition snapshot (one batched scipy call under csr).
    # in_partition[i, j] is the search from borders[i] read at borders[j];
    # the pair test reads it for i < j only, so the last row is never
    # read and stays inf.
    if within is None:
        within = flat.induce(partition)
    border_dense = within.dense_ids(borders)
    rows = resolve_backend(backend).sssp_many(within, border_dense[:-1])
    in_partition = np.full((k, k), INF)
    in_partition[:-1] = np.asarray(rows, dtype=np.float64)[:, border_dense]

    at_borders = np.asarray(cut_distances, dtype=np.float64)[:, flat.dense_ids(borders)]
    pair_i, pair_j, weights = nonredundant_pairs(in_partition, at_borders)
    return [
        Shortcut(borders[i], borders[j], weight)
        for i, j, weight in zip(pair_i.tolist(), pair_j.tolist(), weights.tolist())
    ]


def nonredundant_pairs(
    in_partition: np.ndarray, at_borders: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lines 7-16 of Algorithm 3 over one partition's ``k`` borders.

    ``in_partition[i, j]`` is the within-partition distance from border
    ``i`` to border ``j``; ``at_borders`` is the ``(cut x k)`` block of
    the cut vertices' distances at the borders.  Returns the shortcut
    pairs ``(i, j)`` (``i < j``, ascending) and their weights: the
    one-partition call of :func:`nonredundant_pairs_batch`.
    """
    _, pair_i, pair_j, weights = nonredundant_pairs_batch(in_partition[None], at_borders[None])
    return pair_i, pair_j, weights


def nonredundant_pairs_batch(
    in_partition: np.ndarray, at_borders: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lines 7-16 of Algorithm 3 over ``g`` partitions of ``k`` borders each.

    ``in_partition`` is ``(g x k x k)``: partition ``p``'s within-partition
    distances between its borders, read only above the diagonal (so the
    last row, which no pair reads, need not be searched).  ``at_borders``
    is ``(g x c x k)``: partition ``p``'s cut vertices' distances at its
    borders, padded with ``inf`` rows where ``p`` has fewer than ``c`` cut
    vertices (an ``inf`` row lowers no via-cut distance).  Returns the
    shortcuts as ``(partition, i, j, weight)`` arrays, by partition and
    then ascending ``(i, j)`` with ``i < j``; each partition's stretch is
    exactly what the test over that partition alone returns.
    """
    g, k = in_partition.shape[0], in_partition.shape[-1]
    # Lines 7-8: true distances, allowing travel through the cut.  For
    # b1 < b2 the value is min(in_partition[b1][b2], min_c d(c, b1) + d(c, b2)),
    # kept symmetric in ``true`` (zero diagonal) for the redundancy test.
    via_cut = np.full((g, k, k), INF)
    for r in range(at_borders.shape[1]):
        row = at_borders[:, r]
        np.minimum(via_cut, row[:, :, None] + row[:, None, :], out=via_cut)
    upper_i, upper_j = np.triu_indices(k, 1)
    upper, lower = upper_i * k + upper_j, upper_j * k + upper_i
    inside = in_partition.reshape(g, k * k)[:, upper]
    d_true = np.minimum(inside, via_cut.reshape(g, k * k)[:, upper])
    true = np.zeros((g * k, k))
    true.reshape(g, k * k)[:, upper] = d_true
    true.reshape(g, k * k)[:, lower] = d_true

    # Lines 9-16: keep only non-redundant shortcuts (Lemma 4.11): pairs the
    # partition does not already realise (condition (1)), unless a third
    # border b3 realises them within tolerance.
    part, pair = np.nonzero(np.isfinite(d_true) & (d_true < inside))
    pair_i, pair_j, d_pair = upper_i[pair], upper_j[pair], d_true[part, pair]
    threshold = d_pair + _REL_EPS * np.maximum(1.0, d_pair)
    kept = np.ones(len(d_pair), dtype=bool)
    step = max(1, _CHUNK // k)
    for start in range(0, len(d_pair), step):
        chunk = slice(start, start + step)
        p, i, j = part[chunk] * k, pair_i[chunk], pair_j[chunk]
        through = true[p + i] + true[p + j]  # [q, b3] = d(b1, b3) + d(b3, b2)
        rows_q = np.arange(len(i))
        through[rows_q, i] = INF
        through[rows_q, j] = INF
        kept[chunk] = ~(through <= threshold[chunk, None]).any(axis=1)
    return part[kept], pair_i[kept], pair_j[kept], d_pair[kept]


def child_adjacency(
    flat: FlatWorkingGraph,
    partition: Sequence[int],
    shortcuts: Iterable[Shortcut],
    within: Optional[FlatWorkingGraph] = None,
) -> FlatWorkingGraph:
    """The shortcut-enhanced child snapshot ``G<P>`` (Definition 4.9).

    Restricts the parent snapshot ``flat`` to ``partition``, then overlays
    ``shortcuts`` (:meth:`~repro.core.flat.FlatWorkingGraph.overlay_shortcuts`).
    ``within`` is the restriction when the caller already holds it, as
    for :func:`compute_shortcuts`.
    """
    if within is None:
        within = flat.induce(partition)
    return within.overlay_shortcuts(list(shortcuts))
