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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends import BackendSpec, resolve_backend
from repro.core.flat import FlatWorkingGraph

INF = float("inf")

#: Relative tolerance used when comparing alternative path lengths; two
#: floating point sums of the same edge weights can differ by a few ulps
#: depending on the order of addition.
_REL_EPS = 1e-9


@dataclass(frozen=True)
class Shortcut:
    """A shortcut edge ``(u, v)`` carrying the true graph distance."""

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
    cut_distances: Mapping[int, Mapping[int, float]],
    backend: BackendSpec = None,
    within: Optional[FlatWorkingGraph] = None,
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
        For each cut vertex, its single-source distances over the parent
        subgraph.  The labelling step computes these anyway (Algorithm 5),
        so the caller passes them in rather than recomputing.
    backend:
        The :class:`~repro.core.backends.ShortestPathBackend` running the
        per-border searches (name, instance, or ``None`` for the default).
    within:
        Optional pre-induced snapshot of ``partition`` (must equal
        ``flat.induce(partition)``).  The construction passes it in and
        reuses it for :func:`child_adjacency`, so each child is induced
        exactly once.

    Returns
    -------
    list of Shortcut
        Shortcuts to add to the child working graph for ``partition``.
    """
    borders = border_vertices(flat, partition, cut)
    if len(borders) < 2:
        return []

    # Lines 3-6: within-partition distances between border vertices: the
    # backend searches from every border over the induced partition
    # snapshot (one batched scipy call for all borders under csr).
    if within is None:
        within = flat.induce(partition)
    border_dense = within.dense_ids(borders)
    rows = resolve_backend(backend).sssp_many(within, border_dense)
    in_partition: Dict[int, Sequence[float]] = dict(zip(borders, rows))
    dense_of = dict(zip(borders, border_dense))

    # Lines 7-8: true distances, allowing travel through the cut.
    true_distance: Dict[Tuple[int, int], float] = {}
    for i, b1 in enumerate(borders):
        for b2 in borders[i + 1 :]:
            d_in_partition = in_partition[b1][dense_of[b2]]
            d_via_cut = INF
            for c in cut:
                dist_c = cut_distances[c]
                candidate = dist_c.get(b1, INF) + dist_c.get(b2, INF)
                if candidate < d_via_cut:
                    d_via_cut = candidate
            true_distance[(b1, b2)] = min(d_in_partition, d_via_cut)

    def lookup(a: int, b: int) -> float:
        if a == b:
            return 0.0
        return true_distance[(a, b)] if a < b else true_distance[(b, a)]

    # Lines 9-16: keep only non-redundant shortcuts (Lemma 4.11).
    shortcuts: List[Shortcut] = []
    for (b1, b2), d_true in true_distance.items():
        if d_true == INF:
            continue
        d_in_partition = in_partition[b1][dense_of[b2]]
        if d_true >= d_in_partition:
            continue  # condition (1): the partition already realises it
        tolerance = _REL_EPS * max(1.0, d_true)
        redundant = False
        for b3 in borders:
            if b3 == b1 or b3 == b2:
                continue
            if lookup(b1, b3) + lookup(b3, b2) <= d_true + tolerance:
                redundant = True
                break
        if not redundant:
            shortcuts.append(Shortcut(b1, b2, d_true))
    return shortcuts


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
