"""Weighted undirected graph container used throughout the reproduction.

Road networks in the paper are undirected graphs with positive edge weights
(either physical distances or travel times).  Vertices are integers
``0..n-1``.  Parallel edges collapse to the minimum weight, matching the
behaviour of the DIMACS datasets where duplicate arcs occasionally appear.

The container is adjacency-list based (one ``{neighbour: weight}`` dict per
vertex).  This is the representation every algorithm in the repository works
against; construction and relabelling search CSR snapshots taken from its
:meth:`Graph.csr` view (see :func:`repro.core.construction.root_snapshot`).

Derived graphs (:meth:`Graph.copy`, :meth:`Graph.reweighted`) share their
parent's adjacency rows copy-on-write: a graph copies a row it does not own
before its first write to it, so neither graph ever sees the other's edits.
A reweighted graph also inherits its parent's CSR view with the changed arcs
patched in, which equals a rebuild from its rows bit for bit (dict order is
edge order, and reweighting moves no edge).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.utils.validation import check_non_negative_weight, check_vertex

Edge = Tuple[int, int, float]


class CSRAdjacency:
    """Compressed-sparse-row view of a graph's adjacency.

    ``indptr``/``indices``/``weights`` are contiguous typed arrays: the
    neighbours of vertex ``v`` occupy ``indices[indptr[v]:indptr[v + 1]]``
    with matching ``weights``.  The numpy arrays feed vectorised code (the
    batch query engine, scipy interop); :meth:`as_lists` exposes the same
    data as plain Python lists, which the interpreted Dijkstra loops
    iterate faster than either numpy scalars or dict items.

    The view is a snapshot - :class:`Graph` invalidates its cached instance
    on mutation.
    """

    __slots__ = ("indptr", "indices", "weights", "_lists")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._lists: Optional[Tuple[List[int], List[int], List[float]]] = None

    @classmethod
    def from_adjacency(cls, adj: Sequence[Dict[int, float]]) -> "CSRAdjacency":
        """Build from a list of neighbour dicts (the Graph internal form).

        The arrays are filled straight from the dicts' key and value views
        (no intermediate Python lists); :meth:`as_lists` converts on first
        use.
        """
        n = len(adj)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=indptr[1:])
        total = int(indptr[-1])
        indices = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=total)
        weights = np.fromiter(
            chain.from_iterable(map(dict.values, adj)), dtype=np.float64, count=total
        )
        return cls(indptr, indices, weights)

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the view."""
        return len(self.indptr) - 1

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def as_lists(self) -> Tuple[List[int], List[int], List[float]]:
        """The ``(indptr, indices, weights)`` triple as plain Python lists."""
        if self._lists is None:
            self._lists = (
                self.indptr.tolist(),
                self.indices.tolist(),
                self.weights.tolist(),
            )
        return self._lists


class Graph:
    """An undirected, positively weighted graph with integer vertex ids.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0..num_vertices-1``.

    Notes
    -----
    * ``add_edge`` keeps the minimum weight for repeated edges.
    * Self loops are ignored (they never lie on a shortest path).
    * The structure is append-only; algorithms that need to delete vertices
      (partitioning, contraction) operate on copies or on membership masks.
    * Rows may be shared with derived graphs; ``_owned`` names the rows
      this graph may write in place (``None``: every row).
    """

    __slots__ = ("_adj", "_num_edges", "_csr", "_owned")

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
        self._adj: List[Dict[int, float]] = [dict() for _ in range(num_vertices)]
        self._num_edges = 0
        self._csr: Optional[CSRAdjacency] = None
        self._owned: Optional[Set[int]] = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(len(self._adj))

    def degree(self, v: int) -> int:
        """Number of distinct neighbours of ``v``."""
        return len(self._adj[v])

    def neighbors(self, v: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(neighbour, weight)`` pairs of ``v``."""
        return iter(self._adj[v].items())

    def neighbor_ids(self, v: int) -> Iterable[int]:
        """Iterate over the neighbour ids of ``v``."""
        return self._adj[v].keys()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge between ``u`` and ``v`` exists."""
        return v in self._adj[u]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the edge ``(u, v)``.

        Raises ``KeyError`` when the edge does not exist.
        """
        return self._adj[u][v]

    def edges(self) -> Iterator[Edge]:
        """Iterate over undirected edges once each as ``(u, v, weight)`` with u < v."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the edge list representation.

        Mirrors the "Memory" column of Table 1 in the paper: each directed
        arc contributes a 4-byte endpoint and an 8-byte weight.
        """
        return self._num_edges * 2 * 12 + self.num_vertices * 8

    def csr(self, cache: bool = True) -> CSRAdjacency:
        """The CSR view of the adjacency (cached until the next mutation).

        ``cache=False`` serves one-shot readers: it returns the cached view
        when there is one, and otherwise builds a view without keeping it,
        so a graph that outlives the reader (an index's core graph after
        construction) does not hold a copy of its edges for its lifetime.
        """
        csr = self._csr
        if csr is None:
            csr = CSRAdjacency.from_adjacency(self._adj)
            if cache:
                self._csr = csr
        return csr

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add an undirected edge, keeping the minimum weight on duplicates."""
        n = self.num_vertices
        check_vertex(u, n, "u")
        check_vertex(v, n, "v")
        weight = check_non_negative_weight(weight)
        if u == v:
            return
        existing = self._adj[u].get(v)
        if existing is None:
            self._num_edges += 1
        elif weight >= existing:
            return
        adj = self._adj
        owned = self._owned
        if owned is not None:
            for row in (u, v):
                if row not in owned:
                    adj[row] = dict(adj[row])
                    owned.add(row)
        adj[u][v] = weight
        adj[v][u] = weight
        self._csr = None

    def add_vertex(self) -> int:
        """Append a fresh isolated vertex and return its id."""
        if self._owned is not None:
            self._owned.add(len(self._adj))
        self._adj.append(dict())
        self._csr = None
        return len(self._adj) - 1

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def _derive(self, rows: Set[int]) -> "Graph":
        """A graph sharing every adjacency row but ``rows``, which it copies.

        From here on both graphs copy a shared row before writing it: this
        one keeps in-place rights only to the rows it owned and the new
        graph just copied away from it.
        """
        other = Graph.__new__(Graph)
        other._adj = list(self._adj)
        for row in rows:
            other._adj[row] = dict(self._adj[row])
        other._num_edges = self._num_edges
        other._csr = None
        other._owned = rows
        self._owned = set(rows) if self._owned is None else self._owned & rows
        return other

    def copy(self) -> "Graph":
        """Return an independent copy with the same edges in the same order.

        The rows are shared copy-on-write, so the copy costs one list of
        row references; the cached CSR view, if any, is shared too.
        """
        other = self._derive(set())
        other._csr = self._csr
        return other

    def induced_subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", List[int]]:
        """Return the induced subgraph on ``vertices`` and the id mapping.

        The returned graph uses fresh ids ``0..len(vertices)-1``; the second
        element maps each fresh id back to the original vertex id.
        """
        ordered = list(vertices)
        index = {v: i for i, v in enumerate(ordered)}
        sub = Graph(len(ordered))
        for v in ordered:
            vi = index[v]
            for w, weight in self._adj[v].items():
                wi = index.get(w)
                if wi is not None and vi < wi:
                    sub.add_edge(vi, wi, weight)
        return sub, ordered

    def reweighted(self, weights: Dict[Tuple[int, int], float]) -> "Graph":
        """Return a copy where every edge takes its weight from ``weights``.

        ``weights`` is keyed by ``(min(u, v), max(u, v))``; edges missing
        from the mapping keep their current weight.  Every key must match
        an existing edge in normalised form - a typo'd or un-normalised
        ``(v, u)`` key raises instead of silently reweighting nothing.

        The copy shares every row but the changed edges' endpoints' (see
        :meth:`copy`) and holds this graph's CSR view with the changed
        arcs patched; this graph's view is built and cached if it had none.
        """
        bad = []
        changes = []
        for (u, v), w in weights.items():
            if not (0 <= u < v < self.num_vertices) or v not in self._adj[u]:
                bad.append((u, v))
                continue
            changes.append((u, v, check_non_negative_weight(w)))
        if bad:
            raise ValueError(
                f"reweighted got {len(bad)} key(s) matching no edge "
                f"(keys must be (min(u, v), max(u, v)) of an existing edge): {sorted(bad)[:5]}"
            )
        csr = self.csr()
        other = self._derive({row for u, v, _ in changes for row in (u, v)})
        adj = other._adj
        patched = csr.weights.copy()
        for u, v, w in changes:
            for tail, head in ((u, v), (v, u)):
                # a row's dict order is its CSR order
                patched[int(csr.indptr[tail]) + list(adj[tail]).index(head)] = w
                adj[tail][head] = w
        other._csr = CSRAdjacency(csr.indptr, csr.indices, patched)
        return other

    # ------------------------------------------------------------------ #
    # interop / debugging
    # ------------------------------------------------------------------ #
    def to_networkx(self):  # pragma: no cover - thin conversion helper
        """Convert to a ``networkx.Graph`` (used by tests for cross-checking)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices())
        g.add_weighted_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Build from a ``networkx`` graph whose nodes are ``0..n-1``."""
        graph = cls(nxg.number_of_nodes())
        for u, v, data in nxg.edges(data=True):
            graph.add_edge(int(u), int(v), float(data.get("weight", 1.0)))
        return graph

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"
