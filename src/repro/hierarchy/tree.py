"""Balanced tree hierarchy data structure.

A :class:`BalancedTreeHierarchy` is the ``H_G`` of the paper: a binary tree
where each node holds an (ordered) vertex cut of the subgraph it was built
from, and every vertex of the graph is mapped to exactly one node (the node
whose cut it belongs to, or a leaf node).  The structure supports:

* constant-time computation of the *depth* of the lowest common ancestor of
  two vertices via bitstring comparison (Lemma 4.21),
* the structural metrics reported in Table 5 (tree height, maximum /
  average cut size) and Table 3 (LCA storage), and
* validation helpers used by the property-based tests (balance condition
  and the LCA cut-cover condition of Definition 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class TreeNode:
    """One node of the balanced tree hierarchy.

    Attributes
    ----------
    index:
        Position of the node in :attr:`BalancedTreeHierarchy.nodes`.
    depth:
        Distance from the root (the root has depth 0).
    bits:
        The left/right path from the root encoded as an integer read
        MSB-first; exactly ``depth`` bits are meaningful.
    cut:
        The ordered vertex cut stored at this node (rank order produced by
        the tail-pruning ranking).  Leaf nodes store all their remaining
        vertices here.
    parent / left / right:
        Node indices (``None`` when absent).
    subtree_size:
        Number of graph vertices mapped into the subtree rooted here.
    is_leaf:
        Whether the node terminated the recursion.
    """

    index: int
    depth: int
    bits: int
    cut: List[int] = field(default_factory=list)
    parent: Optional[int] = None
    left: Optional[int] = None
    right: Optional[int] = None
    subtree_size: int = 0
    is_leaf: bool = False
    #: subtree range ``[range_lo, range_hi)`` in the hierarchy DFS order
    #: (see :meth:`BalancedTreeHierarchy.subtree_ranges`); -1 until computed
    range_lo: int = -1
    range_hi: int = -1


class BalancedTreeHierarchy:
    """The balanced tree hierarchy ``H_G`` over a graph with ``n`` vertices."""

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = num_vertices
        self.nodes: List[TreeNode] = []
        #: node index of each vertex (-1 until assigned)
        self.vertex_node: List[int] = [-1] * num_vertices
        #: depth of each vertex's node (duplicated for cache-friendly queries)
        self.vertex_depth: List[int] = [0] * num_vertices
        #: bitstring of each vertex's node
        self.vertex_bits: List[int] = [0] * num_vertices
        #: DFS position of each vertex (see :meth:`subtree_ranges`); lazily
        #: computed, or restored directly from a saved archive
        self._core_position: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # construction API (used by the HC2L builder)
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        depth: int,
        bits: int,
        cut: Sequence[int],
        parent: Optional[int] = None,
        side: Optional[str] = None,
        is_leaf: bool = False,
    ) -> TreeNode:
        """Append a node and map its cut vertices to it.

        ``side`` is ``"left"`` or ``"right"`` for non-root nodes and
        controls which child slot of the parent the new node occupies.
        """
        node = TreeNode(
            index=len(self.nodes),
            depth=depth,
            bits=bits,
            cut=list(cut),
            parent=parent,
            is_leaf=is_leaf,
        )
        self.nodes.append(node)
        if parent is not None:
            if side not in ("left", "right"):
                raise ValueError("non-root nodes must specify side='left' or 'right'")
            parent_node = self.nodes[parent]
            if side == "left":
                parent_node.left = node.index
            else:
                parent_node.right = node.index
        for vertex in cut:
            self.vertex_node[vertex] = node.index
            self.vertex_depth[vertex] = depth
            self.vertex_bits[vertex] = bits
        return node

    def set_subtree_size(self, node_index: int, size: int) -> None:
        """Record how many vertices the subtree rooted at ``node_index`` holds."""
        self.nodes[node_index].subtree_size = size

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def node_of(self, vertex: int) -> TreeNode:
        """The tree node a vertex is mapped to."""
        return self.nodes[self.vertex_node[vertex]]

    def lca_depth(self, u: int, v: int) -> int:
        """Depth of the lowest common ancestor of the nodes of ``u`` and ``v``.

        Computed as the length of the common prefix of the two node
        bitstrings (Section 4.3); O(1) time using integer operations.
        """
        depth_u = self.vertex_depth[u]
        depth_v = self.vertex_depth[v]
        bits_u = self.vertex_bits[u]
        bits_v = self.vertex_bits[v]
        if depth_u > depth_v:
            bits_u >>= depth_u - depth_v
            common = depth_v
        elif depth_v > depth_u:
            bits_v >>= depth_v - depth_u
            common = depth_u
        else:
            common = depth_u
        diff = bits_u ^ bits_v
        if diff == 0:
            return common
        return common - diff.bit_length()

    def lca_node(self, u: int, v: int) -> TreeNode:
        """The lowest common ancestor node itself (walks up; used by tests)."""
        target_depth = self.lca_depth(u, v)
        node = self.node_of(u)
        while node.depth > target_depth:
            assert node.parent is not None
            node = self.nodes[node.parent]
        return node

    def ancestors(self, vertex: int) -> Iterator[TreeNode]:
        """Iterate the nodes on the root-to-node path of ``vertex`` (top-down)."""
        chain: List[TreeNode] = []
        node: Optional[TreeNode] = self.node_of(vertex)
        while node is not None:
            chain.append(node)
            node = self.nodes[node.parent] if node.parent is not None else None
        return iter(reversed(chain))

    # ------------------------------------------------------------------ #
    # metrics (Tables 3 and 5)
    # ------------------------------------------------------------------ #
    def height(self) -> int:
        """Height of the hierarchy (number of levels; a single node counts 1)."""
        if not self.nodes:
            return 0
        return max(node.depth for node in self.nodes) + 1

    def cut_sizes(self, internal_only: bool = False) -> List[int]:
        """Sizes of the cuts stored at the nodes."""
        return [
            len(node.cut)
            for node in self.nodes
            if not (internal_only and node.is_leaf)
        ]

    def max_cut_size(self) -> int:
        """Largest cut size over all nodes (Table 5's "Max Cut Size")."""
        sizes = self.cut_sizes()
        return max(sizes) if sizes else 0

    def average_cut_size(self) -> float:
        """Mean cut size over internal (non-leaf) nodes (Figure 7)."""
        sizes = self.cut_sizes(internal_only=True)
        if not sizes:
            sizes = self.cut_sizes()
        if not sizes:
            return 0.0
        return sum(sizes) / len(sizes)

    def lca_storage_bytes(self) -> int:
        """Bytes needed to answer LCA-depth queries at query time.

        HC2L only needs the per-vertex bitstring (stored as a 64-bit
        integer whose low 6 bits encode the length - Section 4.2.2), i.e.
        8 bytes per vertex.
        """
        return 8 * self.num_vertices

    def num_internal_nodes(self) -> int:
        """Number of non-leaf nodes."""
        return sum(1 for node in self.nodes if not node.is_leaf)

    # ------------------------------------------------------------------ #
    # validation (used by tests)
    # ------------------------------------------------------------------ #
    def check_vertex_assignment(self) -> bool:
        """Every vertex is mapped to exactly one node."""
        return all(node_index >= 0 for node_index in self.vertex_node)

    def check_balance(self, beta: float) -> bool:
        """Condition (1) of Definition 4.1 for every internal node.

        Leaf children and missing children count as empty subtrees.  The
        bottleneck handling of Algorithm 1 can exceed the bound by the
        (tiny) number of bottleneck vertices, so a slack of one vertex is
        tolerated, plus whole-subtree slack for degenerate nodes whose
        subgraph was too small to split evenly.
        """
        for node in self.nodes:
            if node.is_leaf:
                continue
            subtree = node.subtree_size
            if subtree <= 2:
                continue
            limit = (1.0 - beta) * subtree + 1.0
            for child_index in (node.left, node.right):
                if child_index is None:
                    continue
                if self.nodes[child_index].subtree_size > limit:
                    return False
        return True

    # ------------------------------------------------------------------ #
    # subtree ranges (the hierarchy-aligned shard layout)
    # ------------------------------------------------------------------ #
    def subtree_ranges(self) -> List[int]:
        """Linearise the hierarchy and return the DFS position of each vertex.

        The DFS order visits each node's cut vertices (in their stored
        rank order) before descending into the left and then the right
        subtree.  In the resulting position space every subtree occupies
        one contiguous range, recorded on the nodes as
        ``[range_lo, range_hi)``; this is what makes range-sharded label
        stores *hierarchy-aligned* - a shard boundary placed at a subtree
        edge never splits the vertices the construction's cuts grouped
        together.  Computed once and cached (the hierarchy is append-only
        after construction); saved archives persist the result so
        loading skips the walk.
        """
        if self._core_position is not None:
            return self._core_position
        position: List[int] = [-1] * self.num_vertices
        cursor = 0
        roots = [node.index for node in self.nodes if node.parent is None]
        for root in roots:
            stack = [root]
            while stack:
                index = stack.pop()
                node = self.nodes[index]
                node.range_lo = cursor
                for vertex in node.cut:
                    position[vertex] = cursor
                    cursor += 1
                # defer range_hi until the subtree size is known below
                if node.right is not None:
                    stack.append(node.right)
                if node.left is not None:
                    stack.append(node.left)
        # a subtree's vertices are exactly its subgraph's vertices, so the
        # contiguous DFS range ends subtree_size positions after it starts
        for node in self.nodes:
            node.range_hi = node.range_lo + node.subtree_size
        self._core_position = position
        return position

    def set_core_positions(self, position: Sequence[int]) -> None:
        """Restore persisted DFS positions (and per-node ranges) on load."""
        self._core_position = [int(p) for p in position]

    def core_order(self) -> List[int]:
        """Vertex at each DFS position (the inverse of :meth:`subtree_ranges`)."""
        position = self.subtree_ranges()
        order = [-1] * self.num_vertices
        for vertex, pos in enumerate(position):
            order[pos] = vertex
        return order

    def subtree_vertices(self, node_index: int) -> List[int]:
        """All graph vertices mapped into the subtree rooted at ``node_index``."""
        result: List[int] = []
        stack = [node_index]
        while stack:
            index = stack.pop()
            node = self.nodes[index]
            result.extend(node.cut)
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return result

    def describe(self) -> Dict[str, float]:
        """Summary statistics bundle used by the experiment harness."""
        return {
            "height": float(self.height()),
            "max_cut": float(self.max_cut_size()),
            "avg_cut": float(self.average_cut_size()),
            "nodes": float(len(self.nodes)),
            "internal_nodes": float(self.num_internal_nodes()),
            "lca_bytes": float(self.lca_storage_bytes()),
        }


def derive_shard_boundaries(
    hierarchy: BalancedTreeHierarchy, num_shards: int
) -> Tuple[List[int], List[int]]:
    """Shard boundaries aligned with the hierarchy's top cuts.

    Returns ``(boundaries, order)``: ``order`` is the hierarchy DFS order
    (position ``p`` holds vertex ``order[p]``; every subtree contiguous)
    and ``boundaries`` is a monotone edge sequence
    ``[0, b_1, ..., num_vertices]`` over *positions* with exactly
    ``num_shards`` ranges.  Interior boundaries are placed at subtree
    starts whenever the tree offers one, descending from the root and
    splitting each range proportionally to the sizes of the two child
    blocks - so shards follow the construction's own cuts, which is what
    makes subtree-local query traffic stay inside one shard.

    Both this edge sequence and the even split tile the vertex range with
    no gap or overlap; the property tests pin that down.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    m = hierarchy.num_vertices
    if not hierarchy.nodes:
        return [round(k * m / num_shards) for k in range(num_shards + 1)], list(range(m))
    hierarchy.subtree_ranges()
    order = hierarchy.core_order()
    nodes = hierarchy.nodes
    roots = [node.index for node in nodes if node.parent is None]
    edges = [0]

    def split(node_index: int, lo: int, hi: int, shards: int) -> None:
        """Append the upper edges of ``shards`` ranges tiling ``[lo, hi)``."""
        if shards == 1:
            edges.append(hi)
            return
        node = nodes[node_index]
        left, right = node.left, node.right
        if left is None and right is None:
            # no subtree edge to snap to (leaf asked to split further):
            # fall back to an even split of the remaining positions
            for j in range(1, shards):
                edges.append(lo + round(j * (hi - lo) / shards))
            edges.append(hi)
            return
        if left is None or right is None:
            child = left if left is not None else right
            # the cut block in front of the lone child joins its first range
            split(child, lo, hi, shards)
            return
        boundary = nodes[right].range_lo  # first position of the right subtree
        left_block = boundary - lo  # cut block + left subtree
        span = hi - lo
        left_shards = max(1, min(shards - 1, round(shards * left_block / span)))
        split(left, lo, boundary, left_shards)
        split(right, boundary, hi, shards - left_shards)

    if len(roots) == 1:
        split(roots[0], 0, m, num_shards)
    else:  # pragma: no cover - a hierarchy forest only arises in edge cases
        for k in range(1, num_shards):
            edges.append(round(k * m / num_shards))
        edges.append(m)
    return edges, order
