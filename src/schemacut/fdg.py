"""Functional dependency graph construction and export.

Vertices are attribute sets: every single attribute, every multi-attribute
dependency left-hand side, and every relation's attribute set.  Edges run
from each dependency's lhs to each of its rhs attributes, plus one
containment edge from each vertex to every strictly contained vertex (the
projection dependencies), read off the vertex sets' membership masks.
Derived dependencies are *not* materialised, and reachability does not
carry them all: a composite lhs vertex is entered only by containment,
never from the parts that determine it, so security is decided by
attribute closure (``closure.closure_masks``), not on this graph.

Each graph has one numbering: vertex ``i`` is ``vertices[i]``, so
position order is sorted order (``Fdg.position``), and edge ``j`` is
``edges[j]``.  Its edges are indexed once, on first use, in that
numbering only, one index per direction: ``Fdg.child_edges`` and
``Fdg.parent_edges``.  There are no attribute-keyed maps; a caller that
speaks in attribute sets translates at its boundary.  ``Fdg.parent_walks``
memoises ``joinchain``'s ancestor walks in that numbering, each a
``joinchain.SimplePaths`` whose paths are tuples of edge positions, one
per (target, limits), so a target shared by many policies is walked once
per graph.  ``pipeline`` keeps the last schema's graph between calls, so
a schema decomposed under many policies is built, indexed and walked
once; it builds no other graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .closure import closure_masks, holders, set_bits
from .model import AttributeSet, Schema

EdgeRef = tuple[AttributeSet, AttributeSet]
"""An edge is identified by its (source attrs, destination attrs) pair."""

PositionAdjacency = tuple[tuple[tuple[int, int], ...], ...]
"""An edge index in a graph's numbering: per vertex position, its
(neighbour position, edge position) pairs in vertex order."""

KIND_SINGLE = "single-attribute"
KIND_LHS = "lhs-set"
KIND_RELATION = "relation-set"

PROV_FD = "fd"
PROV_CONTAINMENT = "containment"


@dataclass(frozen=True)
class FdgVertex:
    attrs: AttributeSet
    kind: str

    @property
    def label(self) -> str:
        return "".join(self.attrs)


@dataclass(frozen=True)
class FdgEdge:
    src: AttributeSet
    dst: AttributeSet
    provenance: str

    @property
    def ref(self) -> EdgeRef:
        return (self.src, self.dst)


@dataclass(frozen=True)
class Fdg:
    vertices: tuple[FdgVertex, ...]
    edges: tuple[FdgEdge, ...]

    @cached_property
    def position(self) -> Mapping[AttributeSet, int]:
        """Each vertex's position, its index in ``vertices``."""
        return {v.attrs: i for i, v in enumerate(self.vertices)}

    @cached_property
    def child_edges(self) -> PositionAdjacency:
        """Per vertex position, its (child position, edge position) pairs."""
        return self._index(lambda edge: (edge.src, edge.dst))

    @cached_property
    def parent_edges(self) -> PositionAdjacency:
        """Per vertex position, its (parent position, edge position) pairs."""
        return self._index(lambda edge: (edge.dst, edge.src))

    @cached_property
    def parent_walks(self) -> dict:
        """Ancestor walks over ``parent_edges`` (``joinchain.SimplePaths``),
        keyed by (start vertex, limits).

        Filled by ``joinchain.join_chains``.  A walk depends only on the
        graph, its start and the limits, so every caller shares it.
        """
        return {}

    def _index(self, ends) -> PositionAdjacency:
        pos = self.position
        adj: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for j, edge in enumerate(self.edges):
            here, there = ends(edge)
            adj[pos[here]].append((pos[there], j))
        return tuple(tuple(sorted(pairs)) for pairs in adj)


def build_fdg(schema: Schema) -> Fdg:
    """Construct the dependency graph of a validated schema.

    Probabilistic dependencies contribute ordinary edges.  The result is
    byte-stable: vertices sorted by attribute set, edges by (src, dst).
    """
    kinds: dict[AttributeSet, str] = {}
    for rel in schema.relations:
        for attr in rel.attributes:
            kinds[(attr,)] = KIND_SINGLE
    for dep in schema.fds:
        if len(dep.lhs) > 1 and dep.lhs not in kinds:
            kinds[dep.lhs] = KIND_LHS
    for rel in schema.relations:
        if len(rel.attributes) > 1:
            # A set that is both a lhs and a relation is one vertex,
            # recorded as a relation set.
            kinds[rel.attributes] = KIND_RELATION

    vertex_sets = sorted(kinds)
    vertices = tuple(FdgVertex(attrs, kinds[attrs]) for attrs in vertex_sets)

    refs: dict[EdgeRef, str] = {}
    for dep in schema.fds:
        for attr in dep.rhs:
            if attr not in dep.lhs and dep.lhs in kinds and (attr,) in kinds:
                refs.setdefault((dep.lhs, (attr,)), PROV_FD)
    masks = closure_masks(vertex_sets, ())
    for j, small in enumerate(vertex_sets):
        for pos in set_bits(holders(masks, small) & ~(1 << j)):  # all but itself
            refs.setdefault((vertex_sets[pos], small), PROV_CONTAINMENT)

    edges = tuple(FdgEdge(src, dst, prov) for (src, dst), prov in sorted(refs.items()))
    return Fdg(vertices, edges)


def reachable(adjacency: PositionAdjacency, start: int) -> set[int]:
    """Vertex positions reachable from ``start`` over ``adjacency``, ``start`` included."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt, _ in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def transitive_closure_pairs(fdg: Fdg) -> frozenset[tuple[AttributeSet, AttributeSet]]:
    """All ordered (src, dst) vertex pairs with dst reachable from src, src != dst."""
    adj, sets = fdg.child_edges, [v.attrs for v in fdg.vertices]
    return frozenset(
        (sets[i], sets[j]) for i in range(len(sets)) for j in reachable(adj, i) if j != i
    )


def export_dot(fdg: Fdg, highlight: Iterable[EdgeRef] | None = None) -> str:
    """Render the graph as DOT: one node per vertex, named by its index.

    Node ``n<i>`` is ``fdg.vertices[i]``, so vertices whose joined names
    coincide (``{A, B}`` and ``{AB}``) stay apart.  Labels are the joined
    attribute names, double-quoted, with backslashes and quotes escaped.
    Edges in ``highlight`` are drawn bold and red.
    """
    hot = set(highlight or ())
    pos = fdg.position
    lines = ["digraph fdg {"]
    for i, v in enumerate(fdg.vertices):
        label = v.label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for edge in fdg.edges:
        style = " [color=red, style=bold]" if edge.ref in hot else ""
        lines.append(f"  n{pos[edge.src]} -> n{pos[edge.dst]}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
