"""Functional dependency graph construction and export.

Vertices are attribute sets: every single attribute, every multi-attribute
dependency left-hand side, and every relation's attribute set.  Edges run
from each dependency's lhs to each of its rhs attributes, plus one
containment edge from each vertex to every strictly contained vertex (the
projection dependencies), looked up in an attribute -> vertices index.
Derived transitive dependencies are *not* materialised; reachability
carries them, which reproduces the base graph exactly.

Each graph indexes its edges once, on first use, as ``Fdg.children`` and
``Fdg.parents``; every walk over the graph reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .model import AttributeSet, Schema, element_index, holding_all

EdgeRef = tuple[AttributeSet, AttributeSet]
"""An edge is identified by its (source attrs, destination attrs) pair."""

Adjacency = Mapping[AttributeSet, tuple[tuple[AttributeSet, EdgeRef], ...]]

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
    def children(self) -> Adjacency:
        """Per vertex, its (child, edge ref) pairs in vertex order."""
        return self._index(lambda edge: (edge.src, edge.dst))

    @cached_property
    def parents(self) -> Adjacency:
        """Per vertex, its (parent, edge ref) pairs in vertex order."""
        return self._index(lambda edge: (edge.dst, edge.src))

    def _index(self, ends) -> Adjacency:
        adj: dict[AttributeSet, list] = {v.attrs: [] for v in self.vertices}
        for edge in self.edges:
            here, there = ends(edge)
            adj[here].append((there, edge.ref))
        return {v: tuple(sorted(pairs)) for v, pairs in adj.items()}


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
    index = element_index(vertex_sets)
    for small in vertex_sets:
        for pos in holding_all(index, small):
            if vertex_sets[pos] != small:
                refs.setdefault((vertex_sets[pos], small), PROV_CONTAINMENT)

    edges = tuple(FdgEdge(src, dst, prov) for (src, dst), prov in sorted(refs.items()))
    return Fdg(vertices, edges)


def reachable(adjacency: Adjacency, start: AttributeSet) -> set[AttributeSet]:
    """Vertices reachable from ``start`` over ``adjacency``, ``start`` included."""
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
    adj = fdg.children
    return frozenset((start, end) for start in adj for end in reachable(adj, start) if end != start)


def export_dot(fdg: Fdg, highlight: Iterable[EdgeRef] | None = None) -> str:
    """Render the graph as DOT, vertex labels joined from attribute names.

    Edges in ``highlight`` are drawn bold and red.
    """
    hot = set(highlight or ())
    lines = ["digraph fdg {"]
    for vertex in fdg.vertices:
        lines.append(f'  "{vertex.label}";')
    for edge in fdg.edges:
        src = "".join(edge.src)
        dst = "".join(edge.dst)
        if edge.ref in hot:
            lines.append(f'  "{src}" -> "{dst}" [color=red, style=bold];')
        else:
            lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
