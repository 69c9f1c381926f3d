"""Greedy cut selection over forbidden chain families, plus an exact oracle.

The greedy pass indexes the chains by edge (``model.element_index``),
scores each edge by the number of chains that hold it, sorts by score
descending then endpoint attribute count ascending (cheap edges first), and
selects an edge whenever its chains include an unmarked one, which it then
marks.  Reverse-delete then drops any selected edge the others make
redundant.  The oracle finds a true minimum hitting set by exhaustive
search and is intended for test-scale instances only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .fdg import EdgeRef, Fdg
from .joinchain import ChainFamily
from .model import AttributeSet, attr_set, element_index


class OracleBoundExceeded(ValueError):
    """The exact oracle refuses instances past its configured edge bound."""


@dataclass(frozen=True)
class EdgeScore:
    edge: EdgeRef
    security_count: int
    side_attr_count: int


@dataclass(frozen=True)
class CutSet:
    """Selected edges, kept in selection order."""

    edges: tuple[Hashable, ...]

    def as_set(self) -> frozenset:
        return frozenset(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: Hashable) -> bool:
        return edge in self.edges

    def __iter__(self):
        return iter(self.edges)


def _flatten(chains: Sequence[ChainFamily]) -> list[frozenset]:
    return [chain.edges for family in chains for chain in family.chains]


def security_counts(chains: Sequence[ChainFamily], fdg: Fdg) -> tuple[EdgeScore, ...]:
    """Per-edge chain membership counts over all families, in edge order."""
    holders = element_index(_flatten(chains))
    return tuple(
        EdgeScore(edge.ref, len(holders.get(edge.ref, ())), len(edge.src) + len(edge.dst))
        for edge in fdg.edges
    )


def greedy_hitting_set(
    chain_sets: Sequence[frozenset],
    sort_key: Callable[[Hashable, int], tuple],
) -> CutSet:
    """Shared mark-and-sweep core.

    ``sort_key(edge, count)`` orders the candidate edges, ``count`` being
    the number of chains that hold the edge; an edge is taken iff it belongs
    to at least one unmarked chain, and then marks all its chains.  The
    result intersects every non-empty chain.
    """
    holders = element_index(chain_sets)
    unmarked = set(range(len(chain_sets)))
    selection: list[Hashable] = []
    for edge in sorted(holders, key=lambda e: sort_key(e, len(holders[e]))):
        if not unmarked:
            break
        if not unmarked.isdisjoint(holders[edge]):
            selection.append(edge)
            unmarked -= holders[edge]
    return CutSet(tuple(selection))


def reverse_delete(cut: CutSet, chain_sets: Sequence[frozenset]) -> CutSet:
    """Drop redundant edges from a cut that intersects every chain.

    Walks the selection in reverse and drops each edge without which the
    kept edges still intersect every chain.  The kept edges stay in
    selection order.
    """
    kept = set(cut.edges)
    for edge in reversed(cut.edges):
        kept.discard(edge)
        if any(kept.isdisjoint(chain) for chain in chain_sets):
            kept.add(edge)
    if len(kept) == len(cut):
        return cut
    return CutSet(tuple(edge for edge in cut.edges if edge in kept))


def fdg_edge_sort_key(edge: EdgeRef, count: int) -> tuple:
    # Score desc, endpoint attribute count asc, then (src, dst) as tiebreak.
    return (-count, len(edge[0]) + len(edge[1]), edge[0], edge[1])


def greedy_cut(chains: Sequence[ChainFamily], fdg: Fdg) -> CutSet:
    """Greedy edge selection breaking every chain of every family."""
    return greedy_hitting_set(_flatten(chains), fdg_edge_sort_key)


def minimum_cut_oracle(
    chains: Sequence[ChainFamily], max_edges: int = 24
) -> CutSet:
    """Exact minimum hitting set over the union of all families' chains.

    Exhaustive search in increasing cardinality; among minimum solutions
    the lexicographically least edge tuple wins.  Refuses instances with
    more than ``max_edges`` distinct edges.
    """
    chain_sets = _flatten(chains)
    universe = sorted({edge for chain in chain_sets for edge in chain})
    if len(universe) > max_edges:
        raise OracleBoundExceeded(
            f"{len(universe)} distinct edges exceed the oracle bound of {max_edges}"
        )
    if not chain_sets:
        return CutSet(())
    for size in range(0, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            picked = frozenset(combo)
            if all(chain & picked for chain in chain_sets):
                return CutSet(combo)
    raise AssertionError("some chain is empty and cannot be hit")


def edges_to_forbidden_sets(cut: CutSet, fdg: Fdg) -> tuple[AttributeSet, ...]:
    """Map each selected edge to the union of its endpoint attribute sets.

    Order follows the selection; duplicates collapse; supersets of other
    produced sets are kept (they constrain independently).  Each edge is
    looked up among its destination's parents in the graph's numbering
    (``Fdg.parent_edges``), which the chain walks that produced the cut have
    already built.
    """
    position, parents = fdg.position, fdg.parent_edges
    out: list[AttributeSet] = []
    for ref in cut:
        src, dst = position.get(ref[0]), position.get(ref[1])
        if dst is None or all(parent != src for parent, _ in parents[dst]):
            raise ValueError(f"edge {ref!r} is not in the graph")
        merged = attr_set(ref[0] + ref[1])
        if merged not in out:
            out.append(merged)
    return tuple(out)
