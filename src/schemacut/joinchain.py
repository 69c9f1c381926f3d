"""Join chain enumeration: common ancestors and simple-path combinations.

A join chain for an attribute set is the edge union of one simple path
per target attribute, all starting from one common ancestor vertex.  The
enumeration walks each target's parents (one iterative DFS each), combines
paths per shared end vertex, and discards chains that contain another
chain.  A target that is itself the ancestor contributes an empty path.

Every walk runs in the graph's numbering (``Fdg.parent_edges`` or
``Fdg.child_edges``): its vertices are positions in ``Fdg.vertices`` and
its paths tuples of positions in ``Fdg.edges``.  The common ancestors are
the intersection of the walks' vertex positions, a candidate chain is the
set of edge positions on one path per target, and ``model.minimal_sets``
drops the candidates that contain another.  Only the kept chains are
turned back into edge refs.

The pipeline enumerates chains on the schema's graph only, for the first
round's cut; its re-cut rounds follow closure derivations.  Each target's
walk is taken from the graph's memo (``Fdg.parent_walks``), which holds
``walk_simple_paths``'s ``SimplePaths`` as they are, so policies sharing
a target over one graph walk it once per limits.  Memoised walks are
shared, so ``SimplePaths.paths`` is read-only.  Forward walks
(``enumerate_simple_paths``) are not memoised; they are the one place
that translates a walk back to attribute sets and edge refs.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .fdg import EdgeRef, Fdg, PositionAdjacency
from .model import AttributeSet, SchemaError, attr_set, minimal_sets


@dataclass(frozen=True)
class PathLimits:
    """Guards against exponential simple-path enumeration.

    ``max_paths_per_target`` bounds both the stored paths per end vertex
    and the path combinations taken per ancestor; ``max_path_length``
    bounds edges per path and defaults to the vertex count (no-op for
    simple paths).  Exceeding a limit sets a truncation flag rather than
    failing.
    """

    max_paths_per_target: int = 10_000
    max_path_length: int | None = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is None and name == "max_path_length":
                continue
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer")
            if value <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SimplePaths:
    """A walk's paths by end vertex.  A walk over an edge index has vertex
    positions in ``Fdg.vertices`` and path steps positions in ``Fdg.edges``;
    ``enumerate_simple_paths`` returns attribute sets and edge refs."""

    start: AttributeSet | int
    paths: Mapping[AttributeSet | int, tuple[tuple[EdgeRef | int, ...], ...]]
    truncated: bool


@dataclass(frozen=True)
class JoinChain:
    edges: frozenset[EdgeRef]
    ancestor: AttributeSet
    targets: AttributeSet


@dataclass(frozen=True)
class ChainFamily:
    source_set: AttributeSet
    chains: tuple[JoinChain, ...]
    truncated: bool = False

    def edge_sets(self) -> tuple[frozenset[EdgeRef], ...]:
        return tuple(chain.edges for chain in self.chains)


def walk_simple_paths(adjacency: PositionAdjacency, start: int, limits: PathLimits) -> SimplePaths:
    """All simple paths from position ``start`` over ``adjacency``, by end position.

    ``adjacency`` is an edge index (``Fdg.parent_edges`` or ``Fdg.child_edges``).
    The start maps to the single empty path.  Paths are tuples of edge
    positions, found depth-first, neighbours in adjacency order, so the
    output is deterministic.  ``paths`` is a read-only mapping.
    """
    max_len = limits.max_path_length or max(len(adjacency), 1)
    paths: dict[int, list[tuple[int, ...]]] = {start: [()]}
    truncated = False
    trail: list[int] = []
    on_trail = {start}
    stack = [(start, iter(adjacency[start]))]
    while stack:
        here, pending = stack[-1]
        for nxt, ref in pending:
            if nxt in on_trail:
                continue
            if len(trail) >= max_len:
                truncated = True
                continue
            trail.append(ref)
            bucket = paths.setdefault(nxt, [])
            if len(bucket) >= limits.max_paths_per_target:
                truncated = True
            else:
                bucket.append(tuple(trail))
            on_trail.add(nxt)
            stack.append((nxt, iter(adjacency[nxt])))
            break
        else:
            stack.pop()
            if stack:
                on_trail.remove(here)
                trail.pop()
    frozen = MappingProxyType({k: tuple(v) for k, v in paths.items()})
    return SimplePaths(start, frozen, truncated)


def enumerate_simple_paths(
    fdg: Fdg, start: AttributeSet, limits: PathLimits | None = None
) -> SimplePaths:
    """All simple paths from ``start`` along the edges, grouped by end vertex:
    the walk over ``fdg.child_edges``, read back as attribute sets and edge refs."""
    if start not in fdg.position:
        raise SchemaError(f"unknown vertex {''.join(start)!r}")
    walk = walk_simple_paths(fdg.child_edges, fdg.position[start], limits or PathLimits())
    paths = {
        fdg.vertices[end].attrs: tuple(tuple(fdg.edges[j].ref for j in path) for path in found)
        for end, found in walk.paths.items()
    }
    return SimplePaths(start, MappingProxyType(paths), walk.truncated)


def join_chains(
    fdg: Fdg, targets: Iterable[str], limits: PathLimits | None = None
) -> ChainFamily:
    """Enumerate the join chains of an attribute set over ``fdg``.

    Every target must exist as a single-attribute vertex.  For each common
    ancestor, in vertex order, the first ``max_paths_per_target``
    combinations of one simple path per target yield candidate chains;
    identical edge sets collapse and chains containing another chain are
    dropped.  Each target's ancestor walk is memoised on ``fdg``.
    """
    limits = limits or PathLimits()
    cap = limits.max_paths_per_target
    source_set = attr_set(targets)
    for name in source_set:
        if (name,) not in fdg.position:
            raise SchemaError(f"unknown target attribute {name!r}")

    walks = [_ancestor_walk(fdg, (name,), limits) for name in source_set]
    truncated = any(walk.truncated for walk in walks)
    common = set(walks[0].paths) if walks else set()
    for walk in walks[1:]:
        common.intersection_update(walk.paths)

    found: dict[frozenset[int], int] = {}  # chain's edge positions -> its first ancestor
    for pos in sorted(common):
        # itertools.product's order, one target at a time.  The first cap + 1
        # combinations extend only the prefixes that the first cap + 1 use,
        # so no level builds more than cap + len(paths) <= 2 * cap of them.
        combos: list[tuple[int, ...]] = [()]
        for walk in walks:
            paths = walk.paths[pos]
            prefixes = combos[: -(-(cap + 1) // len(paths))]
            combos = [c + p for c in prefixes for p in paths]
        if len(combos) > cap:
            truncated = True
            del combos[cap:]
        for combo in combos:
            found.setdefault(frozenset(combo), pos)

    edges, vertices = fdg.edges, fdg.vertices
    chains = tuple(
        JoinChain(
            frozenset([edges[j].ref for j in chain]),
            vertices[found[chain]].attrs,
            source_set,
        )
        for chain in minimal_sets(found)
    )
    return ChainFamily(source_set, chains, truncated)


def _ancestor_walk(fdg: Fdg, target: AttributeSet, limits: PathLimits) -> SimplePaths:
    """``walk_simple_paths`` over ``fdg.parent_edges``, once per (target, limits).

    Threads that miss together each walk, and the first walk stored wins;
    the walks are equal, so no lock is needed.
    """
    memo = fdg.parent_walks
    key = (target, limits)
    walk = memo.get(key)
    if walk is None:
        found = walk_simple_paths(fdg.parent_edges, fdg.position[target], limits)
        walk = memo.setdefault(key, found)
    return walk
