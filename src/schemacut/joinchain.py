"""Join chain enumeration: common ancestors and simple-path combinations.

A join chain for an attribute set is the edge union of one simple path
per target attribute, all starting from one common ancestor vertex.  The
enumeration walks each target's parents (one iterative DFS each), combines
paths per shared end vertex, and discards chains that contain another
chain.  A target that is itself the ancestor contributes an empty path.

The pipeline enumerates chains on the schema's graph only, for the first
round's cut; its re-cut rounds follow closure derivations.  Each target's
walk is taken from the graph's memo (``Fdg.parent_walks``), so policies
sharing a target over one graph walk it once per limits.  Memoised walks
are shared, so ``SimplePaths.paths`` is read-only.  Forward walks
(``enumerate_simple_paths``) are not memoised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .fdg import Adjacency, EdgeRef, Fdg
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
        if self.max_paths_per_target <= 0:
            raise ValueError("max_paths_per_target must be positive")
        if self.max_path_length is not None and self.max_path_length <= 0:
            raise ValueError("max_path_length must be positive")


@dataclass(frozen=True)
class SimplePaths:
    start: AttributeSet
    paths: Mapping[AttributeSet, tuple[tuple[EdgeRef, ...], ...]]
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


def walk_simple_paths(adjacency: Adjacency, start: AttributeSet, limits: PathLimits) -> SimplePaths:
    """All simple paths from ``start`` over ``adjacency``, grouped by end vertex.

    The start maps to the single empty path.  Paths hold the refs stored in
    ``adjacency`` and are found depth-first, neighbours in adjacency order,
    so the output is deterministic.  ``paths`` is a read-only mapping.
    """
    max_len = limits.max_path_length or max(len(adjacency), 1)
    paths: dict[AttributeSet, list[tuple[EdgeRef, ...]]] = {start: [()]}
    truncated = False
    trail: list[EdgeRef] = []
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
    """All simple paths from ``start`` along the edges, grouped by end vertex."""
    if start not in fdg.children:
        raise SchemaError(f"unknown vertex {''.join(start)!r}")
    return walk_simple_paths(fdg.children, start, limits or PathLimits())


def join_chains(
    fdg: Fdg, targets: Iterable[str], limits: PathLimits | None = None
) -> ChainFamily:
    """Enumerate the join chains of an attribute set over ``fdg``.

    Every target must exist as a single-attribute vertex.  For each common
    ancestor, every combination of one simple path per target yields a
    candidate chain; identical edge sets collapse and chains containing
    another chain are dropped.  Each target's ancestor walk is memoised on
    ``fdg``.
    """
    limits = limits or PathLimits()
    source_set = attr_set(targets)
    target_vertices = [(name,) for name in source_set]
    for tv in target_vertices:
        if tv not in fdg.parents:
            raise SchemaError(f"unknown target attribute {tv[0]!r}")

    per_target = {tv: _ancestor_walk(fdg, tv, limits) for tv in target_vertices}
    truncated = any(sp.truncated for sp in per_target.values())

    ancestors = sorted(
        set.intersection(*(set(sp.paths) for sp in per_target.values()))
    ) if per_target else []

    chains: dict[frozenset[EdgeRef], JoinChain] = {}
    for ancestor in ancestors:
        combos = itertools.product(
            *(per_target[tv].paths[ancestor] for tv in target_vertices)
        )
        for count, combo in enumerate(combos):
            if count >= limits.max_paths_per_target:
                truncated = True
                break
            edges = frozenset(ref for path in combo for ref in path)
            if edges not in chains:
                chains[edges] = JoinChain(edges, ancestor, source_set)

    kept = tuple(chains[edges] for edges in minimal_sets(chains))
    return ChainFamily(source_set, kept, truncated)


def _ancestor_walk(fdg: Fdg, target: AttributeSet, limits: PathLimits) -> SimplePaths:
    """``walk_simple_paths`` over ``fdg.parents``, once per (target, limits).

    Threads that miss together each walk, and the first walk stored wins;
    the walks are equal, so no lock is needed.
    """
    memo = fdg.parent_walks
    key = (target, limits)
    walk = memo.get(key)
    if walk is None:
        walk = memo.setdefault(key, walk_simple_paths(fdg.parents, target, limits))
    return walk
