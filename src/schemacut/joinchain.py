"""Join chain enumeration: common ancestors and simple-path combinations.

A join chain for an attribute set is the edge union of one simple path
per target attribute, all starting from one common ancestor vertex.  The
enumeration walks each target's parents (one iterative DFS each), combines
paths per shared end vertex, and discards chains that contain another
chain.  A target that is itself the ancestor contributes an empty path.

The work is done in the graph's numbering (``Fdg.parent_edges``): a
walk's ancestors are a vertex mask and, at an ancestor two targets share,
its paths are edge masks.  Common ancestors are an AND, a candidate chain
is an OR of paths, and a chain contains another when its mask does.  Only
the kept chains are turned back into edge refs.

The pipeline enumerates chains on the schema's graph only, for the first
round's cut; its re-cut rounds follow closure derivations.  Each target's
walk is taken from the graph's memo (``Fdg.parent_walks``), so policies
sharing a target over one graph walk it once per limits.  Memoised walks
are shared, so ``AncestorWalk.paths`` is read-only.  Forward walks
(``enumerate_simple_paths``) are not memoised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .closure import set_bits
from .fdg import Adjacency, EdgeRef, Fdg
from .model import AttributeSet, SchemaError, attr_set


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
class AncestorWalk:
    """A target's ancestor walk in its graph's numbering (``Fdg.parent_edges``).

    ``paths`` maps each ancestor's vertex position to its paths down to the
    target, each a tuple of edge positions; ``ancestors`` has the bits of
    its keys.  ``path_masks`` gives one ancestor's paths as edge masks.
    """

    paths: Mapping[int, tuple[tuple[int, ...], ...]]
    ancestors: int
    truncated: bool
    _masks: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def path_masks(self, ancestor: int) -> tuple[int, ...]:
        """The paths from ``ancestor`` as edge masks (edge ``j`` is bit ``1 << j``).

        Made on first use and kept, so a walk holds masks only for the
        ancestors that some set shares with another target.  A mask is as
        wide as the graph has edges, so this memo grows with paths times
        edges (ROADMAP item 4).
        """
        masks = self._masks.get(ancestor)
        if masks is None:
            masks = tuple(sum(1 << j for j in path) for path in self.paths[ancestor])
            masks = self._masks.setdefault(ancestor, masks)
        return masks


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

    ``adjacency`` maps each vertex (an attribute set, or a position as in
    ``Fdg.parent_edges``) to its (neighbour, ref) pairs.  The start maps to
    the single empty path.  Paths hold the refs stored in
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
    common = -1 if walks else 0
    for walk in walks:
        common &= walk.ancestors

    found: dict[int, int] = {}  # chain mask -> its first ancestor's position
    for pos in set_bits(common):
        # itertools.product's order, one target at a time.  The first cap + 1
        # combinations extend only the prefixes that the first cap + 1 use,
        # so no level builds more than cap + len(paths) <= 2 * cap of them.
        combos = [0]
        for walk in walks:
            paths = walk.path_masks(pos)
            prefixes = combos[: -(-(cap + 1) // len(paths))]
            combos = [m | p for m in prefixes for p in paths]
        if len(combos) > cap:
            truncated = True
            del combos[cap:]
        for mask in combos:
            found.setdefault(mask, pos)

    edges, vertices = fdg.edges, fdg.vertices
    chains = tuple(
        JoinChain(
            frozenset([edges[j].ref for j in set_bits(mask)]),
            vertices[found[mask]].attrs,
            source_set,
        )
        for mask in minimal_masks(found)
    )
    return ChainFamily(source_set, chains, truncated)


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct masks that strictly contain no other, in first-occurrence
    order: ``model.minimal_sets`` with each set's elements as bits.

    Masks are visited fewest bits first, each tested only against the
    masks already kept, so a mask that contains one is never kept.
    """
    distinct = list(dict.fromkeys(masks))
    kept: list[int] = []
    for s in sorted(distinct, key=int.bit_count):
        for k in kept:
            if k & s == k:
                break
        else:
            kept.append(s)
    if len(kept) == len(distinct):
        return distinct
    keep = set(kept)
    return [s for s in distinct if s in keep]


def _ancestor_walk(fdg: Fdg, target: AttributeSet, limits: PathLimits) -> AncestorWalk:
    """``walk_simple_paths`` over ``fdg.parent_edges`` as an ``AncestorWalk``,
    once per (target, limits).

    Threads that miss together each walk, and the first walk stored wins;
    the walks are equal, so no lock is needed.
    """
    memo = fdg.parent_walks
    key = (target, limits)
    walk = memo.get(key)
    if walk is None:
        found = walk_simple_paths(fdg.parent_edges, fdg.position[target], limits)
        ancestors = 0
        for pos in found.paths:
            ancestors |= 1 << pos
        walk = memo.setdefault(key, AncestorWalk(found.paths, ancestors, found.truncated))
    return walk
