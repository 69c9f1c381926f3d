from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemacut import (
    ChainFamily,
    Fdg,
    FdgEdge,
    JoinChain,
    PathLimits,
    SchemaError,
    SimplePaths,
    build_fdg,
    enumerate_simple_paths,
    join_chains,
    make_schema,
)
from schemacut import joinchain
from schemacut.model import attr_set, minimal_sets
from schemacut.joinchain import walk_simple_paths

from .conftest import composite_key_schema, count_walks, fd_chain_schema, random_schema
from .goldens import (
    EX1_FB_CHAINS,
    EX2_AD_CHAINS,
    EX2_DF_CHAINS,
    EX2_KH_CHAINS,
    EX2_KH_EXTRA_CHAIN,
    V,
)


def reverse_graph(fdg: Fdg) -> Fdg:
    """Reference: same vertices, every edge reversed. An involution."""
    edges = tuple(
        FdgEdge(e.dst, e.src, e.provenance)
        for e in sorted(fdg.edges, key=lambda e: (e.dst, e.src))
    )
    return Fdg(fdg.vertices, edges)


def test_reverse_contains_flipped_edge(ex1_fdg):
    rev = reverse_graph(ex1_fdg)
    assert any(e.ref == (("B",), ("A",)) for e in rev.edges)


def test_reverse_empty_graph():
    fdg = build_fdg(make_schema([], []))
    assert reverse_graph(fdg) == fdg


def test_reverse_is_involution(ex1_fdg, ex2_fdg):
    for fdg in (ex1_fdg, ex2_fdg):
        assert reverse_graph(reverse_graph(fdg)) == fdg


def test_two_paths_from_b_to_bridge(ex1_fdg):
    rev = reverse_graph(ex1_fdg)
    result = enumerate_simple_paths(rev, V("B"))
    paths = result.paths[V("AE")]
    assert len(paths) == 2
    as_vertices = {tuple(ref[0] for ref in p) + (V("AE"),) for p in paths}
    assert as_vertices == {
        (V("B"), V("A"), V("AE")),
        (V("B"), V("D"), V("A"), V("AE")),
    }
    assert not result.truncated


def test_two_paths_from_f_to_hd(ex1_fdg):
    rev = reverse_graph(ex1_fdg)
    assert len(enumerate_simple_paths(rev, V("F")).paths[V("DH")]) == 2


def test_unknown_vertex_rejected(ex1_fdg):
    with pytest.raises(SchemaError, match="^unknown vertex 'AZ'$"):
        enumerate_simple_paths(ex1_fdg, ("A", "Z"))


def test_isolated_vertex_has_trivial_entry():
    fdg = build_fdg(make_schema([("R", ["A"])]))
    result = enumerate_simple_paths(fdg, ("A",))
    assert dict(result.paths) == {("A",): ((),)}


def test_path_cap_sets_truncation_flag(ex1_fdg):
    rev = reverse_graph(ex1_fdg)
    result = enumerate_simple_paths(rev, V("B"), PathLimits(max_paths_per_target=1))
    assert result.truncated
    assert all(len(paths) <= 1 for paths in result.paths.values())


def test_length_cap_sets_truncation_flag(ex1_fdg):
    rev = reverse_graph(ex1_fdg)
    result = enumerate_simple_paths(rev, V("B"), PathLimits(max_path_length=1))
    assert result.truncated
    assert V("AE") not in result.paths  # two hops away


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        PathLimits(max_paths_per_target=0)
    with pytest.raises(ValueError):
        PathLimits(max_path_length=0)


@pytest.mark.parametrize("value", [2.5, 10.0, "10", True])
@pytest.mark.parametrize("name", ["max_paths_per_target", "max_path_length"])
def test_limits_must_be_integers(name, value):
    # Refused where it is made, not later as a slice index inside join_chains.
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        PathLimits(**{name: value})


def test_example1_chain_family(ex1_fdg):
    family = join_chains(ex1_fdg, ["F", "B"])
    assert set(family.edge_sets()) == EX1_FB_CHAINS
    assert len(family.chains) == 8
    assert {c.ancestor for c in family.chains} == {V("AE"), V("DH")}


def test_example2_ad_family(ex2_fdg):
    family = join_chains(ex2_fdg, ["A", "D"])
    assert set(family.edge_sets()) == EX2_AD_CHAINS


def test_example2_df_family(ex2_fdg):
    family = join_chains(ex2_fdg, ["D", "F"])
    assert set(family.edge_sets()) == EX2_DF_CHAINS


def test_example2_kh_family(ex2_fdg):
    # All four combinations survive here: both orientations of routing
    # through the key M exist, so the three commonly quoted chains gain a
    # fourth sibling that no antichain rule removes.
    family = join_chains(ex2_fdg, ["K", "H"])
    assert set(family.edge_sets()) == EX2_KH_CHAINS | {EX2_KH_EXTRA_CHAIN}


def test_ancestor_can_be_a_target(ex2_fdg):
    family = join_chains(ex2_fdg, ["A", "D"])
    singletons = [c for c in family.chains if len(c.edges) == 1]
    assert len(singletons) == 1
    assert singletons[0].ancestor == V("A")


def test_disconnected_targets_have_no_chains():
    schema = make_schema([("R", ["A"]), ("S", ["B"])])
    family = join_chains(build_fdg(schema), ["A", "B"])
    assert family.chains == ()


def test_single_target_degenerates_to_empty_chain(ex1_fdg):
    family = join_chains(ex1_fdg, ["B"])
    assert family.edge_sets() == (frozenset(),)


def test_unknown_target_rejected(ex1_fdg):
    with pytest.raises(SchemaError, match="unknown target"):
        join_chains(ex1_fdg, ["B", "Z"])


def test_chain_soundness_targets_reachable(ex2_fdg):
    for targets in (["A", "D"], ["D", "F"], ["K", "H"]):
        family = join_chains(ex2_fdg, targets)
        for chain in family.chains:
            adjacency = {}
            for src, dst in chain.edges:
                adjacency.setdefault(src, []).append(dst)
            reached = {chain.ancestor}
            stack = [chain.ancestor]
            while stack:
                here = stack.pop()
                for nxt in adjacency.get(here, ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        stack.append(nxt)
            for t in chain.targets:
                assert (t,) in reached


def test_chain_antichain_property(ex1_fdg, ex2_fdg):
    for fdg, targets in ((ex1_fdg, ["F", "B"]), (ex2_fdg, ["A", "D"])):
        family = join_chains(fdg, targets)
        for a, b in itertools.permutations(family.chains, 2):
            assert not a.edges < b.edges


def brute_force_chains(fdg, targets):
    """Independent oracle: raw recursion over every vertex and path combo."""
    adjacency = {v.attrs: [] for v in fdg.vertices}
    for e in fdg.edges:
        adjacency[e.src].append(e.ref)

    def all_paths(start, goal):
        out = []

        def walk(here, trail, seen):
            if here == goal:
                out.append(tuple(trail))
                return
            for ref in adjacency[here]:
                if ref[1] not in seen:
                    walk(ref[1], trail + [ref], seen | {ref[1]})

        walk(start, [], {start})
        return out

    target_vs = [(t,) for t in sorted(set(targets))]
    candidates = set()
    for vertex in fdg.vertices:
        per_target = [all_paths(vertex.attrs, tv) for tv in target_vs]
        if any(not paths for paths in per_target):
            continue
        for combo in itertools.product(*per_target):
            candidates.add(frozenset(ref for path in combo for ref in path))
    return {
        c for c in candidates if not any(o < c for o in candidates)
    }


def test_matches_brute_force_on_examples(ex1_fdg, ex2_fdg):
    assert set(join_chains(ex1_fdg, ["F", "B"]).edge_sets()) == brute_force_chains(
        ex1_fdg, ["F", "B"]
    )
    for targets in (["A", "D"], ["D", "F"], ["K", "H"]):
        assert set(join_chains(ex2_fdg, targets).edge_sets()) == brute_force_chains(
            ex2_fdg, targets
        )


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(31)
    checked = 0
    while checked < 120:
        schema = random_schema(rng, max_attrs=7, max_relations=3)
        fdg = build_fdg(schema)
        if len(fdg.vertices) > 10 or len(schema.attribute_names) < 2:
            continue
        targets = rng.sample(schema.attribute_names, 2)
        got = set(join_chains(fdg, targets).edge_sets())
        assert got == brute_force_chains(fdg, targets)
        checked += 1


def test_parents_walk_matches_reversed_graph_enumeration():
    # The reference walks the reversed copy; its refs come out reversed.
    # The walk over parent_edges is in positions, read back through fdg.
    rng = random.Random(47)
    for _ in range(150):
        fdg = build_fdg(random_schema(rng))
        reference_graph = reverse_graph(fdg)
        for i, vertex in enumerate(fdg.vertices):
            walk = walk_simple_paths(fdg.parent_edges, i, PathLimits())
            got = {
                fdg.vertices[end].attrs: tuple(
                    tuple(fdg.edges[j].ref for j in path) for path in paths
                )
                for end, paths in walk.paths.items()
            }
            want = enumerate_simple_paths(reference_graph, vertex.attrs)
            flipped = {
                end: tuple(tuple((dst, src) for src, dst in path) for path in paths)
                for end, paths in want.paths.items()
            }
            assert list(got.items()) == list(flipped.items())
            assert walk.truncated == want.truncated


def recursive_simple_paths(fdg, start, limits):
    """Reference: the depth-first recursion that the iterative walk replaced."""
    adjacency = {v.attrs: [] for v in fdg.vertices}
    for edge in sorted(fdg.edges, key=lambda e: e.dst):
        adjacency[edge.src].append(edge.ref)
    max_len = limits.max_path_length or max(len(fdg.vertices), 1)
    paths = {start: [()]}
    truncated = False

    def walk(here, trail, seen):
        nonlocal truncated
        for ref in adjacency[here]:
            if ref[1] in seen:
                continue
            if len(trail) + 1 > max_len:
                truncated = True
                continue
            bucket = paths.setdefault(ref[1], [])
            if len(bucket) >= limits.max_paths_per_target:
                truncated = True
            else:
                bucket.append(trail + (ref,))
            walk(ref[1], trail + (ref,), seen | {ref[1]})

    walk(start, (), frozenset({start}))
    return [(end, tuple(found)) for end, found in paths.items()], truncated


def test_walk_matches_recursive_reference():
    rng = random.Random(53)
    all_limits = (PathLimits(), PathLimits(max_paths_per_target=2), PathLimits(max_path_length=2))
    for _ in range(100):
        fdg = build_fdg(random_schema(rng))
        for vertex in fdg.vertices:
            for limits in all_limits:
                got = enumerate_simple_paths(fdg, vertex.attrs, limits)
                want = recursive_simple_paths(fdg, vertex.attrs, limits)
                assert (list(got.paths.items()), got.truncated) == want


def test_long_fd_chain_is_walked_without_recursion():
    steps = 1200
    fdg = build_fdg(fd_chain_schema(steps))
    down = enumerate_simple_paths(fdg, ("a0",))
    assert len(down.paths) == steps + 1
    assert len(down.paths[(f"a{steps}",)][0]) == steps
    family = join_chains(fdg, ["a0", f"a{steps}"])
    assert not family.truncated
    fd_path = frozenset(((f"a{i}",), (f"a{i + 1}",)) for i in range(steps))
    assert fd_path in family.edge_sets()


def dense_key_cycle(n):
    """n relations (k_i, a_i) with k_i -> a_i, and every key determining every other key."""
    relations = [(f"R{i}", [f"k{i}", f"a{i}"], [f"k{i}"]) for i in range(n)]
    fds = [([f"k{i}"], [f"a{i}"]) for i in range(n)]
    fds += [([f"k{i}"], [f"k{j}"]) for i in range(n) for j in range(n) if i != j]
    return make_schema(relations, fds)


def test_dense_key_cycle_keeps_the_minimal_chains_in_order(monkeypatch):
    # About 20,000 candidate chains, on which the all-pairs superset filter
    # took over 10 s (2-vCPU x86-64 VM).  The candidates are recorded on their way into the
    # filter, and the result is checked against what that filter keeps: an
    # antichain of candidates, in candidate order, below every candidate.
    # Candidates enter the filter as sets of edge positions in fdg.edges.
    found = []
    real_filter = joinchain.minimal_sets

    def recording(sets):
        found.extend(sets)
        return real_filter(found)

    monkeypatch.setattr(joinchain, "minimal_sets", recording)
    fdg = build_fdg(dense_key_cycle(7))
    started = time.perf_counter()
    family = join_chains(fdg, ["a0", "a1"], PathLimits(max_paths_per_target=2000))
    assert time.perf_counter() - started < 5.0
    refs = [edge.ref for edge in fdg.edges]
    candidates = [frozenset(refs[i] for i in chain) for chain in found]
    kept = [chain.edges for chain in family.chains]
    position = {edges: i for i, edges in enumerate(candidates)}
    assert len(candidates) > 10_000 and len(position) == len(candidates)
    assert [position[edges] for edges in kept] == sorted(position[edges] for edges in kept)
    assert not any(a < b for a in kept for b in kept)
    by_size = sorted(kept, key=len)
    assert all(any(k <= c for k in by_size) for c in candidates)


def _families(fdg, sets, limits):
    return [(fam.chains, fam.truncated) for fam in (join_chains(fdg, s, limits) for s in sets)]


def _fresh_families(schema, sets, limits):
    """Reference: every set on a graph of its own, so no index is shared."""
    return [_families(build_fdg(schema), [s], limits)[0] for s in sets]


def test_one_graph_under_two_limits_matches_fresh_graphs(monkeypatch):
    # One graph serves calls under any limits: a truncating call must not
    # change what a full one finds on the same graph, nor the reverse, and
    # the rounds after the first two are served from the walk memo.
    schema = dense_key_cycle(4)
    sets = [["a0", "a1"], ["a1", "a2"], ["a0", "k3"], ["a0", "a1"]]
    full, tight = PathLimits(), PathLimits(max_paths_per_target=2, max_path_length=3)
    shared = build_fdg(schema)
    counted = count_walks(monkeypatch)
    # Equal limits are one memo key, whichever instance carries them.
    for limits in (tight, full, PathLimits(max_paths_per_target=2, max_path_length=3), full):
        assert _families(shared, sets, limits) == _fresh_families(schema, sets, limits)
    assert all(truncated for _, truncated in _families(shared, sets, tight))
    assert not any(truncated for _, truncated in _families(shared, sets, full))
    walks = [
        (shared.vertices[start].attrs, limits)
        for graph, start, limits in counted
        if graph == id(shared.parent_edges)
    ]
    targets = {(name,) for s in sets for name in s}
    assert len(walks) == len(set(walks)) == 2 * len(targets)
    assert set(shared.parent_walks) == set(walks)


def test_shared_graph_matches_fresh_graphs_on_random_schemas():
    rng = random.Random(29)
    for _ in range(100):
        schema = random_schema(rng)
        names = schema.attribute_names
        sets = [rng.sample(names, min(len(names), rng.randint(1, 3))) for _ in range(6)]
        limits = rng.choice([PathLimits(), PathLimits(max_paths_per_target=1)])
        shared = build_fdg(schema)
        want = _fresh_families(schema, sets, limits)
        assert _families(shared, sets, limits) == want
        assert _families(shared, sets, limits) == want


def test_memoised_walk_paths_are_read_only(ex1_fdg):
    assert join_chains(ex1_fdg, ["F", "B"]).chains
    walk = ex1_fdg.parent_walks[(("F",), PathLimits())]
    with pytest.raises(TypeError):
        walk.paths[("F",)] = ()


def key_chain_schema(length, padding=0):
    """Keys k0 -> k1 -> ... each determining its own x_i, after ``padding``
    unrelated two-attribute relations whose names sort first, so that the
    padding takes the low edge positions and the chain's edges the high ones."""
    relations = [(f"P{j:04d}", [f"a{j:04d}", f"b{j:04d}"]) for j in range(padding)]
    relations += [(f"C{i}", [f"k{i}", f"x{i}"], [f"k{i}"]) for i in range(length)]
    fds = [([f"k{i}"], [f"x{i}"]) for i in range(length)]
    fds += [([f"k{i}"], [f"k{i + 1}"]) for i in range(length - 1)]
    return make_schema(relations, fds)


def _retained_bytes(fdg, sets):
    """Memory that ``join_chains`` leaves behind on a graph already numbered
    (its edge index and its edge refs, one per edge, built)."""
    assert fdg.parent_edges and fdg.refs
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for targets in sets:
            join_chains(fdg, targets)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sum(stat.size_diff for stat in after.compare_to(before, "filename"))


def test_memoised_walks_grow_with_the_paths_not_the_graph():
    # The same calls on the same chain, alone and behind about 6,000 edges
    # of padding: what the walk memo keeps must follow the paths' lengths,
    # not the number of edges in the graph.
    n = 6
    sets = [[f"x{i}", f"x{j}"] for i in range(n) for j in range(i + 1, n)]
    plain = build_fdg(key_chain_schema(n))
    padded = build_fdg(key_chain_schema(n, padding=3000))
    assert len(padded.edges) > 6000
    assert _retained_bytes(padded, sets) <= 2 * _retained_bytes(plain, sets)
    assert [join_chains(plain, s) for s in sets] == [join_chains(padded, s) for s in sets]


def attribute_parents(fdg):
    """Per vertex attribute set, its (parent attribute set, edge ref) pairs
    in vertex order, read off ``fdg.edges`` with no numbering."""
    parents = {v.attrs: [] for v in fdg.vertices}
    for edge in fdg.edges:
        parents[edge.dst].append((edge.src, edge.ref))
    return {v: tuple(sorted(pairs)) for v, pairs in parents.items()}


def frozenset_join_chains(fdg, targets, limits=PathLimits()):
    """Reference: ``join_chains`` before the bit numbering.  Every candidate
    is a frozenset of edge refs, built from unmemoised walks over
    ``attribute_parents(fdg)`` and filtered by ``minimal_sets``.  The walker
    reads any mapping from a vertex to its (neighbour, ref) pairs, so here
    it walks attribute sets and returns edge refs."""
    source_set = attr_set(targets)
    target_vertices = [(name,) for name in source_set]
    parents = attribute_parents(fdg)
    per_target = {tv: walk_simple_paths(parents, tv, limits) for tv in target_vertices}
    truncated = any(sp.truncated for sp in per_target.values())
    ancestors = sorted(
        set.intersection(*(set(sp.paths) for sp in per_target.values()))
    ) if per_target else []
    chains = {}
    for ancestor in ancestors:
        combos = itertools.product(*(per_target[tv].paths[ancestor] for tv in target_vertices))
        for count, combo in enumerate(combos):
            if count >= limits.max_paths_per_target:
                truncated = True
                break
            edges = frozenset(ref for path in combo for ref in path)
            if edges not in chains:
                chains[edges] = JoinChain(edges, ancestor, source_set)
    kept = tuple(chains[edges] for edges in minimal_sets(chains))
    return ChainFamily(source_set, kept, truncated)


ALL_LIMITS = (
    PathLimits(),
    PathLimits(max_paths_per_target=1),
    PathLimits(max_paths_per_target=2, max_path_length=2),
    PathLimits(max_paths_per_target=3),
)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(ALL_LIMITS), st.booleans())
def test_mask_chains_match_the_frozenset_reference(rng, limits, composite):
    # Chains, their order, ancestors and the truncation flag, under every
    # limit: a cap of one path per target, of combinations per ancestor,
    # and of path length.
    schema = (composite_key_schema if composite else random_schema)(rng)
    fdg = build_fdg(schema)
    names = schema.attribute_names
    for _ in range(4):
        targets = rng.sample(names, rng.randint(0, min(3, len(names))))
        assert join_chains(fdg, targets, limits) == frozenset_join_chains(fdg, targets, limits)


@pytest.mark.parametrize("limits", [PathLimits(), PathLimits(max_paths_per_target=3)])
def test_dense_key_cycle_chains_match_the_frozenset_reference(limits):
    # Many paths per target: under a cap of 3 paths, every ancestor has 9
    # combinations of two targets, so the per-ancestor cap fires too.
    fdg = build_fdg(dense_key_cycle(5))
    for targets in (["a0", "a1"], ["a0", "a2", "a4"], ["k0", "a3"]):
        got = join_chains(fdg, targets, limits)
        assert got == frozenset_join_chains(fdg, targets, limits)
        assert got.truncated == (limits.max_paths_per_target == 3)


def test_combination_cap_bounds_the_candidates_built(monkeypatch):
    # Under a cap of 10, each of three targets keeps 10 of its many paths
    # from each shared key, so the full product there is 1,000 combinations.
    # A level extends only the prefixes that the first cap + 1 combinations
    # use, so it builds at most 2 * cap of them.  The concatenations of a
    # prefix and a memoised path are counted.
    cap = 10
    concats = [0]

    class Counted(tuple):
        def __radd__(self, other):
            concats[0] += 1
            return tuple(other) + tuple(self)

    real_walk = joinchain.walk_simple_paths

    def counted_walk(adjacency, start, limits):
        found = real_walk(adjacency, start, limits)
        paths = {end: tuple(map(Counted, p)) for end, p in found.paths.items()}
        return SimplePaths(found.start, paths, found.truncated)

    monkeypatch.setattr(joinchain, "walk_simple_paths", counted_walk)
    fdg = build_fdg(dense_key_cycle(5))
    limits = PathLimits(max_paths_per_target=cap)
    targets = ["a0", "a1", "a2"]
    family = join_chains(fdg, targets, limits)
    walks = [fdg.parent_walks[((name,), limits)] for name in targets]
    common = sorted(set(walks[0].paths) & set(walks[1].paths) & set(walks[2].paths))
    full = sum(
        math.prod(len(walk.paths[pos]) for walk in walks[: k + 1])
        for pos in common
        for k in range(len(walks))
    )
    bound = len(common) * len(targets) * 2 * cap
    assert 0 < concats[0] <= bound < full
    assert family.truncated
    assert family == frozenset_join_chains(fdg, targets, limits)
