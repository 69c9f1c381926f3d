from __future__ import annotations

import random
import re

from schemacut import (
    attribute_closure,
    build_fdg,
    decompose_fds,
    export_dot,
    make_schema,
    transitive_closure_pairs,
)
from schemacut.fdg import PROV_CONTAINMENT

from .conftest import composite_key_schema, random_schema
from .goldens import EX1_EDGES, EX1_FB_CHAINS, EX1_VERTICES, EX2_EDGE_LABELS, V


def test_example1_vertices_and_edges(ex1_fdg):
    assert {v.attrs for v in ex1_fdg.vertices} == EX1_VERTICES
    assert {e.ref for e in ex1_fdg.edges} == EX1_EDGES
    assert len(ex1_fdg.vertices) == 12
    assert len(ex1_fdg.edges) == 24


def test_example2_edges_match_labels(ex2_fdg):
    assert {e.ref for e in ex2_fdg.edges} == set(EX2_EDGE_LABELS.values())
    assert len(ex2_fdg.edges) == 30
    assert len(ex2_fdg.vertices) == 18


def test_single_attribute_relation():
    fdg = build_fdg(make_schema([("R", ["A"])]))
    assert [v.attrs for v in fdg.vertices] == [("A",)]
    assert fdg.edges == ()


def test_vertex_kinds():
    schema = make_schema(
        [("R", ["A", "B", "C"])],
        [(["A", "B"], ["C"])],
    )
    fdg = build_fdg(schema)
    kinds = {v.attrs: v.kind for v in fdg.vertices}
    assert kinds[("A",)] == "single-attribute"
    assert kinds[("A", "B")] == "lhs-set"
    assert kinds[("A", "B", "C")] == "relation-set"


def test_relation_kind_wins_over_lhs():
    schema = make_schema(
        [("R", ["A", "B"]), ("S", ["A", "B", "C"])],
        [(["A", "B"], ["C"])],
    )
    fdg = build_fdg(schema)
    kinds = {v.attrs: v.kind for v in fdg.vertices}
    assert kinds[("A", "B")] == "relation-set"


def test_no_self_loops_or_duplicates(ex1_fdg, ex2_fdg):
    for fdg in (ex1_fdg, ex2_fdg):
        refs = [e.ref for e in fdg.edges]
        assert len(refs) == len(set(refs))
        assert all(src != dst for src, dst in refs)


def test_probabilistic_fds_are_ordinary_edges():
    schema = make_schema([("R", ["A", "B"])], [(["A"], ["B"], True)])
    fdg = build_fdg(schema)
    assert any(e.ref == (("A",), ("B",)) and e.provenance == "fd" for e in fdg.edges)


def test_build_is_deterministic(example2):
    schema, _ = example2
    assert build_fdg(schema) == build_fdg(schema)
    assert export_dot(build_fdg(schema)) == export_dot(build_fdg(schema))


def test_adjacency_index_lists_every_edge_in_vertex_order(ex1_fdg, ex2_fdg):
    for fdg in (ex1_fdg, ex2_fdg):
        n = len(fdg.vertices)
        assert len(fdg.child_edges) == len(fdg.parent_edges) == n
        by_child = sorted(j for pairs in fdg.child_edges for _, j in pairs)
        by_parent = sorted(j for pairs in fdg.parent_edges for _, j in pairs)
        assert by_child == by_parent == list(range(len(fdg.edges)))
        for v in range(n):
            attrs = fdg.vertices[v].attrs
            for child, j in fdg.child_edges[v]:
                assert fdg.edges[j].ref == (attrs, fdg.vertices[child].attrs)
            for parent, j in fdg.parent_edges[v]:
                assert fdg.edges[j].ref == (fdg.vertices[parent].attrs, attrs)
            children = [c for c, _ in fdg.child_edges[v]]
            parents = [p for p, _ in fdg.parent_edges[v]]
            assert children == sorted(children) and parents == sorted(parents)


def test_adjacency_index_is_built_once_and_leaves_equality_alone(example2):
    schema, _ = example2
    indexed, plain = build_fdg(schema), build_fdg(schema)
    assert indexed.child_edges is indexed.child_edges
    assert indexed.parent_edges is indexed.parent_edges
    assert indexed == plain
    assert hash(indexed) == hash(plain)


def test_closure_pairs_example1(ex1_fdg):
    pairs = transitive_closure_pairs(ex1_fdg)
    assert (V("AE"), V("B")) in pairs
    assert (V("ABCD"), V("E")) not in pairs


def test_closure_pairs_empty_graph():
    fdg = build_fdg(make_schema([], []))
    assert transitive_closure_pairs(fdg) == frozenset()


def naive_closure_pairs(fdg):
    """Reference: grow each vertex's reachable set over ``fdg.edges`` until
    no edge adds to it, with no index."""
    pairs = set()
    for vertex in fdg.vertices:
        reached = {vertex.attrs}
        grown = True
        while grown:
            grown = False
            for edge in fdg.edges:
                if edge.src in reached and edge.dst not in reached:
                    reached.add(edge.dst)
                    grown = True
        pairs.update((vertex.attrs, end) for end in reached if end != vertex.attrs)
    return frozenset(pairs)


def test_closure_pairs_match_a_naive_search():
    rng = random.Random(61)
    for i in range(100):
        schema = (composite_key_schema if i % 2 else random_schema)(rng)
        fdg = build_fdg(schema)
        assert transitive_closure_pairs(fdg) == naive_closure_pairs(fdg)


def test_reachability_soundness_and_single_target_completeness():
    # Reachability implies closure membership for any vertex pair; for
    # single-attribute destinations the converse also holds.  (Composite
    # destinations are reachable only from supersets: with single-source
    # dependencies nothing else ever points at them.)
    rng = random.Random(99)
    for _ in range(120):
        schema = random_schema(rng, max_attrs=8, max_relations=3)
        fdg = build_fdg(schema)
        if len(fdg.vertices) > 12:
            continue
        dfds = decompose_fds(schema.fds)
        pairs = transitive_closure_pairs(fdg)
        for src in fdg.vertices:
            closure = set(attribute_closure(src.attrs, dfds))
            for dst in fdg.vertices:
                if src is dst:
                    continue
                if (src.attrs, dst.attrs) in pairs:
                    assert set(dst.attrs) <= closure
                if len(dst.attrs) == 1 and dst.attrs[0] not in src.attrs:
                    assert ((src.attrs, dst.attrs) in pairs) == (
                        dst.attrs[0] in closure
                    )


def test_composite_destination_counterexample(ex1_fdg, example1):
    # The biconditional cannot extend to composite destinations: the
    # bridge vertex determines all eight attributes, yet nothing points
    # at the four-attribute relation vertices.
    schema, _ = example1
    dfds = decompose_fds(schema.fds)
    assert set(V("ABCD")) <= set(attribute_closure(V("AE"), dfds))
    assert (V("AE"), V("ABCD")) not in transitive_closure_pairs(ex1_fdg)


def test_dot_empty_graph():
    fdg = build_fdg(make_schema([], []))
    assert export_dot(fdg) == "digraph fdg {\n}\n"


_DOT_NODE = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];')
_DOT_EDGE = re.compile(r"  n(\d+) -> n(\d+)( \[color=red, style=bold\])?;")


def _unescape(label):
    return re.sub(r"\\(.)", r"\1", label)


def _parse_dot(dot):
    """Node labels by index, and (src index, dst index, highlighted) edges."""
    lines = dot.splitlines()
    assert lines[0] == "digraph fdg {" and lines[-1] == "}"
    labels, edges = [], []
    for line in lines[1:-1]:
        node, edge = _DOT_NODE.fullmatch(line), _DOT_EDGE.fullmatch(line)
        assert node or edge, line
        if node:
            assert int(node[1]) == len(labels) and not edges
            labels.append(_unescape(node[2]))
        else:
            edges.append((int(edge[1]), int(edge[2]), edge[3] is not None))
    return labels, edges


def test_dot_escapes_quotes_and_backslashes_in_labels():
    names = ['a"b', "c\\", 'd\\"e', "plain"]
    schema = make_schema([("R", names, ['a"b'])], [(['a"b'], ["c\\", 'd\\"e'])])
    fdg = build_fdg(schema)
    dot = export_dot(fdg, [fdg.edges[0].ref])
    labels, edges = _parse_dot(dot)
    assert labels == [v.label for v in fdg.vertices]
    attrs = [v.attrs for v in fdg.vertices]
    assert [(attrs[s], attrs[d]) for s, d, _ in edges] == [e.ref for e in fdg.edges]
    assert [hot for _, _, hot in edges] == [True] + [False] * (len(edges) - 1)


def test_dot_gives_vertices_with_equal_labels_their_own_nodes():
    # {A, B} and {AB} both print as "AB"; each must stay its own node.
    fdg = build_fdg(make_schema([("R", ["A", "B"]), ("S", ["AB", "C"])]))
    labels, edges = _parse_dot(export_dot(fdg))
    attrs = [v.attrs for v in fdg.vertices]
    assert labels.count("AB") == 2
    assert {attrs[i] for i, label in enumerate(labels) if label == "AB"} == {("A", "B"), ("AB",)}
    assert [(attrs[s], attrs[d]) for s, d, _ in edges] == [e.ref for e in fdg.edges]
    assert (attrs.index(("AB", "C")), attrs.index(("AB",)), False) in edges


def test_dot_highlight_marks_exactly_the_chain(ex1_fdg):
    chain = next(c for c in EX1_FB_CHAINS if len(c) == 4 and (V("AE"), V("A")) in c)
    _, edges = _parse_dot(export_dot(ex1_fdg, chain))
    attrs = [v.attrs for v in ex1_fdg.vertices]
    assert {(attrs[s], attrs[d]) for s, d, hot in edges if hot} == set(chain)
    assert (attrs.index(V("AE")), attrs.index(V("A")), True) in edges


def test_dot_example2_has_30_edges(ex2_fdg):
    dot = export_dot(ex2_fdg)
    assert dot.count("->") == 30
    assert dot.startswith("digraph fdg {")


def test_containment_edges_match_all_pairs_reference():
    # Reference: the all-pairs scan that the attribute index replaced.
    rng = random.Random(61)
    for _ in range(300):
        fdg = build_fdg(random_schema(rng))
        sets = [v.attrs for v in fdg.vertices]
        want = {(big, small) for big in sets for small in sets if set(small) < set(big)}
        got = [e.ref for e in fdg.edges if e.provenance == PROV_CONTAINMENT]
        assert set(got) == want
        assert [e.ref for e in fdg.edges] == sorted(e.ref for e in fdg.edges)
