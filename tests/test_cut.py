from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemacut import (
    ChainFamily,
    CutSet,
    JoinChain,
    OracleBoundExceeded,
    build_fdg,
    edges_to_forbidden_sets,
    greedy_cut,
    greedy_hitting_set,
    join_chains,
    make_schema,
    minimum_cut_oracle,
    reverse_delete,
    security_counts,
)

from .conftest import random_policy, random_schema
from .goldens import (
    EX2_AD_CHAINS,
    EX2_DF_CHAINS,
    EX2_EDGE_LABELS,
    EX2_KH_CHAINS,
    EX2_NEW_FORBIDDEN,
    EX2_SELECTION,
    EX2_TABLE_COUNTS,
)


def family(source, chain_sets):
    source_set = tuple(sorted(source))
    return ChainFamily(
        source_set,
        tuple(JoinChain(frozenset(c), (), source_set) for c in chain_sets),
    )


def listed_families():
    """The eleven-chain walkthrough fixture, one family per forbidden set."""
    return [
        family(("A", "D"), sorted(EX2_AD_CHAINS, key=sorted)),
        family(("D", "F"), sorted(EX2_DF_CHAINS, key=sorted)),
        family(("H", "K"), sorted(EX2_KH_CHAINS, key=sorted)),
    ]


def by_label(refs):
    names = {ref: label for label, ref in EX2_EDGE_LABELS.items()}
    return tuple(names[r] for r in refs)


def test_security_counts_walkthrough(ex2_fdg):
    scores = {s.edge: s for s in security_counts(listed_families(), ex2_fdg)}
    for label, expected in EX2_TABLE_COUNTS.items():
        assert scores[EX2_EDGE_LABELS[label]].security_count == expected
    assert scores[EX2_EDGE_LABELS["e4"]].side_attr_count == 5
    assert scores[EX2_EDGE_LABELS["e8"]].side_attr_count == 2


def test_security_counts_no_chains(ex2_fdg):
    scores = security_counts([], ex2_fdg)
    assert len(scores) == 30
    assert all(s.security_count == 0 for s in scores)


def test_security_count_of_shared_containment_edge(ex2_fdg):
    scores = {s.edge: s.security_count for s in security_counts(listed_families(), ex2_fdg)}
    assert scores[EX2_EDGE_LABELS["e4"]] == 2  # two chains route through it


def test_greedy_selection_walkthrough(ex2_fdg):
    cut = greedy_cut(listed_families(), ex2_fdg)
    assert by_label(cut.edges) == EX2_SELECTION


def test_greedy_single_chain():
    fdg = build_fdg(make_schema([("R", ["A", "B"])], [(["A"], ["B"])]))
    cut = greedy_cut([family(("A", "B"), [{(("A",), ("B",))}])], fdg)
    assert cut.edges == ((("A",), ("B",)),)


def test_greedy_prefers_shared_edge():
    fdg = build_fdg(
        make_schema(
            [("R", ["A", "B", "C", "D"])],
            [(["A"], ["B"]), (["B"], ["C"]), (["C"], ["D"])],
        )
    )
    a, b, c = (("A",), ("B",)), (("B",), ("C",)), (("C",), ("D",))
    cut = greedy_cut([family(("A", "D"), [{a, b}, {b, c}])], fdg)
    assert cut.edges == (b,)


def test_greedy_hits_every_chain(ex2_fdg):
    fams = listed_families()
    cut = greedy_cut(fams, ex2_fdg).as_set()
    for fam in fams:
        for chain in fam.chains:
            assert chain.edges & cut


def test_greedy_hits_every_chain_on_computed_families(ex2_fdg, example2):
    _, policy = example2
    fams = [join_chains(ex2_fdg, s) for s in policy.forbidden]
    cut = greedy_cut(fams, ex2_fdg).as_set()
    for fam in fams:
        for chain in fam.chains:
            assert chain.edges & cut


def test_greedy_is_deterministic(ex2_fdg):
    assert greedy_cut(listed_families(), ex2_fdg) == greedy_cut(
        listed_families(), ex2_fdg
    )


def test_oracle_beats_greedy_on_walkthrough(ex2_fdg):
    fams = listed_families()
    optimal = minimum_cut_oracle(fams)
    greedy = greedy_cut(fams, ex2_fdg)
    assert len(optimal) == 4
    assert len(greedy) == 5
    flat = [c.edges for f in fams for c in f.chains]
    assert all(chain & optimal.as_set() for chain in flat)


def test_oracle_single_chain():
    e = ("x", "y")
    assert minimum_cut_oracle([family(("a", "b"), [{e}])]).edges == (e,)


def test_oracle_disjoint_singletons():
    assert minimum_cut_oracle(
        [family(("a", "b"), [{"p"}, {"q"}])]
    ).edges == ("p", "q")


def test_oracle_refuses_past_bound():
    chains = [{f"edge{i}", f"edge{i + 1}"} for i in range(30)]
    with pytest.raises(OracleBoundExceeded):
        minimum_cut_oracle([family(("a", "b"), chains)])


def test_oracle_empty():
    assert minimum_cut_oracle([]).edges == ()


def brute_minimum_size(chain_sets):
    universe = sorted({e for c in chain_sets for e in c})
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            if all(set(c) & set(combo) for c in chain_sets):
                return size
    raise AssertionError


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sets(st.sampled_from("pqrstuv"), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_generic_greedy_hitting_set_is_valid(chains):
    chain_sets = [frozenset(c) for c in chains]
    cut = greedy_hitting_set(chain_sets, lambda e, n: (-n, e))
    assert all(c & cut.as_set() for c in chain_sets)
    assert len(cut) >= brute_minimum_size(chain_sets)


def test_greedy_valid_and_never_below_optimal_on_random_instances():
    rng = random.Random(5)
    fdg = build_fdg(
        make_schema(
            [("R", list("ABCDEF"))],
            [(["A"], ["B"]), (["B"], ["C"]), (["C"], ["D"]), (["D"], ["E"]), (["E"], ["F"])],
        )
    )
    universe = [e.ref for e in fdg.edges]
    for _ in range(250):
        chains = [
            set(rng.sample(universe, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))
        ]
        fams = [family(("A", "B"), chains)]
        cut = greedy_cut(fams, fdg)
        assert all(set(c) & cut.as_set() for c in chains)
        assert len(cut) >= brute_minimum_size(chains)
        assert len(minimum_cut_oracle(fams)) == brute_minimum_size(chains)



def test_reverse_delete_keeps_an_irredundant_cut():
    cut = CutSet(("b", "a"))
    assert reverse_delete(cut, [frozenset("b"), frozenset("ac")]) is cut


def test_reverse_delete_walks_the_selection_backwards():
    chains = [frozenset("ab")]
    assert reverse_delete(CutSet(("a", "b")), chains).edges == ("a",)
    assert reverse_delete(CutSet(("b", "a")), chains).edges == ("b",)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sets(st.sampled_from("pqrstuv"), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_reverse_delete_leaves_an_irredundant_subsequence(chains):
    chain_sets = [frozenset(c) for c in chains]
    cut = greedy_hitting_set(chain_sets, lambda e, n: (e,))
    pruned = reverse_delete(cut, chain_sets).edges
    assert list(pruned) == [e for e in cut.edges if e in pruned]
    assert all(c & set(pruned) for c in chain_sets)
    for edge in pruned:
        rest = set(pruned) - {edge}
        assert any(not (c & rest) for c in chain_sets)

def test_forbidden_sets_from_walkthrough_selection(ex2_fdg):
    cut = greedy_cut(listed_families(), ex2_fdg)
    assert edges_to_forbidden_sets(cut, ex2_fdg) == EX2_NEW_FORBIDDEN


def test_forbidden_sets_empty_cut(ex2_fdg):
    from schemacut import CutSet

    assert edges_to_forbidden_sets(CutSet(()), ex2_fdg) == ()


def test_forbidden_sets_endpoint_union(ex1_fdg):
    from schemacut import CutSet

    ref = (("A", "E"), ("A",))
    assert edges_to_forbidden_sets(CutSet((ref,)), ex1_fdg) == (("A", "E"),)


def test_forbidden_sets_unknown_edge_rejected(ex1_fdg):
    from schemacut import CutSet

    unknown = [
        (("Z",), ("Q",)),  # neither end is a vertex
        (("Z",), ("A",)),  # unknown source, known destination
        (("A",), ("Z",)),  # known source, unknown destination
        (("A",), ("E",)),  # both vertices, but no edge between them
    ]
    for ref in unknown:
        with pytest.raises(ValueError, match="not in the graph"):
            edges_to_forbidden_sets(CutSet((ref,)), ex1_fdg)


def scan_security_counts(chains, fdg):
    """Reference: the per-edge scan over every chain that the index replaced."""
    flat = [chain.edges for fam in chains for chain in fam.chains]
    return tuple(sum(1 for c in flat if edge.ref in c) for edge in fdg.edges)


def test_security_counts_match_a_scan_on_random_schemas():
    rng = random.Random(11)
    for _ in range(60):
        schema = random_schema(rng)
        policy = random_policy(rng, schema)
        fdg = build_fdg(schema)
        fams = [join_chains(fdg, s) for s in policy.forbidden]
        scores = security_counts(fams, fdg)
        assert tuple(s.security_count for s in scores) == scan_security_counts(fams, fdg)
        assert tuple(s.edge for s in scores) == tuple(e.ref for e in fdg.edges)


def scan_greedy_hitting_set(chain_sets, sort_key):
    """Reference: the hand-counted greedy that scanned every chain per edge."""
    counts = {}
    for chain in chain_sets:
        for edge in chain:
            counts[edge] = counts.get(edge, 0) + 1
    order = sorted(counts, key=lambda e: sort_key(e, counts[e]))
    marked = [False] * len(chain_sets)
    selection = []
    for edge in order:
        hit = [i for i, chain in enumerate(chain_sets) if edge in chain and not marked[i]]
        if hit:
            selection.append(edge)
            for i in hit:
                marked[i] = True
    return tuple(selection)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.frozensets(st.sampled_from("pqrstuv"), max_size=4), max_size=7),
    st.sampled_from(["total", "count only", "label"]),
)
@example([], "total")
@example([frozenset()], "count only")
@example([frozenset("pq"), frozenset(), frozenset("q")], "total")
@example([frozenset("pq"), frozenset("pq"), frozenset("r")], "count only")
@example([frozenset("rq"), frozenset("qp"), frozenset("ps")], "count only")
def test_greedy_hitting_set_matches_the_chain_scan(chain_sets, key):
    # "count only" is not total: tied edges keep their first-occurrence order.
    sort_key = {
        "total": lambda e, n: (-n, e),
        "count only": lambda e, n: -n,
        "label": lambda e, n: (e,),
    }[key]
    expected = scan_greedy_hitting_set(chain_sets, sort_key)
    assert greedy_hitting_set(chain_sets, sort_key).edges == expected
