from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemacut import (
    FunctionalDependency,
    attribute_closure,
    attr_set,
    candidate_sets,
    decompose_fds,
    identifiers_of,
)
from schemacut.closure import (
    closure_masks,
    closure_reasons,
    derivation,
    holders,
    set_bits,
)

from .conftest import composite_key_schema, random_fragments

F_R1 = decompose_fds(
    [
        FunctionalDependency(("A",), ("B", "C", "D")),
        FunctionalDependency(("D",), ("A", "B", "C")),
    ]
)


def brute_closure(start, fds):
    """Independent oracle: repeat full passes until nothing changes."""
    out = set(start)
    changed = True
    while changed:
        changed = False
        for dep in fds:
            if set(dep.lhs) <= out and not set(dep.rhs) <= out:
                out |= set(dep.rhs)
                changed = True
    return attr_set(out)


def worklist_closure(start, fds):
    """Reference: the worklist ``attribute_closure`` ran before it wrapped
    ``closure_masks`` (full passes over the single-rhs dependencies not yet
    used, until one pass adds nothing)."""
    closure = set(start)
    pending = True
    remaining = list(fds)
    while pending:
        pending = False
        still = []
        for dep in remaining:
            if set(dep.lhs) <= closure:
                if dep.rhs[0] not in closure:
                    closure.add(dep.rhs[0])
                    pending = True
            else:
                still.append(dep)
        remaining = still
    return attr_set(closure)


def test_split_into_singletons():
    dfds = decompose_fds([FunctionalDependency(("A",), ("B", "C"))])
    assert [(d.lhs, d.rhs) for d in dfds] == [(("A",), ("B",)), (("A",), ("C",))]


def test_already_singleton_unchanged():
    assert len(F_R1.fds) == 6
    assert all(len(d.rhs) == 1 for d in F_R1)


def test_empty_input():
    assert decompose_fds([]).fds == ()


def test_origin_tracks_source():
    dfds = decompose_fds(
        [
            FunctionalDependency(("A",), ("B", "C")),
            FunctionalDependency(("B",), ("D",)),
        ]
    )
    assert dfds.origin == (0, 0, 1)


def test_duplicates_collapse():
    dfds = decompose_fds(
        [
            FunctionalDependency(("A",), ("B",)),
            FunctionalDependency(("A",), ("B", "C")),
        ]
    )
    assert [(d.lhs, d.rhs) for d in dfds] == [(("A",), ("B",)), (("A",), ("C",))]


def test_closure_of_key():
    assert attribute_closure({"A"}, F_R1) == ("A", "B", "C", "D")


def test_closure_of_empty_set():
    assert attribute_closure(set(), F_R1) == ()


def test_closure_of_non_determinant():
    assert attribute_closure({"B"}, F_R1) == ("B",)


def test_identifiers_of_dependent_attribute():
    dfds = decompose_fds([FunctionalDependency(("A",), ("B", "C", "D"))])
    singles = [("A",), ("B",), ("C",), ("D",)]
    assert identifiers_of("B", dfds, singles) == (("A",),)


def test_identifiers_of_key_attribute():
    dfds = decompose_fds([FunctionalDependency(("A",), ("B", "C", "D"))])
    singles = [("A",), ("B",), ("C",), ("D",)]
    assert identifiers_of("A", dfds, singles) == ()


def test_identifiers_in_bridged_schema(example1):
    schema, _ = example1
    dfds = decompose_fds(schema.fds)
    candidates = [(a,) for a in schema.attribute_names] + [
        ("A", "E"), ("D", "H"), ("A", "B", "C", "D"), ("E", "F", "G", "H"),
    ]
    found = identifiers_of("F", dfds, candidates)
    # ("E","F","G","H") determines F but contains it, so it is not returned.
    assert found == (("A", "E"), ("D", "H"), ("E",), ("H",))


def _random_fd_list(rng, attrs, count):
    fds = []
    for _ in range(count):
        lhs = rng.sample(attrs, rng.randint(1, 2))
        rhs = rng.sample(attrs, rng.randint(1, 2))
        fds.append(FunctionalDependency(attr_set(lhs), attr_set(rhs)))
    return fds


def test_closure_matches_brute_force_oracle():
    rng = random.Random(7)
    attrs = list("ABCDEF")
    for _ in range(200):
        fds = _random_fd_list(rng, attrs, rng.randint(0, 6))
        dfds = decompose_fds(fds)
        start = rng.sample(attrs, rng.randint(0, 3))
        assert attribute_closure(start, dfds) == brute_closure(start, fds)


def test_decomposition_preserves_closure_exhaustively():
    # Every subset of a small attribute pool closes identically under the
    # original and the decomposed dependency sets.
    rng = random.Random(21)
    attrs = list("ABCDE")
    for _ in range(30):
        fds = _random_fd_list(rng, attrs, rng.randint(1, 5))
        dfds = decompose_fds(fds)
        for size in range(len(attrs) + 1):
            for subset in itertools.combinations(attrs, size):
                assert attribute_closure(subset, dfds) == brute_closure(subset, fds)


@st.composite
def _fd_sets(draw):
    attrs = "ABCDEF"
    count = draw(st.integers(0, 6))
    fds = []
    for _ in range(count):
        lhs = draw(st.sets(st.sampled_from(attrs), min_size=1, max_size=3))
        rhs = draw(st.sets(st.sampled_from(attrs), min_size=1, max_size=3))
        fds.append(FunctionalDependency(attr_set(lhs), attr_set(rhs)))
    return fds


@settings(max_examples=150, deadline=None)
@given(_fd_sets(), st.sets(st.sampled_from("ABCDEF"), max_size=4),
       st.sets(st.sampled_from("ABCDEF"), max_size=4))
def test_closure_is_extensive_monotone_idempotent(fds, s, t):
    dfds = decompose_fds(fds)
    cs = attribute_closure(s, dfds)
    assert set(s) <= set(cs)
    assert attribute_closure(cs, dfds) == cs
    if s <= t:
        assert set(cs) <= set(attribute_closure(t, dfds))


def groups_holding(masks, count):
    """Per group, the attributes whose mask has the group's bit."""
    return [attr_set(a for a, mask in masks.items() if mask >> i & 1) for i in range(count)]


def test_closure_masks_of_the_union_rule():
    # BC -> D fires for the groups that derive both B and C (A and BC), not for B.
    dfds = decompose_fds(
        [
            FunctionalDependency(("A",), ("B", "C")),
            FunctionalDependency(("B", "C"), ("D",)),
        ]
    )
    masks = closure_masks([("A",), ("B",), ("B", "C"), ("E",)], dfds)
    assert masks == {"A": 0b0001, "B": 0b0111, "C": 0b0101, "D": 0b0101, "E": 0b1000}
    assert holders(masks, ("A", "D")) == 0b0001
    assert not holders(masks, ("B", "E"))
    assert not holders(masks, ("A", "F"))
    assert closure_masks([], dfds) == {}


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_closure_masks_match_the_worklist_closure_of_every_group(rng):
    schema = composite_key_schema(rng)
    dfds = decompose_fds(schema.fds)
    groups = [frag.attrs for frag in random_fragments(rng, schema)]
    masks = closure_masks(groups, dfds)
    assert groups_holding(masks, len(groups)) == [worklist_closure(g, dfds) for g in groups]
    assert all(masks.values())


@settings(max_examples=150, deadline=None)
@given(_fd_sets(), st.lists(st.sets(st.sampled_from("ABCDEF"), max_size=4), max_size=5))
def test_closure_masks_close_undecomposed_dependencies(fds, groups):
    masks = closure_masks(groups, fds)
    assert groups_holding(masks, len(groups)) == [brute_closure(g, fds) for g in groups]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sets(st.sampled_from("abcdef")), max_size=8),
    st.sets(st.sampled_from("abcdefg"), min_size=1, max_size=3),
)
def test_holders_matches_a_scan(sets, members):
    # Under no dependencies the masks are membership: holders answers
    # which sets contain ``members``, in position order.
    masks = closure_masks(sets, ())
    assert list(set_bits(holders(masks, members))) == [
        i for i, s in enumerate(sets) if members <= s
    ]


def test_set_bits_refuses_a_negative_mask():
    assert list(set_bits(0)) == []
    assert list(set_bits(0b101001)) == [0, 3, 5]
    # Every group holds the empty set: all bits, which no loop can list.
    assert holders(closure_masks([("A",)], ()), ()) == -1
    with pytest.raises(ValueError, match="negative mask"):
        list(set_bits(-1))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_derivation_alone_reaches_its_target(rng):
    # Reference check: closing the derivation's seed part under only the
    # derivation's dependencies reaches the target, and the reasons hold
    # exactly the group's closure.
    schema = composite_key_schema(rng)
    dfds = decompose_fds(schema.fds).fds
    groups = [frag.attrs for frag in random_fragments(rng, schema)]
    masks = closure_masks(groups, dfds)
    for i, group in enumerate(groups):
        reasons = closure_reasons(group, dfds)
        closure = worklist_closure(group, dfds)
        assert attr_set(reasons) == closure
        assert all((reasons[a] is None) == (a in group) for a in closure)
        targets = [closure] + [rng.sample(closure, min(2, len(closure))) for _ in range(3)]
        for target in targets:
            assert holders(masks, target) >> i & 1
            seeds, used = derivation(reasons, target)
            assert set(seeds) <= set(group)
            assert len(set(used)) == len(used) and set(used) <= set(dfds)
            assert set(target) <= set(worklist_closure(seeds, used))


def test_derivation_of_the_union_rule():
    # From A, D needs both parts of BC: the derivation holds A -> B, A -> C
    # and BC -> D, and only A of the seed.
    dfds = decompose_fds(
        [
            FunctionalDependency(("A",), ("B", "C")),
            FunctionalDependency(("B", "C"), ("D",)),
        ]
    ).fds
    seeds, used = derivation(closure_reasons(("A", "E"), dfds), ("A", "D"))
    assert seeds == ("A",)
    assert sorted(map(str, used)) == ["A->B", "A->C", "BC->D"]
    assert derivation(closure_reasons(("B", "C"), dfds), ("D",)) == (("B", "C"), (dfds[2],))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_identifiers_of_matches_a_per_candidate_closure(rng):
    schema = composite_key_schema(rng)
    dfds = decompose_fds(schema.fds)
    candidates = list(candidate_sets(schema))
    want = {
        attr: tuple(
            cand
            for cand in candidates
            if attr not in cand and attr in worklist_closure(cand, dfds)
        )
        for attr in schema.attribute_names
    }
    rng.shuffle(candidates)
    for attr in schema.attribute_names:
        assert identifiers_of(attr, dfds, candidates + candidates[:2]) == want[attr]
