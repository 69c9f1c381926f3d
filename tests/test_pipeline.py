from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemacut import (
    ConsistencyTimeout,
    DecomposedSchema,
    Fragment,
    FunctionalDependency,
    PathLimits,
    Policy,
    RecutDidNotConverge,
    Relation,
    Schema,
    SchemaError,
    decompose_fds,
    dependency_loss,
    greedy_cut,
    join_chains,
    build_fdg,
    check,
    load_schema_doc,
    make_policy,
    make_schema,
    report_to_dict,
    secure_decompose,
    strong_cut_decompose,
    verify_decomposition,
)
from schemacut import fixtures, pipeline
from schemacut.closure import closure_masks, holders, set_bits
from schemacut.decompose import (
    RelationIndex,
    decompose_relation,
    decomposition_from_dict,
    decomposition_to_dict,
    held_and_lost,
    relation_index,
)
from schemacut.model import attr_set, preprocess_policy

from .conftest import (
    composite_key_schema,
    count_enumerations,
    count_walks,
    fd_chain_schema,
    random_fragments,
    random_policy,
    random_schema,
    snowflake_policy,
    snowflake_schema,
    union_rule_doc,
)
from .test_closure import worklist_closure
from .goldens import EX2_NEW_FORBIDDEN, EX2_RELAXED_FRAGMENTS, V


def fragments_by_relation(result):
    out = {}
    for frag in result.fragments:
        out.setdefault(frag.source_relation, set()).add(frag.attrs)
    return out


def test_example2_relaxed_golden(example2):
    schema, policy = example2
    report = secure_decompose(schema, policy)
    assert report.consistency.consistent
    assert report.security_verified
    assert fragments_by_relation(report.result) == EX2_RELAXED_FRAGMENTS
    assert report.result.new_forbidden == EX2_NEW_FORBIDDEN
    assert report.warnings == ()


def test_example2_cut_equals_plain_greedy(example2):
    schema, policy = example2
    fdg = build_fdg(schema)
    families = [join_chains(fdg, s) for s in policy.forbidden]
    report = secure_decompose(schema, policy)
    assert report.consistency.cut == greedy_cut(families, fdg)


def test_example0_relaxed_is_secure(example0):
    # The greedy cut selects three edges here, one of them redundant; the
    # reverse-delete pass drops it, so only {A, B} and {A, B, C, D} become
    # new co-occurrence constraints.  That leaves two fragments, one fewer
    # than the identifier-severing baseline, and the result still verifies
    # as secure.
    schema, policy = example0
    report = secure_decompose(schema, policy)
    assert report.security_verified
    assert fragments_by_relation(report.result) == {
        "R_k": {V("ACD"), V("BD")}
    }


def test_example1_relaxed_is_secure(example1):
    schema, policy = example1
    report = secure_decompose(schema, policy)
    assert report.security_verified
    assert fragments_by_relation(report.result) == {
        "R_1": {V("ACD"), V("BC")},
        "R_2": {V("EFGH")},
        "R_3": {V("AE")},
        "R_4": {V("DH")},
    }


def test_empty_policy_changes_nothing(example2):
    schema, _ = example2
    report = secure_decompose(schema, make_policy(schema))
    assert report.security_verified
    assert fragments_by_relation(report.result) == {
        rel.name: {rel.attributes} for rel in schema.relations
    }
    assert report.result.new_forbidden == ()


@pytest.mark.parametrize(
    "policy, label",
    [
        (Policy(required=((),)), "required"),
        (Policy(forbidden=(("A", "B"),), required=((),)), "required"),
        (Policy(forbidden=(("A", "B"), ("C",)), required=((),)), "required"),
        (Policy(forbidden=((),)), "forbidden"),
    ],
    ids=["required-empty", "beside-a-forbidden-set", "beside-a-singleton", "forbidden-empty"],
)
def test_empty_policy_set_is_refused(policy, label):
    # Refused before any stage sees it: an empty required set has no join
    # chain, so the consistency check would call the policy inconsistent,
    # unless hiding dropped it first; an empty forbidden set would fail
    # inside decompose_relation, naming no set.
    schema = make_schema([("R", ["A", "B", "C"], ["A"])], [(["A"], ["B"])])
    with pytest.raises(SchemaError, match=f"^{label} set is empty$"):
        secure_decompose(schema, policy)


def test_weak_cut_verifies_secure(example0):
    # Hand-made two-fragment split: no way to associate B with C remains.
    schema, policy = example0
    result = DecomposedSchema(
        (Fragment("R_k", V("ACD"), 1), Fragment("R_k", V("BD"), 2)), (), ()
    )
    secure, _ = verify_decomposition(result, schema, policy)
    assert secure


def test_strong_cut_verifies_secure(example0):
    schema, policy = example0
    result = strong_cut_decompose(schema, policy.forbidden)
    secure, _ = verify_decomposition(result, schema, policy)
    assert secure


def test_undecomposed_schema_fails_verification(example2):
    schema, policy = example2
    result = DecomposedSchema(
        tuple(Fragment(r.name, r.attributes, 0) for r in schema.relations), (), ()
    )
    secure, _ = verify_decomposition(result, schema, policy)
    assert not secure


def test_fragment_containing_forbidden_set_fails(example0):
    schema, policy = example0
    result = DecomposedSchema(
        (Fragment("R_k", V("BCD"), 1), Fragment("R_k", V("AD"), 2)), (), ()
    )
    secure, _ = verify_decomposition(result, schema, policy)
    assert not secure


def test_verification_agrees_with_join_chains_on_random_fragments():
    # Each relation is split into two random, possibly overlapping parts,
    # so fragment graphs both keep and lose associations.
    rng = random.Random(2024)
    compared = 0
    for _ in range(200):
        schema = random_schema(rng)
        fragments = []
        for rel in schema.relations:
            for part in range(1, 3):
                attrs = rng.sample(rel.attributes, rng.randint(1, len(rel.attributes)))
                fragments.append(Fragment(rel.name, tuple(sorted(attrs)), part))
        pool = sorted({a for frag in fragments for a in frag.attrs})
        if len(pool) < 2:
            continue
        sets = [rng.sample(pool, rng.randint(2, min(3, len(pool)))) for _ in range(4)]
        policy = make_policy(schema, forbidden=sets[:2], required=sets)
        result = DecomposedSchema(tuple(fragments), (), ())
        fragment_fdg = build_fdg(scanned_fragment_schema(result, schema))
        families = {s: join_chains(fragment_fdg, s) for s in policy.required}
        if any(fam.truncated for fam in families.values()):
            continue
        secure, flags = verify_decomposition(result, schema, policy)
        assert dict(flags) == {s: bool(fam.chains) for s, fam in families.items()}
        assert secure == (not any(families[s].chains for s in policy.forbidden))
        compared += 1
    assert compared > 150


def scanned_fragment_fds(result, schema):
    """Reference: the all-pairs scan that ``held_and_lost``'s held list replaced."""
    fragment_sets = [set(frag.attrs) for frag in result.fragments]
    return tuple(
        dep
        for dep in decompose_fds(schema.fds)
        if any(set(dep.lhs) | set(dep.rhs) <= fs for fs in fragment_sets)
    )


def scanned_fragment_schema(result, schema):
    """The fragments as relations, holding the dependencies they hold whole.

    Keys are not re-derived: each fragment is its own trivial key, which the
    graph construction never consults.
    """
    relations = tuple(Relation(frag.name, frag.attrs, frag.attrs) for frag in result.fragments)
    return Schema(relations, scanned_fragment_fds(result, schema), schema.attribute_names)


def scanned_lost_dependencies(schema, fragments, dfds):
    """Reference: the all-pairs scan that ``_lost_dependencies`` replaced."""
    by_relation = {}
    for frag in fragments:
        by_relation.setdefault(frag.source_relation, []).append(frag.attrs)
    lost = []
    for dep in dfds:
        spanned = set(dep.lhs) | set(dep.rhs)
        for rel in schema.relations:
            if spanned <= set(rel.attributes):
                kept = any(spanned <= set(attrs) for attrs in by_relation.get(rel.name, []))
                if not kept and dep not in lost:
                    lost.append(dep)
    return tuple(lost)


def scanned_round(schema, effective, dfds):
    """Reference: a round before the relation index.  Every relation is
    decomposed, and held and lost are the all-pairs scans."""
    fragments = tuple(frag for rel in schema.relations for frag in decompose_relation(rel, effective))
    result = DecomposedSchema(fragments, (), ())
    return fragments, scanned_fragment_fds(result, schema), scanned_lost_dependencies(
        schema, fragments, dfds
    )


def loaded(fragments):
    """``fragments`` as read back from a report document."""
    return decomposition_from_dict(
        decomposition_to_dict(DecomposedSchema(tuple(fragments), (), ()))
    ).fragments


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_policy_local_round_matches_decomposing_every_relation(rng, composite):
    schema = (composite_key_schema if composite else random_schema)(rng)
    dfds = decompose_fds(schema.fds)
    effective = list(random_policy(rng, schema).forbidden)
    fragments = pipeline._split(relation_index(schema, dfds), effective, 24)
    want_fragments, want_held, want_lost = scanned_round(schema, effective, dfds)
    assert fragments == want_fragments
    assert held_and_lost(schema, fragments, dfds) == (want_held, want_lost)

    # Loaded decompositions need not come from a round: a relation's
    # fragments may be missing, its one fragment may not be all of it, it
    # may be whole twice, and a fragment may name no relation or span two.
    victim = rng.choice(schema.relations)
    names = schema.attribute_names
    others = [frag for frag in fragments if frag.source_relation != victim.name]
    variants = [
        others,
        others + [Fragment(victim.name, victim.attributes[1:], 1)],
        others + [Fragment(victim.name, victim.attributes, i) for i in (1, 2)],
        [*fragments, Fragment("X", attr_set(rng.sample(names, min(3, len(names)))), 1)],
        [*fragments, Fragment(victim.name, attr_set(victim.attributes + names[:2]), 9)],
    ]
    for variant in variants:
        frags = loaded(variant)
        result = DecomposedSchema(frags, (), ())
        assert held_and_lost(schema, frags, dfds) == (
            scanned_fragment_fds(result, schema),
            scanned_lost_dependencies(schema, frags, dfds),
        )


def test_loaded_fragments_hold_dependencies_no_relation_holds():
    # A -> C lies in no relation, so only a fragment that names no relation,
    # or spans two, holds it: every fragment outside its relation is read.
    schema = make_schema(
        [("R", ["A", "B"], ["A"]), ("S", ["B", "C"], ["B"])],
        [(["A"], ["B"]), (["B"], ["C"]), (["A"], ["C"])],
    )
    dfds = decompose_fds(schema.fds)
    whole = [Fragment("R", V("AB"), 0), Fragment("S", V("BC"), 0)]
    for extra in (Fragment("X", V("AC"), 1), Fragment("R", V("ABC"), 1)):
        frags = loaded([*whole, extra])
        held, lost = held_and_lost(schema, frags, dfds)
        assert held == scanned_fragment_fds(DecomposedSchema(frags, (), ()), schema)
        assert FunctionalDependency(V("A"), V("C")) in held and lost == ()


def test_fragment_bookkeeping_matches_all_pairs_scans():
    # Relations share attributes, get zero to three random parts each, and
    # so both keep and lose dependencies.
    rng = random.Random(71)
    lost_any = 0
    for _ in range(300):
        schema = random_schema(rng)
        fragments = []
        for rel in schema.relations:
            for part in range(1, rng.randint(1, 4)):
                attrs = rng.sample(rel.attributes, rng.randint(1, len(rel.attributes)))
                fragments.append(Fragment(rel.name, tuple(sorted(attrs)), part))
        dfds = decompose_fds(schema.fds)
        fragments = tuple(fragments)
        result = DecomposedSchema(fragments, (), held_and_lost(schema, fragments, dfds)[1])
        want = scanned_lost_dependencies(schema, result.fragments, dfds)
        assert result.lost_dependencies == want
        assert held_and_lost(schema, result.fragments, dfds) == (
            scanned_fragment_fds(result, schema),
            want,
        )
        assert dependency_loss(schema, result, dfds) == len(want)
        lost_any += bool(want)
    assert lost_any > 50


def test_long_fd_chain_decomposes_securely():
    steps = 1200
    schema = fd_chain_schema(steps)
    report = secure_decompose(schema, make_policy(schema, forbidden=[["a0", f"a{steps}"]]))
    assert report.security_verified
    assert report.warnings == ()


def test_association_beyond_path_limits_is_cut_by_its_derivation():
    # With one-edge paths the enumeration only sees the chain through the
    # relation vertex ABC; cutting it leaves fragments AB and BC, which
    # still join on B.  The path limits bound only the first round: the
    # re-cut forbids a co-occurrence of the closure's derivation A -> B,
    # B -> C, and no limit applies there.
    schema = make_schema([("R", ["A", "B", "C"], ["A"])], [(["A"], ["B"]), (["B"], ["C"])])
    policy = make_policy(schema, forbidden=[["A", "C"]])
    report = secure_decompose(schema, policy, limits=PathLimits(max_path_length=1))
    assert fragments_by_relation(report.result) == {"R": {V("A"), V("BC")}}
    assert report.security_verified
    assert report.warnings[-1] == (
        "additional co-occurrence constraints were needed to break surviving associations: {A, B}"
    )
    assert verify_decomposition(report.result, schema, policy) == (True, ())


def test_union_rule_association_is_cut_by_its_derivation():
    # R1 joined with R2 on A derives B and C, and BC -> D then adds D, so
    # the key joins associate A with D although no join chain does.  Both
    # derivations (from R1 and from R2) use {A, B}, {A, C} and {B, C, D};
    # the smallest set first in order, {A, B}, breaks both.
    schema, policy = load_schema_doc(union_rule_doc())
    report = secure_decompose(schema, policy)
    assert report.consistency.consistent
    assert report.security_verified
    assert report.warnings == (
        "additional co-occurrence constraints were needed to break surviving associations: {A, B}",
    )
    assert fragments_by_relation(report.result) == {
        "R1": {V("A"), V("B")}, "R2": {V("AC")}, "R3": {V("BCD")}
    }
    assert verify_decomposition(report.result, schema, policy) == (True, ())


def required_pair_case():
    """R0(a4, a5, a8), key a5, a5 -> a4; {a4, a8} forbidden, {a4, a5} required.

    Input 109 of the small_mixed workload, seed 0.
    """
    schema = make_schema([("R0", ["a4", "a5", "a8"], ["a5"])], [(["a5"], ["a4"])])
    return schema, make_policy(schema, forbidden=[["a4", "a8"]], required=[["a4", "a5"]])


def test_recut_keeps_a_required_set_its_derivation_uses():
    # The first round cuts only the relation's containment edge to a8, and
    # banning {a4, a5, a8} leaves fragments a4a5 and a5a8, whose closure
    # joins a4 with a8 again.  The derivation from a5a8 uses {a5, a8} and
    # {a4, a5}; the required set's own derivation uses {a4, a5}, so the
    # re-cut spares it and forbids {a5, a8}.
    schema, policy = required_pair_case()
    report = secure_decompose(schema, policy)
    assert report.consistency.consistent
    assert report.security_verified
    assert report.required_verified == ((("a4", "a5"), True),)
    assert report.result.new_forbidden == (("a4", "a5", "a8"), ("a5", "a8"))
    assert fragments_by_relation(report.result) == {"R0": {("a4", "a5"), ("a8",)}}


def _consistent_policy_case(rng, make):
    """A random schema from ``make``, forbidden sets and required pairs
    drawn from within one relation."""
    schema = make(rng)
    base = random_policy(rng, schema)
    wide = [rel.attributes for rel in schema.relations if len(rel.attributes) >= 2]
    required = [rng.sample(rng.choice(wide), 2) for _ in range(rng.randint(0, 2))] if wide else []
    return schema, make_policy(schema, forbidden=base.forbidden, required=required)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([random_schema, composite_key_schema]))
@example(random.Random(53), composite_key_schema)  # {a0, a3} through composite lhs a2a5
def test_every_consistent_report_is_secure(rng, make):
    # The re-cut cuts each surviving association's own derivation, so no
    # consistent report is left unverified, with or without composite keys.
    schema, policy = _consistent_policy_case(rng, make)
    report = secure_decompose(schema, policy)
    if report.consistency.consistent:
        assert report.security_verified, (schema, policy)
        schema2, policy2, _ = preprocess_policy(schema, policy)
        assert verify_decomposition(report.result, schema2, policy2)[0]


def _random_verification_case(rng):
    """A composite-key schema, a random fragmentation and a policy over it."""
    schema = composite_key_schema(rng)
    pool = list(schema.attribute_names)
    sets = [rng.sample(pool, rng.randint(2, min(3, len(pool)))) for _ in range(4)]
    policy = make_policy(schema, forbidden=sets[:2], required=sets)
    return schema, DecomposedSchema(tuple(random_fragments(rng, schema)), (), ()), policy


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
@example(random.Random(214))  # {a0, a6, a7}: only a1a5 -> a0 joins them
def test_verification_flags_exactly_what_a_fragment_closure_holds(rng):
    schema, result, policy = _random_verification_case(rng)
    held = scanned_fragment_fds(result, schema)
    closures = [set(worklist_closure(frag.attrs, held)) for frag in result.fragments]

    def inferable(attrs):
        return any(set(attrs) <= closure for closure in closures)

    secure, flags = verify_decomposition(result, schema, policy)
    assert dict(flags) == {s: inferable(s) for s in policy.required}
    assert secure == (not any(inferable(s) for s in policy.forbidden))


def reference_cone(policy, held):
    """Reference: the policy's attributes, grown by full passes over ``held``
    that add the lhs of every dependency deriving an attribute already in."""
    cone = {attr for s in (*policy.forbidden, *policy.required) for attr in s}
    grown = True
    while grown:
        grown = False
        for dep in held:
            if dep.rhs[0] in cone and not cone.issuperset(dep.lhs):
                cone.update(dep.lhs)
                grown = True
    return cone


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_cone_masks_equal_full_closure_masks_on_the_cone(rng, composite):
    # The verdict closes only the policy's cone.  On every cone attribute its
    # masks must equal those of closing the whole fragments under every held
    # dependency, and verification must agree with a plain full closure.
    schema = (composite_key_schema if composite else random_schema)(rng)
    pool = list(schema.attribute_names)
    sets = [rng.sample(pool, rng.randint(1, min(3, len(pool)))) for _ in range(rng.randint(1, 4))]
    policy = make_policy(schema, forbidden=sets[:2], required=sets[2:])
    dfds = decompose_fds(schema.fds)
    index = relation_index(schema, dfds)
    if rng.random() < 0.5:
        fragments = tuple(random_fragments(rng, schema))
    else:
        fragments = pipeline._split(index, policy.forbidden, 24)
    result = DecomposedSchema(fragments, (), ())
    held = scanned_fragment_fds(result, schema)
    held_mask, _ = index.held_and_lost(fragments)
    assert tuple(dfds.fds[j] for j in set_bits(held_mask)) == held

    full = closure_masks([frag.attrs for frag in fragments], held)
    cone = reference_cone(policy, held)
    masks, unbroken, flags = pipeline._verdict(index, fragments, held_mask, policy)
    assert set(masks) <= cone
    assert {a: masks.get(a, 0) for a in cone} == {a: full.get(a, 0) for a in cone}
    assert unbroken == [s for s in policy.forbidden if holders(full, s)]
    assert flags == tuple((s, bool(holders(full, s))) for s in policy.required)

    # verify_decomposition against the plain worklist closure of each fragment.
    closures = [set(worklist_closure(frag.attrs, held)) for frag in fragments]

    def inferable(attrs):
        return any(set(attrs) <= closure for closure in closures)

    assert verify_decomposition(result, schema, policy) == (
        not any(inferable(s) for s in policy.forbidden),
        tuple((s, inferable(s)) for s in policy.required),
    )


def test_verification_is_never_weaker_than_join_chains_on_composite_keys():
    # Every set a join chain of the fragment graph associates is flagged,
    # and some sets are flagged that only the union rule associates.
    rng = random.Random(1979)
    union_only = 0
    for _ in range(300):
        schema, result, policy = _random_verification_case(rng)
        fragment_fdg = build_fdg(scanned_fragment_schema(result, schema))
        covered = {a for frag in result.fragments for a in frag.attrs}
        families = {
            s: join_chains(fragment_fdg, s) for s in policy.required if covered.issuperset(s)
        }
        if any(fam.truncated for fam in families.values()):
            continue
        _, flags = verify_decomposition(result, schema, policy)
        for s, ok in flags:
            chained = s in families and bool(families[s].chains)
            assert ok or not chained
            union_only += ok and not chained
    assert union_only > 0


def test_public_verification_agrees_with_the_pipeline_on_composite_keys():
    # The report's verdicts must be what the public judge says of its
    # result, on the preprocessed inputs the pipeline decomposed.
    rng = random.Random(1313)
    consistent = unverified = 0
    for _ in range(300):
        schema, policy = _consistent_policy_case(rng, composite_key_schema)
        report = secure_decompose(schema, policy)
        if not report.consistency.consistent:
            continue
        schema2, policy2, _ = preprocess_policy(schema, policy)
        assert verify_decomposition(report.result, schema2, policy2) == (
            report.security_verified,
            report.required_verified,
        )
        consistent += 1
        unverified += not report.security_verified
    assert consistent > 200 and unverified == 0


def test_hidden_attribute_invents_no_dependency():
    # Hiding X drops XA -> B rather than leaving A -> B, so {B, C} is not
    # associable through A and nothing needs splitting.
    schema = make_schema(
        [("R", ["X", "A", "B"], ["X", "A"]), ("S", ["A", "C"], ["A"])],
        [(["X", "A"], ["B"])],
    )
    report = secure_decompose(schema, make_policy(schema, forbidden=[["X"], ["B", "C"]]))
    assert fragments_by_relation(report.result) == {"R": {("A", "B")}, "S": {("A", "C")}}
    assert report.result.new_forbidden == ()
    assert report.security_verified


def _singleton_policy_case(rng):
    """A random schema (some with composite keys), 1-2 singleton forbidden
    sets, 1-3 forbidden pairs or triples and 0-2 required pairs."""
    schema = rng.choice([random_schema, composite_key_schema])(rng, max_attrs=10)
    pool = list(schema.attribute_names)
    singles = [[a] for a in rng.sample(pool, min(len(pool), rng.randint(1, 2)))]
    sets = [rng.sample(pool, min(len(pool), rng.randint(2, 3))) for _ in range(rng.randint(1, 3))]
    required = [rng.sample(pool, min(len(pool), 2)) for _ in range(rng.randint(0, 2))]
    return schema, make_policy(schema, forbidden=singles + sets, required=required)


def test_singleton_forbidden_sets_hide_exactly_their_attributes():
    # Each singleton-forbidden attribute is hidden, and nothing else; the
    # report stays secure against the original schema and policy.
    rng = random.Random(1818)
    consistent = 0
    for _ in range(300):
        schema, policy = _singleton_policy_case(rng)
        hidden = {s[0] for s in policy.forbidden if len(s) == 1}
        schema2, policy2, _ = preprocess_policy(schema, policy)
        assert set(schema.attribute_names) - set(schema2.attribute_names) == hidden
        assert preprocess_policy(schema2, policy2) == (schema2, policy2, ())
        report = secure_decompose(schema, policy)
        if report.consistency.consistent:
            consistent += 1
            kept = {a for frag in report.result.fragments for a in frag.attrs}
            assert kept == set(schema2.attribute_names)
            assert verify_decomposition(report.result, schema, policy)[0], (schema, policy)
    assert consistent > 250


def test_required_set_flags(example2):
    schema, _ = example2
    policy = make_policy(schema, forbidden=[["A", "D"]], required=[["B", "C"], ["E", "G"]])
    report = secure_decompose(schema, policy)
    assert report.consistency.consistent
    assert report.security_verified
    flags = dict(report.required_verified)
    assert flags[V("BC")] is True
    assert flags[V("EG")] is True


def test_inconsistent_policy_reports_no_fragments():
    schema = make_schema(
        [("R", ["A", "B"], ["A"]), ("S", ["A", "C"], ["A"])],
        [(["A"], ["B"]), (["A"], ["C"])],
    )
    # Associating B with C needs the A bridge alive, but {B, C} is forbidden.
    policy = make_policy(schema, forbidden=[["B", "C"]], required=[["B", "C"]])
    report = secure_decompose(schema, policy)
    assert not report.consistency.consistent
    assert report.result is None
    assert not report.security_verified
    doc = report_to_dict(report)
    assert doc["fragments"] == [] and doc["consistent"] is False


def containment_recut_case():
    """A shared containment edge tops the greedy order, but banning the
    whole composite leaves its smaller fragments associable: one re-cut
    round is needed."""
    schema = make_schema(
        [
            ("R1", ["a", "b", "p"]),
            ("R2", ["a", "s", "u"], ["a"]),
            ("R3", ["b", "t"], ["b"]),
            ("R4", ["p", "q"], ["p"]),
        ],
        [(["a"], ["s"]), (["a"], ["u"]), (["b"], ["t"]), (["p"], ["q"])],
    )
    return schema, make_policy(schema, forbidden=[["s", "t"], ["u", "q"]])


def test_recut_restores_security_for_containment_cuts(monkeypatch):
    # The verify-and-recut round must catch and fix the surviving association.
    # Banning {a, b, p} splits R1 into ab, ap and bp, but ab still derives
    # s beside t (a -> s, b -> t) and ap derives u beside q.  Every
    # co-occurrence of the two derivations scores one, so each gives up its
    # first in set order: {a, b} and {a, p}.
    schema, policy = containment_recut_case()
    pipeline._base_graph.cache_clear()
    builds = []
    monkeypatch.setattr(pipeline, "build_fdg", lambda s: builds.append(s) or build_fdg(s))
    report = secure_decompose(schema, policy)
    assert report.security_verified
    rounds = sum("additional co-occurrence" in w for w in report.warnings)
    assert rounds == 1
    assert report.result.new_forbidden == (V("abp"), V("ab"), V("ap"))
    # One graph per schema: verification and the re-cut are closures over
    # the fragments and build none.
    assert builds == [schema]


def test_exhausted_recut_rounds_raise_a_named_error(monkeypatch):
    # With no round allowed, the association the first cut leaves must be
    # reported by name, not as a bare RuntimeError.
    schema, policy = containment_recut_case()
    monkeypatch.setattr(pipeline, "_MAX_RECUT_ROUNDS", 0)
    with pytest.raises(RecutDidNotConverge, match=r"^re-cut did not converge in 0 rounds: "):
        secure_decompose(schema, policy)


def test_recut_round_leaves_the_base_graph_cached(monkeypatch):
    # A re-cut round builds no graph: after one, the next call on the
    # schema is a cache hit and builds nothing.
    schema, policy = containment_recut_case()
    pipeline._base_graph.cache_clear()
    first = secure_decompose(schema, policy)
    rounds = sum("additional co-occurrence" in w for w in first.warnings)
    assert rounds >= 1
    assert pipeline._base_graph.cache_info().currsize == 1
    builds = []
    monkeypatch.setattr(pipeline, "build_fdg", lambda s: builds.append(s) or build_fdg(s))
    hits = pipeline._base_graph.cache_info().hits
    second = secure_decompose(schema, policy)
    assert pipeline._base_graph.cache_info().hits == hits + 1
    assert builds == []
    assert second == first


@pytest.mark.parametrize("case", ["containment re-cut", "union rule"])
def test_each_round_sorts_the_dependencies_once(monkeypatch, case):
    # The schema's dependencies are decomposed once, with its graph; every
    # round then makes one held/lost pass, and a re-cut builds no graph.
    if case == "union rule":
        schema, policy = load_schema_doc(union_rule_doc())
    else:
        schema, policy = containment_recut_case()
    splits, passes, builds = [], [], []

    def split(fds):
        splits.append(fds)
        return decompose_fds(fds)

    real_sort = RelationIndex.held_and_lost

    def sort(index, fragments):
        passes.append(real_sort(index, fragments))
        return passes[-1]

    monkeypatch.setattr(pipeline, "decompose_fds", split)
    monkeypatch.setattr(RelationIndex, "held_and_lost", sort)
    monkeypatch.setattr(pipeline, "build_fdg", lambda s: builds.append(s) or build_fdg(s))
    pipeline._base_graph.cache_clear()
    report = secure_decompose(schema, policy)
    recuts = sum("additional co-occurrence" in w for w in report.warnings)
    assert recuts == 1 and report.security_verified
    assert len(splits) == 1
    assert len(passes) == 1 + recuts
    assert report.result.lost_dependencies == passes[-1][1]
    assert builds == [schema]
    del splits[:], passes[:]
    assert secure_decompose(schema, policy) == report
    assert len(splits) == 0 and len(passes) == 1 + recuts


def schema_doc(schema, policy) -> dict:
    """A document that ``load_schema_doc`` reads back as ``(schema, policy)``."""
    return {
        "relations": [
            {
                "name": rel.name,
                "attributes": list(rel.attributes),
                "primary_key": list(rel.primary_key),
                "foreign_keys": [
                    {"attributes": list(fk.attributes), "references": fk.references}
                    for fk in rel.foreign_keys
                ],
            }
            for rel in schema.relations
        ],
        "fds": [
            {"lhs": list(dep.lhs), "rhs": list(dep.rhs), "probabilistic": dep.probabilistic}
            for dep in schema.fds
        ],
        "policy": {key: [list(s) for s in getattr(policy, key)] for key in ("forbidden", "required")},
    }


REPORTS_SCRIPT = """
import json, sys
from schemacut import load_schema_doc, report_to_dict, secure_decompose
for doc in json.load(sys.stdin):
    print(json.dumps(report_to_dict(secure_decompose(*load_schema_doc(doc)))))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    # A re-cut's derivations are sets of frozensets, whose iteration order
    # follows the string hash seed; the reports must not.
    cases = [fixtures.example_schema(name) for name in fixtures.EXAMPLE_NAMES]
    cases += [load_schema_doc(union_rule_doc()), containment_recut_case(), required_pair_case()]
    docs = [schema_doc(*case) for case in cases]
    assert [load_schema_doc(doc) for doc in docs] == cases
    want = "".join(
        json.dumps(report_to_dict(secure_decompose(*load_schema_doc(doc)))) + "\n" for doc in docs
    )
    assert sum("additional co-occurrence" in line for line in want.splitlines()) == 3
    src = str(Path(pipeline.__file__).resolve().parents[1])
    for seed in ("0", "77"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", REPORTS_SCRIPT],
            input=json.dumps(docs), env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == want


@pytest.mark.parametrize("name", fixtures.EXAMPLE_NAMES)
def test_equal_inputs_give_equal_reports(name):
    # A report is a plain value: a call on a cleared cache and a cache hit
    # compare equal, cut, witnesses and strategy included.
    schema, policy = fixtures.example_schema(name)
    pipeline._base_graph.cache_clear()
    first = secure_decompose(schema, policy)
    assert secure_decompose(schema, policy) == first


@pytest.mark.parametrize("name", fixtures.EXAMPLE_NAMES)
def test_deadline_stops_the_check_or_changes_nothing(name):
    # The consistency check reads the deadline before any work, so a zero
    # budget stops every example; a generous one gives the unbounded report.
    schema, policy = fixtures.example_schema(name)
    with pytest.raises(ConsistencyTimeout):
        secure_decompose(schema, policy, timeout_s=0)
    assert secure_decompose(schema, policy, timeout_s=60) == secure_decompose(schema, policy)


@pytest.mark.parametrize("timeout_s", [float("nan"), float("inf"), -1])
def test_a_limit_that_can_never_fire_is_refused(timeout_s, monkeypatch):
    # nan and inf would let the search run unbounded, and -1 is no limit
    # at all: each is bad input, not a timeout, as on the command line.
    instance = fixtures.cc_instance(1)
    for strategy in ("I", "II", "auto"):
        with pytest.raises(ValueError, match="timeout_s"):
            check(instance, strategy, timeout_s=timeout_s)
    # secure_decompose refuses it at entry: no graph, no chain, no memo entry.
    schema, policy = fixtures.example_schema("example1")
    chained = []
    monkeypatch.setattr(pipeline, "join_chains", lambda *args: chained.append(args))
    pipeline._base_graph.cache_clear()
    with pytest.raises(ValueError, match="timeout_s"):
        secure_decompose(schema, policy, timeout_s=timeout_s)
    assert chained == [] and pipeline._base_graph.cache_info().currsize == 0
    base, _ = pipeline._base_graph(preprocess_policy(schema, policy)[0])
    assert base.chain_families == {} and base.parent_walks == {}


def test_interleaved_schemas_match_reports_made_without_the_cache(example1, example2):
    # Two schemas taking turns evict each other from the one-entry cache;
    # repeats of one schema hit it, and its walk memo.  Every report must
    # equal one made on a cleared cache.
    calls = [example1, example2, example2, example1, example1, example2, example1]
    rng = random.Random(8)
    for _ in range(4):
        schema = random_schema(rng)
        calls += [(schema, random_policy(rng, schema))] * 2
    calls += [containment_recut_case()] * 2 + [example2]
    # Policies on one snowflake share targets, so most of their walks are
    # memo hits: in order, reversed, and taking turns with example1.
    snowflake = snowflake_schema(12)
    rng = random.Random(13)
    roles = [(snowflake, snowflake_policy(rng, snowflake, 12, 4)) for _ in range(16)]
    calls += roles + roles[::-1]
    for role in roles:
        calls += [role, example1]
    want = []
    for schema, policy in calls:
        pipeline._base_graph.cache_clear()
        want.append(secure_decompose(schema, policy))
    pipeline._base_graph.cache_clear()
    for _ in range(2):
        got = [secure_decompose(schema, policy) for schema, policy in calls]
        assert got == want
    info = pipeline._base_graph.cache_info()
    assert info.hits > 0 and info.currsize == 1


def test_each_target_is_walked_once_per_schema(monkeypatch):
    # Two roles on one schema whose forbidden sets share targets: each
    # target's ancestors are walked once, on the first call that needs it.
    schema = snowflake_schema(12)
    rng = random.Random(5)
    policies = [snowflake_policy(rng, schema, 12, 6) for _ in range(2)]
    targets = [name for policy in policies for s in policy.forbidden for name in s]
    assert len(set(targets)) < len(targets)
    pipeline._base_graph.cache_clear()
    walks = count_walks(monkeypatch)
    reports = [secure_decompose(schema, policy) for policy in policies]
    assert not any("additional co-occurrence" in w for r in reports for w in r.warnings)
    assert len(walks) == len(set(walks)) == len(set(targets))
    base, _ = pipeline._base_graph(schema)
    assert len(base.parent_walks) == len(walks)


def test_each_policy_set_is_enumerated_once_per_schema_and_limits(monkeypatch):
    # Roles on one schema whose forbidden sets recur: each distinct set is
    # enumerated once per limits, on the first call that names it, and a
    # second pass over the same roles enumerates nothing.
    schema = snowflake_schema(7)
    rng = random.Random(5)
    policies = [snowflake_policy(rng, schema, 7, 6) for _ in range(4)]
    sets = [s for policy in policies for s in policy.forbidden]
    assert len(set(sets)) < len(sets)
    pipeline._base_graph.cache_clear()
    enumerated = count_enumerations(monkeypatch)
    first = [secure_decompose(schema, policy) for policy in policies]
    assert sorted(enumerated) == sorted((s, PathLimits()) for s in set(sets))
    del enumerated[:]
    assert [secure_decompose(schema, policy) for policy in policies] == first
    assert enumerated == []
    tight = PathLimits(max_path_length=3)
    for policy in policies:
        secure_decompose(schema, policy, tight)
    assert sorted(enumerated) == sorted((s, tight) for s in set(sets))
    base, _ = pipeline._base_graph(schema)
    assert len(base.chain_families) == 2 * len(set(sets))
    assert pipeline._base_graph.cache_info().misses == 1


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_a_memo_hit_equals_a_fresh_enumeration(rng, composite):
    schema = (composite_key_schema if composite else random_schema)(rng)
    names = schema.attribute_names
    limits = rng.choice(
        [PathLimits(), PathLimits(max_paths_per_target=1), PathLimits(max_path_length=2)]
    )
    shared = build_fdg(schema)
    sets = [rng.sample(names, rng.randint(1, min(3, len(names)))) for _ in range(4)]
    sets += [rng.sample(s, len(s)) for s in sets]  # the same sets, reordered
    for targets in sets:
        hit = join_chains(shared, targets, limits)
        assert join_chains(shared, targets, limits) is hit
        assert hit == join_chains(build_fdg(schema), targets, limits)
    assert set(shared.chain_families) == {(attr_set(s), limits) for s in sets}


def test_target_order_and_duplicates_share_one_memo_entry(example1):
    fdg = build_fdg(example1[0])
    family = join_chains(fdg, ["F", "B"])
    assert join_chains(fdg, ["B", "F", "B"]) is family
    assert join_chains(fdg, ("B", "F"), PathLimits()) is family
    assert list(fdg.chain_families) == [(("B", "F"), PathLimits())]
    # Equal limits are one key, whichever instance carries them; distinct
    # limits keep distinct entries.
    tight, short = PathLimits(max_paths_per_target=1), PathLimits(max_path_length=1)
    assert join_chains(fdg, ["B", "F"], tight) is join_chains(
        fdg, ["F", "B"], PathLimits(max_paths_per_target=1)
    )
    join_chains(fdg, ["F", "B"], short)
    want = {(("B", "F"), limits) for limits in (PathLimits(), tight, short)}
    assert set(fdg.chain_families) == want


def test_an_unknown_target_raises_on_every_call_and_stores_nothing(example1):
    fdg = build_fdg(example1[0])
    for _ in range(2):
        with pytest.raises(SchemaError, match="unknown target attribute 'nope'"):
            join_chains(fdg, ["F", "nope"])
    assert fdg.chain_families == {} and fdg.parent_walks == {}


def test_truncated_report_repeats_on_a_memo_hit(example2, monkeypatch):
    # The truncation flag lives in the memoised family: a repeated call must
    # warn exactly as the first, and as a call on a cleared cache.
    schema, policy = example2
    tight = PathLimits(max_paths_per_target=1)
    pipeline._base_graph.cache_clear()
    first = secure_decompose(schema, policy, tight)
    assert any("truncated" in w for w in first.warnings)
    walks = count_walks(monkeypatch)
    enumerated = count_enumerations(monkeypatch)
    again = secure_decompose(schema, policy, PathLimits(max_paths_per_target=1))
    base, _ = pipeline._base_graph(schema)
    assert id(base.parent_edges) not in {adjacency for adjacency, _, _ in walks}
    assert enumerated == []
    assert any(family.truncated for family in base.chain_families.values())
    pipeline._base_graph.cache_clear()
    fresh = secure_decompose(schema, policy, tight)
    assert again == first == fresh


def test_idempotent_on_already_secure_schema(example2):
    schema, policy = example2
    first = secure_decompose(schema, policy)
    fragment_schema_relations = [
        (frag.name, list(frag.attrs)) for frag in first.result.fragments
    ]
    kept_fds = [
        (list(d.lhs), list(d.rhs))
        for d in decompose_fds(schema.fds)
        if any(
            set(d.lhs) | set(d.rhs) <= set(frag.attrs)
            for frag in first.result.fragments
        )
    ]
    schema2 = make_schema(fragment_schema_relations, kept_fds)
    policy2 = make_policy(
        schema2, forbidden=[list(s) for s in policy.forbidden]
    )
    second = secure_decompose(schema2, policy2)
    assert second.security_verified
    assert fragments_by_relation(second.result) == {
        name: {tuple(sorted(attrs))} for name, attrs in fragment_schema_relations
    }
    assert second.consistency.cut.edges == ()


def test_relaxed_cut_outputs_always_verify_on_random_schemas():
    rng = random.Random(4711)
    for _ in range(150):
        schema = random_schema(rng)
        policy = random_policy(rng, schema)
        report = secure_decompose(schema, policy)
        assert report.consistency.consistent
        assert report.security_verified, (schema, policy)


def test_report_json_shape(example2):
    schema, policy = example2
    doc = report_to_dict(secure_decompose(schema, policy))
    assert set(doc) == {
        "fragments",
        "new_forbidden",
        "lost_fds",
        "consistent",
        "security_verified",
        "required_verified",
        "warnings",
    }
    assert doc["security_verified"] is True
    assert {f["name"] for f in doc["fragments"]} >= {"R_11", "R_2"}
