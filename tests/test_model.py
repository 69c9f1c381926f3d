from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemacut import (
    ForeignKey,
    Policy,
    Relation,
    SchemaError,
    attr_set,
    load_schema_doc,
    make_policy,
    make_schema,
    preprocess_policy,
    validate_schema,
)
from schemacut.model import minimal_sets


def test_example1_interning(example1):
    schema, _ = example1
    assert schema.attribute_names == ("A", "B", "C", "D", "E", "F", "G", "H")
    ids = schema.attribute_ids
    assert sorted(ids.values()) == list(range(8))
    assert [n for n, _ in sorted(ids.items(), key=lambda kv: kv[1])] == sorted(ids)


def test_empty_schema_is_valid():
    schema = make_schema([], [])
    assert schema.relations == ()
    assert schema.fds == ()


def test_unknown_fd_attribute_rejected():
    with pytest.raises(SchemaError, match="unknown attribute 'Z'"):
        make_schema([("R", ["A", "E"])], [(["E"], ["Z"])])


def test_duplicate_relation_name_rejected():
    with pytest.raises(SchemaError, match="duplicate relation"):
        make_schema([("R", ["A"]), ("R", ["B"])])


def test_duplicate_attribute_in_relation_rejected():
    with pytest.raises(SchemaError, match="duplicate attribute"):
        make_schema([("R", ["A", "A"])])


def test_primary_key_must_be_subset():
    with pytest.raises(SchemaError, match="primary key"):
        make_schema([("R", ["A", "B"], ["C"])])


@pytest.mark.parametrize(
    "relations, fds, message",
    [
        ([("R", [])], [], r"^relation 'R': empty attribute set$"),
        ([("R", ["A"], [])], [], r"^relation 'R': empty primary key$"),
        ([("R", ["A", "B"])], [([], ["B"])], r"^dependency ->B: empty side$"),
        ([("R", ["A", "B"])], [(["A"], [])], r"^dependency A->: empty side$"),
    ],
    ids=["no-attributes", "no-primary-key", "no-lhs", "no-rhs"],
)
def test_empty_schema_parts_rejected(relations, fds, message):
    with pytest.raises(SchemaError, match=message):
        make_schema(relations, fds)


def test_foreign_key_checks():
    with pytest.raises(SchemaError, match="foreign key attribute"):
        make_schema([("R", ["A"], ["A"], [(["B"], "R")])])
    with pytest.raises(SchemaError, match="references unknown relation"):
        make_schema([("R", ["A"], ["A"], [(["A"], "S")])])


def test_reflexive_rhs_parts_stripped():
    schema = make_schema([("R", ["A", "B"])], [(["A"], ["A", "B"])])
    (dep,) = schema.fds
    assert dep.lhs == ("A",) and dep.rhs == ("B",)


def test_fully_reflexive_fd_dropped():
    schema = make_schema([("R", ["A", "B"])], [(["A", "B"], ["A"])])
    assert schema.fds == ()


def test_validation_is_idempotent(example1, example2):
    for schema, _ in (example1, example2):
        assert validate_schema(schema) == schema


def test_policy_unknown_attribute():
    schema = make_schema([("R", ["A", "B"])])
    with pytest.raises(SchemaError, match="unknown attribute"):
        make_policy(schema, forbidden=[["A", "Z"]])


@pytest.mark.parametrize(
    "forbidden, required, label",
    [
        ([["A", "B"]], [[]], "required"),
        ([["A", "B"], ["C"]], [[]], "required"),
        ([[]], [], "forbidden"),
    ],
    ids=["required-empty", "required-empty-beside-a-singleton", "forbidden-empty"],
)
def test_policy_empty_set_rejected(forbidden, required, label):
    schema = make_schema([("R", ["A", "B", "C"], ["A"])], [(["A"], ["B"])])
    with pytest.raises(SchemaError, match=f"^{label} set is empty$"):
        make_policy(schema, forbidden=forbidden, required=required)


@pytest.mark.parametrize(
    "policy, message",
    [
        (Policy(forbidden=(("A", "B"),), required=((),)), r"^required set is empty$"),
        (Policy(forbidden=((),)), r"^forbidden set is empty$"),
        (Policy(forbidden=(("A", "Z"),)), r"^forbidden set \['A', 'Z'\]: unknown attribute 'Z'$"),
        (Policy(required=(("Z",),)), r"^required set \['Z'\]: unknown attribute 'Z'$"),
    ],
    ids=["required-empty", "forbidden-empty", "forbidden-unknown", "required-unknown"],
)
def test_preprocess_checks_a_directly_built_policy(policy, message):
    schema = make_schema([("R", ["A", "B", "C"], ["A"])], [(["A"], ["B"])])
    with pytest.raises(SchemaError, match=message):
        preprocess_policy(schema, policy)


def test_policy_deduplicates():
    schema = make_schema([("R", ["A", "B", "C"])])
    policy = make_policy(schema, forbidden=[["C", "B"], ["B", "C"]])
    assert policy.forbidden == (("B", "C"),)


def test_preprocess_keeps_multi_attribute_sets():
    schema = make_schema([("R_k", ["A", "B", "C", "D"], ["A"])])
    policy = make_policy(schema, forbidden=[["B", "C"]])
    schema2, policy2, warnings = preprocess_policy(schema, policy)
    assert schema2 == schema
    assert policy2.forbidden == (("B", "C"),)
    assert warnings == ()


def test_preprocess_deletes_singleton_attribute():
    schema = make_schema(
        [("R_k", ["A", "B", "C", "D"], ["A"])],
        [(["A"], ["B", "C", "D"])],
    )
    policy = make_policy(schema, forbidden=[["D"]])
    schema2, policy2, warnings = preprocess_policy(schema, policy)
    assert policy2.forbidden == ()
    assert schema2.relation("R_k").attributes == ("A", "B", "C")
    assert all("D" not in dep.lhs + dep.rhs for dep in schema2.fds)
    assert len(warnings) == 1 and "'D'" in warnings[0]


def test_preprocess_cascades():
    # Hiding A drops {A, B}, which hiding A already satisfies; B is not
    # forbidden alone, so it stays and nothing cascades.
    schema = make_schema([("R", ["A", "B", "C"])])
    policy = make_policy(schema, forbidden=[["A"], ["A", "B"]])
    schema2, policy2, warnings = preprocess_policy(schema, policy)
    assert policy2.forbidden == ()
    assert schema2.relation("R").attributes == ("B", "C")
    assert len(warnings) == 1 and "'A'" in warnings[0]


def test_preprocess_drops_dependencies_whose_lhs_is_hidden():
    # XA -> B says nothing about A alone: hiding X must not leave A -> B.
    schema = make_schema(
        [("R", ["X", "A", "B"], ["X", "A"]), ("S", ["A", "C", "Y"], ["A"])],
        [(["X", "A"], ["B"]), (["A"], ["C", "Y"])],
    )
    policy = make_policy(schema, forbidden=[["X"], ["Y"], ["B", "C"], ["B", "Y"]])
    schema2, policy2, _ = preprocess_policy(schema, policy)
    assert [str(dep) for dep in schema2.fds] == ["A->C"]
    assert schema2.relation("R").primary_key == ("A",)
    assert policy2.forbidden == (("B", "C"),)


def test_preprocess_drops_foreign_keys_that_lose_their_attributes_or_target():
    # Hiding p empties C's foreign key; hiding h empties H, so K's foreign
    # key dangles.  D's foreign key keeps x, and P keeps x as its key.
    schema = make_schema(
        [
            ("P", ["p", "x"], ["p"]),
            ("C", ["c", "p", "y"], ["c"], [(["p"], "P")]),
            ("D", ["d", "x"], ["d"], [(["x"], "P")]),
            ("H", ["h"], ["h"]),
            ("K", ["k", "h"], ["k"], [(["h"], "H")]),
        ],
        [(["p"], ["x"]), (["c"], ["p", "y"])],
    )
    policy = make_policy(schema, forbidden=[["p"], ["h"]])
    schema2, policy2, _ = preprocess_policy(schema, policy)
    assert schema2.relations == (
        Relation("C", ("c", "y"), ("c",)),
        Relation("D", ("d", "x"), ("d",), (ForeignKey(("x",), "P"),)),
        Relation("K", ("k",), ("k",)),
        Relation("P", ("x",), ("x",)),
    )
    assert policy2 == Policy()


def test_preprocess_warns_for_a_required_set_naming_a_hidden_attribute():
    schema = make_schema([("R", ["X", "Y", "Z"])])
    policy = make_policy(schema, forbidden=[["X"], ["Y"]], required=[["X", "Z"], ["X", "Y"]])
    schema2, policy2, warnings = preprocess_policy(schema, policy)
    assert schema2.attribute_names == ("Z",)
    assert policy2.required == (("Z",),)
    assert warnings[2:] == (
        "required set {X, Y} names a removed attribute: it is dropped",
        "required set {X, Z} names a removed attribute: only {Z} is checked",
    )


def test_preprocess_is_idempotent():
    schema = make_schema([("R", ["A", "B", "C", "D"], ["A"])], [(["A"], ["B"])])
    policy = make_policy(schema, forbidden=[["D"], ["B", "C"]])
    once = preprocess_policy(schema, policy)
    twice = preprocess_policy(once[0], once[1])
    assert twice[0] == once[0]
    assert twice[1] == once[1]
    assert twice[2] == ()


def test_preprocess_minimum_set_size_invariant():
    schema = make_schema([("R", ["A", "B", "C", "D", "E"])])
    policy = make_policy(schema, forbidden=[["A"], ["B"], ["C", "D"], ["A", "E"]])
    _, policy2, _ = preprocess_policy(schema, policy)
    assert all(len(s) >= 2 for s in policy2.forbidden)


def test_json_document_roundtrip(example2):
    schema, policy = example2
    assert schema.relation("R_5").attributes == ("H", "J", "M", "R")
    assert policy.forbidden == (("A", "D"), ("D", "F"), ("H", "K"))


def test_json_unknown_keys_rejected():
    doc = {"relations": [], "fds": [], "bogus": 1}
    with pytest.raises(SchemaError, match="unknown key 'bogus'"):
        load_schema_doc(doc)
    doc = {
        "relations": [{"name": "R", "attributes": ["A"], "primary_key": ["A"], "pk": []}],
        "fds": [],
    }
    with pytest.raises(SchemaError, match="unknown key 'pk'"):
        load_schema_doc(doc)


def test_json_missing_keys_rejected():
    with pytest.raises(SchemaError, match="missing"):
        load_schema_doc({"relations": [{"name": "R", "attributes": ["A"]}], "fds": []})


def relation_doc(**fields):
    rel = {"name": "R", "attributes": ["A", "B"], "primary_key": ["A"], **fields}
    return {"relations": [rel], "fds": []}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"relations": 5, "fds": []}, r"^relations: must be a list$"),
        ({"relations": [], "fds": {"lhs": ["A"]}}, r"^fds: must be a list$"),
        (relation_doc(attributes=5), r"^relations\[0\]\.attributes: must be a list of strings$"),
        (relation_doc(primary_key="A"), r"^relations\[0\]\.primary_key: must be a list"),
        (relation_doc(name=7), r"^relations\[0\]\.name: must be a non-empty string$"),
        (relation_doc(name=""), r"^relations\[0\]\.name: must be a non-empty string$"),
        (
            relation_doc(foreign_keys=[{"attributes": ["B"], "references": ["R"]}]),
            r"^relations\[0\]\.foreign_keys\[0\]\.references: must be a string$",
        ),
        (
            {"relations": [], "fds": [{"lhs": ["A"], "rhs": [["B"]]}]},
            r"^fds\[0\]\.rhs: must be a list of strings$",
        ),
        (
            {**relation_doc(), "policy": {"forbidden": [["A", 3]]}},
            r"^policy\.forbidden\[0\]: must be a list of strings$",
        ),
        ({**relation_doc(), "policy": {"required": "AB"}}, r"^policy\.required: must be a list$"),
        ({**relation_doc(), "policy": []}, r"^policy: must be an object$"),
        ([], r"^document: must be an object$"),
        ({"fds": []}, r"^document: missing 'relations' or 'fds'$"),
        ({"relations": []}, r"^document: missing 'relations' or 'fds'$"),
        (
            relation_doc(foreign_keys=[{"references": "R"}]),
            r"^relations\[0\]\.foreign_keys\[0\]: missing 'attributes' or 'references'$",
        ),
        (
            relation_doc(foreign_keys=[{"attributes": ["B"]}]),
            r"^relations\[0\]\.foreign_keys\[0\]: missing 'attributes' or 'references'$",
        ),
        ({"relations": [], "fds": [{"rhs": ["B"]}]}, r"^fds\[0\]: missing 'lhs' or 'rhs'$"),
        ({"relations": [], "fds": [{"lhs": ["A"]}]}, r"^fds\[0\]: missing 'lhs' or 'rhs'$"),
    ],
    ids=[
        "relations-not-a-list",
        "fds-not-a-list",
        "attributes-not-a-list",
        "primary-key-a-string",
        "name-not-a-string",
        "name-empty",
        "references-not-a-string",
        "rhs-holds-a-list",
        "forbidden-set-holds-a-number",
        "required-a-string",
        "policy-not-an-object",
        "document-not-an-object",
        "relations-missing",
        "fds-missing",
        "foreign-key-attributes-missing",
        "foreign-key-references-missing",
        "lhs-missing",
        "rhs-missing",
    ],
)
def test_json_badly_shaped_documents_name_the_field(doc, message):
    with pytest.raises(SchemaError, match=message):
        load_schema_doc(doc)


def test_attr_set_checks_names_before_sorting():
    with pytest.raises(SchemaError, match="got 3"):
        attr_set(["A", 3])


def test_json_policy_optional():
    schema, policy = load_schema_doc({"relations": [], "fds": []})
    assert policy == Policy()


def all_pairs_minimal(sets):
    """Reference: the all-pairs superset filter that ``minimal_sets`` replaced."""
    kept = []
    for s in sets:
        if not any(o < s for o in sets) and s not in kept:
            kept.append(s)
    return kept


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=12))
@example([frozenset({1}), frozenset({1, 2}), frozenset({1})])
@example([frozenset({1, 2}), frozenset(), frozenset({3}), frozenset()])
@example([frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}), frozenset({1, 2, 3})])
def test_minimal_sets_matches_all_pairs_filter(sets):
    assert minimal_sets(sets) == all_pairs_minimal(sets)
