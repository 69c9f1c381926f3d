from __future__ import annotations

import itertools
import json
import random
import re
import sqlite3
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemacut import (
    DecomposedSchema,
    Fragment,
    FunctionalDependency,
    Relation,
    SchemaError,
    fixtures,
    make_policy,
    make_schema,
    secure_decompose,
    WidthBoundExceeded,
    attr_set,
    decompose_fds,
    decompose_relation,
    decomposition_from_dict,
    decomposition_to_dict,
    dependency_loss,
    minimal_hitting_sets,
    sql_views,
    strong_cut_decompose,
)

from .goldens import EX0_STRONG_FRAGMENTS, EX2_STRONG_FRAGMENTS, V

R1 = Relation("R_1", attr_set("ABCD"), attr_set("A"))


def frag_sets(fragments):
    return {f.attrs for f in fragments}


def powerset_oracle(attrs, forbidden):
    """Literal elimination over the full power set, then maximal survivors."""
    survivors = []
    for size in range(len(attrs) + 1):
        for subset in itertools.combinations(sorted(attrs), size):
            if not any(set(f) <= set(subset) for f in forbidden if f):
                survivors.append(set(subset))
    return {
        attr_set(s)
        for s in survivors
        if not any(s < other for other in survivors)
    }


def test_walkthrough_fragments():
    forbidden = [V("BD"), V("AD"), V("AB"), V("ABCD")]
    frags = decompose_relation(R1, forbidden)
    assert frag_sets(frags) == {V("AC"), V("BC"), V("CD")}
    assert [f.name for f in frags] == ["R_11", "R_12", "R_13"]


def test_untouched_relation_keeps_name():
    rel = Relation("R_5", attr_set("MHRJ"), attr_set("M"))
    forbidden = [V("BD"), V("AD"), V("AB"), V("ABCD"), V("JK")]
    (frag,) = decompose_relation(rel, forbidden)
    assert frag.attrs == rel.attributes
    assert frag.name == "R_5"


def test_no_forbidden_sets_means_identity():
    (frag,) = decompose_relation(R1, [])
    assert frag.attrs == R1.attributes


def test_empty_forbidden_set_rejected():
    with pytest.raises(Exception, match="empty"):
        decompose_relation(R1, [()])


def test_width_bound_refusal():
    wide = Relation("W", attr_set("".join(chr(65 + i) for i in range(25))), ("A",))
    with pytest.raises(WidthBoundExceeded):
        decompose_relation(wide, [V("AB")])


def test_width_bound_spares_a_relation_with_nothing_to_split():
    # W is wider than the bound, but no forbidden set lies inside it.
    schema = make_schema(
        [("W", [f"w{i}" for i in range(30)], ["w0"]), ("R", ["A", "B", "C"], ["A"])],
        [(["A"], ["B"]), (["A"], ["C"])],
    )
    policy = make_policy(schema, forbidden=[["B", "C"]])
    report = secure_decompose(schema, policy)
    strong = strong_cut_decompose(schema, policy.forbidden)
    for fragments in (report.result.fragments, strong.fragments):
        assert [f.name for f in fragments if f.source_relation == "W"] == ["W"]
        assert len([f for f in fragments if f.source_relation == "R"]) > 1
    assert report.security_verified


def test_fragment_maximality_and_security():
    forbidden = [V("BD"), V("AD"), V("AB"), V("ABCD")]
    frags = decompose_relation(R1, forbidden)
    for frag in frags:
        assert not any(set(f) <= set(frag.attrs) for f in forbidden)
        for extra in set(R1.attributes) - set(frag.attrs):
            grown = set(frag.attrs) | {extra}
            assert any(set(f) <= grown for f in forbidden)


def test_fragments_form_antichain_and_cover():
    forbidden = [V("BD"), V("AD")]
    frags = decompose_relation(R1, forbidden)
    for a, b in itertools.permutations(frags, 2):
        assert not set(a.attrs) <= set(b.attrs)
    assert set().union(*(f.attrs for f in frags)) == set(R1.attributes)


def test_matches_powerset_oracle_on_random_cases():
    rng = random.Random(13)
    for _ in range(250):
        width = rng.randint(1, 7)
        attrs = [f"a{i}" for i in range(width)]
        rel = Relation("R", attr_set(attrs), (attrs[0],))
        forbidden = [
            attr_set(rng.sample(attrs, rng.randint(1, min(3, width))))
            for _ in range(rng.randint(0, 4))
        ]
        got = frag_sets(decompose_relation(rel, forbidden))
        assert got == powerset_oracle(attrs, forbidden)


def test_minimal_hitting_sets_basic():
    sets = [frozenset("ab"), frozenset("bc")]
    hits = {frozenset(h) for h in minimal_hitting_sets(sets)}
    assert hits == {frozenset("b"), frozenset("ac")}


def test_strong_cut_single_relation(example0):
    schema, policy = example0
    result = strong_cut_decompose(schema, policy.forbidden)
    assert frag_sets(result.fragments) == EX0_STRONG_FRAGMENTS
    assert [f.name for f in result.fragments] == ["R_k1", "R_k2", "R_k3"]


def test_strong_cut_example2(example2):
    schema, policy = example2
    result = strong_cut_decompose(schema, policy.forbidden)
    per_relation = {}
    for frag in result.fragments:
        per_relation.setdefault(frag.source_relation, set()).add(frag.attrs)
    assert per_relation == EX2_STRONG_FRAGMENTS


def test_strong_cut_empty_policy(example2):
    schema, _ = example2
    result = strong_cut_decompose(schema, [])
    assert frag_sets(result.fragments) == {r.attributes for r in schema.relations}


def test_strong_cut_eliminates_identifier_pairs(example0):
    schema, policy = example0
    result = strong_cut_decompose(schema, policy.forbidden)
    # No fragment may hold B or C together with the key that derives them.
    for frag in result.fragments:
        fs = set(frag.attrs)
        assert not {"A", "B"} <= fs
        assert not {"A", "C"} <= fs
        assert not {"B", "C"} <= fs


def strong_cut_powerset_oracle(schema, forbidden):
    from schemacut import candidate_sets, identifiers_of

    dfds = decompose_fds(schema.fds)
    candidates = candidate_sets(schema)
    out = {}
    for rel in schema.relations:
        survivors = []
        for size in range(len(rel.attributes) + 1):
            for subset in itertools.combinations(rel.attributes, size):
                ss = set(subset)
                if any(set(f) <= ss for f in forbidden):
                    continue
                bad = False
                for f in forbidden:
                    for a in f:
                        if a not in ss:
                            continue
                        for ident in identifiers_of(a, dfds, candidates):
                            if set(ident) <= ss:
                                bad = True
                if not bad:
                    survivors.append(ss)
        out[rel.name] = {
            attr_set(s) for s in survivors if not any(s < o for o in survivors)
        }
    return out


def test_strong_cut_matches_powerset_oracle(example0, example2):
    for schema, policy in (example0, example2):
        result = strong_cut_decompose(schema, policy.forbidden)
        per_relation = {rel.name: set() for rel in schema.relations}
        for frag in result.fragments:
            per_relation[frag.source_relation].add(frag.attrs)
        assert per_relation == strong_cut_powerset_oracle(schema, policy.forbidden)


def test_dependency_loss_weak_cut(example0):
    # Fragments {A,C,D} and {B,D} keep A->C and A->D; only A->B is lost.
    schema, _ = example0
    dfds = decompose_fds(schema.fds)
    from schemacut import Fragment, DecomposedSchema

    result = DecomposedSchema(
        (Fragment("R_k", V("ACD"), 1), Fragment("R_k", V("BD"), 2)), (), ()
    )
    assert dependency_loss(schema, result, dfds) == 1


def test_dependency_loss_strong_cut(example0):
    # Fragments {A,D},{B,D},{C,D} keep only A->D; A->B and A->C are lost.
    schema, policy = example0
    dfds = decompose_fds(schema.fds)
    result = strong_cut_decompose(schema, policy.forbidden)
    assert dependency_loss(schema, result, dfds) == 2
    assert {str(d) for d in result.lost_dependencies} == {"A->B", "A->C"}


def test_dependency_loss_zero_when_unchanged(example2):
    schema, _ = example2
    dfds = decompose_fds(schema.fds)
    result = strong_cut_decompose(schema, [])
    assert dependency_loss(schema, result, dfds) == 0


def test_serialisation_roundtrip(example2):
    schema, policy = example2
    result = strong_cut_decompose(schema, policy.forbidden)
    doc = decomposition_to_dict(result)
    assert decomposition_from_dict(doc) == result


@pytest.mark.parametrize("name", ["X5", "R0", "R-1", "R01", "R+1", "R1 ", "R\uff11", "RR1"])
def test_decomposition_from_dict_rejects_names_not_its_source_and_a_number(name):
    doc = {
        "fragments": [
            {"name": "R1", "source": "R", "attributes": ["A"]},
            {"name": name, "source": "R", "attributes": ["B"]},
        ],
        "new_forbidden": [],
        "lost_fds": [],
    }
    with pytest.raises(SchemaError, match=rf"^fragments\[1\]: name {re.escape(repr(name))} "):
        decomposition_from_dict(doc)


def loadable_doc() -> dict:
    return {
        "fragments": [{"name": "R1", "source": "R", "attributes": ["A", "B"]}],
        "new_forbidden": [["A", "C"]],
        "lost_fds": [{"lhs": ["A"], "rhs": ["C"]}],
    }


def test_decomposition_from_dict_reads_a_written_document():
    assert decomposition_from_dict(loadable_doc()) == DecomposedSchema(
        (Fragment("R", ("A", "B"), 1),),
        (("A", "C"),),
        (FunctionalDependency(("A",), ("C",)),),
    )


def _without(path):
    doc = loadable_doc()
    *outer, key = path
    target = doc
    for step in outer:
        target = target[step]
    del target[key]
    return doc


@pytest.mark.parametrize(
    "path, message",
    [
        (("fragments",), "document: missing 'fragments'"),
        (("new_forbidden",), "document: missing 'new_forbidden'"),
        (("lost_fds",), "document: missing 'lost_fds'"),
        (("fragments", 0, "source"), "fragments[0]: missing 'source'"),
        (("fragments", 0, "name"), "fragments[0]: missing 'name'"),
        (("fragments", 0, "attributes"), "fragments[0]: missing 'attributes'"),
    ],
)
def test_decomposition_from_dict_names_a_missing_key(path, message):
    with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
        decomposition_from_dict(_without(path))


def _with_fragment(**fields):
    doc = loadable_doc()
    doc["fragments"][0].update(fields)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with_fragment(name=7), "fragments[0].name: must be a string"),
        (_with_fragment(source=None), "fragments[0].source: must be a string"),
        ([loadable_doc()], "document: must be an object"),
    ],
    ids=["name-a-number", "source-null", "document-a-list"],
)
def test_decomposition_from_dict_refuses_a_value_of_the_wrong_type(doc, message):
    with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
        decomposition_from_dict(doc)


def test_decomposition_from_dict_refuses_a_string_of_attributes():
    # A string is a sequence of names only by accident: "AB" is not A and B.
    doc = loadable_doc()
    doc["fragments"][0]["attributes"] = "AB"
    with pytest.raises(SchemaError, match=r"^fragments\[0\]\.attributes: must be a list of strings$"):
        decomposition_from_dict(doc)


def test_sql_views(example0):
    schema, policy = example0
    result = strong_cut_decompose(schema, policy.forbidden)
    text = sql_views(result)
    assert "CREATE VIEW R_k1 AS SELECT A, D FROM R_k;" in text
    assert text.count("CREATE VIEW") == 3


def run_views(schema, result):
    """Run ``sql_views(result)`` in SQLite against empty base tables of
    ``schema``; return each view's (name, columns) in creation order."""

    def quote(name):
        return '"' + name.replace('"', '""') + '"'

    db = sqlite3.connect(":memory:")
    try:
        for rel in schema.relations:
            db.execute(f"CREATE TABLE {quote(rel.name)} ({', '.join(map(quote, rel.attributes))})")
        db.executescript(sql_views(result, [rel.name for rel in schema.relations]))
        views = [
            name for (name,) in
            db.execute("SELECT name FROM sqlite_master WHERE type = 'view' ORDER BY rowid")
        ]
        return [
            (name, tuple(row[1] for row in db.execute(f"PRAGMA table_info({quote(name)})")))
            for name in views
        ]
    finally:
        db.close()


@pytest.mark.parametrize("name", fixtures.EXAMPLE_NAMES)
def test_sql_views_run_against_the_base_tables(name):
    # An unsplit relation's fragment keeps the relation's name, which its
    # base table already has: that view, and only that one, is renamed.
    schema, policy = fixtures.example_schema(name)
    result = secure_decompose(schema, policy).result
    views = run_views(schema, result)
    assert [columns for _, columns in views] == [f.attrs for f in result.fragments]
    tables = {rel.name for rel in schema.relations}
    for (view, _), frag in zip(views, result.fragments):
        assert view == (frag.name + "_view" if frag.name in tables else frag.name)


def test_sql_views_quote_and_rename_awkward_names():
    # R_1's first fragment is named R_11, like a base table, and SQLite
    # reads r_11_VIEW as R_11_view; "order" and "group" are keywords; the
    # other names need quotes to parse at all.
    schema = make_schema(
        [
            ("R_1", ["A", "B"], ["A"]),
            ("R_11", ["A", "C"], ["A"]),
            ("order", ["group", 'say "hi"', "x y"]),
            ("r_11_VIEW", ["C"]),
        ],
        [(["A"], ["B"]), (["A"], ["C"])],
    )
    result = secure_decompose(schema, make_policy(schema, forbidden=[["A", "B"]])).result
    views = run_views(schema, result)
    assert [name for name, _ in views] == [
        "R_11_view2", "R_12", "R_11_view3", "order_view", "r_11_VIEW_view"
    ]
    assert views[3] == ("order_view", ("group", 'say "hi"', "x y"))
    text = sql_views(result)
    assert 'CREATE VIEW order_view AS SELECT "group", "say ""hi""", "x y" FROM "order";' in text


def test_sql_views_fold_only_ascii_letters():
    # SQLite holds a view "É1" beside a table "é1": only the unsplit
    # relation's view, whose name its own table has, is renamed.
    schema = make_schema([("É", ["A", "B"], ["A"]), ("é1", ["C"])], [(["A"], ["B"])])
    result = secure_decompose(schema, make_policy(schema, forbidden=[["A", "B"]])).result
    assert [f.name for f in result.fragments] == ["É1", "É2", "é1"]
    views = run_views(schema, result)
    assert [name for name, _ in views] == ["É1", "É2", "é1_view"]


# Names SQLite must quote (spaces, quotes, keywords, non-ASCII) or reads
# without case (ASCII letters only).  None starts with "sqlite_", a prefix
# SQLite reserves.
ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
AWKWARD_NAMES = st.one_of(
    st.sampled_from(["R_1", "order", "Group", "select", "x y", 'say "hi"', "it's", "café", "名前"]),
    st.text(alphabet="aR_1 \"'é", min_size=1, max_size=4),
)


@st.composite
def awkward_schemas(draw):
    """A schema and policy over awkward names.  Each relation ``n`` may come
    with a relation named like one of its fragments or their renamed views:
    ``n1`` in either case, ``n1_view``.  Table names, and attribute names,
    differ ignoring case: SQLite cannot hold two tables (or columns of one
    table) whose names differ only in case, so such inputs are out of scope.
    """
    attrs = draw(st.lists(AWKWARD_NAMES, min_size=2, max_size=6, unique_by=str.lower))
    names = draw(st.lists(AWKWARD_NAMES, min_size=1, max_size=3, unique_by=str.lower))
    for base in list(names):
        twin = draw(st.sampled_from([None, base + "1", (base + "1").swapcase(), base + "1_view"]))
        if twin is not None and twin.lower() not in {n.lower() for n in names}:
            names.append(twin)
    relations, fds = [], []
    for name in names:
        members = draw(st.lists(st.sampled_from(attrs), min_size=1, max_size=4, unique=True))
        relations.append((name, members, members[:1]))
        fds.extend(([members[0]], [other]) for other in members[1:] if draw(st.booleans()))
    schema = make_schema(relations, fds)
    used = st.sampled_from(schema.attribute_names)
    forbidden = draw(st.lists(st.lists(used, min_size=1, max_size=3, unique=True), max_size=3))
    return schema, make_policy(schema, forbidden=forbidden)


@settings(max_examples=150, deadline=None)
@given(awkward_schemas())
def test_sql_views_run_for_any_valid_names(case):
    schema, policy = case
    result = secure_decompose(schema, policy).result
    views = run_views(schema, result)
    assert [columns for _, columns in views] == [f.attrs for f in result.fragments]
    created = [rel.name for rel in schema.relations] + [v for v, _ in views]
    folded = [name.translate(ASCII_LOWER) for name in created]
    assert len(set(folded)) == len(folded)
    doc = json.loads(json.dumps(decomposition_to_dict(result)))
    assert decomposition_from_dict(doc) == result
