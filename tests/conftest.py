from __future__ import annotations

import random

import pytest

from schemacut import (
    Fragment,
    Policy,
    Schema,
    attr_set,
    build_fdg,
    fixtures,
    make_policy,
    make_schema,
)
from schemacut import joinchain


@pytest.fixture(scope="session")
def example0() -> tuple[Schema, Policy]:
    return fixtures.example_schema("example0")


@pytest.fixture(scope="session")
def example1() -> tuple[Schema, Policy]:
    return fixtures.example_schema("example1")


@pytest.fixture(scope="session")
def example2() -> tuple[Schema, Policy]:
    return fixtures.example_schema("example2")


@pytest.fixture(scope="session")
def ex1_fdg(example1):
    return build_fdg(example1[0])


@pytest.fixture(scope="session")
def ex2_fdg(example2):
    return build_fdg(example2[0])


def random_schema(rng: random.Random, max_attrs: int = 12, max_relations: int = 4):
    """Small random schema with single-attribute dependency sources.

    Mirrors the shape of the bundled examples: every relation gets a key
    attribute determining the rest, plus occasional cross-relation bridge
    relations sharing attributes.
    """
    n_attrs = rng.randint(2, max_attrs)
    attrs = [f"a{i}" for i in range(n_attrs)]
    n_rel = rng.randint(1, max_relations)
    relations = []
    fds = []
    for r in range(n_rel):
        width = rng.randint(1, min(4, n_attrs))
        members = rng.sample(attrs, width)
        key = members[0]
        relations.append((f"R{r}", members, [key]))
        for other in members[1:]:
            if rng.random() < 0.8:
                fds.append(([key], [other]))
    return make_schema(relations, fds)


def composite_key_schema(rng: random.Random, max_attrs: int = 10, max_relations: int = 4):
    """Small random schema whose keys have one or two attributes.

    Shaped like ``random_schema``, but a two-attribute key gives
    dependencies a composite left-hand side, so an association can need
    several dependencies at once (the union rule).
    """
    n_attrs = rng.randint(3, max_attrs)
    attrs = [f"a{i}" for i in range(n_attrs)]
    relations = []
    fds = []
    for r in range(rng.randint(1, max_relations)):
        members = rng.sample(attrs, rng.randint(2, min(4, n_attrs)))
        key = members[:rng.randint(1, min(2, len(members)))]
        relations.append((f"R{r}", members, key))
        for other in members[len(key):]:
            if rng.random() < 0.8:
                fds.append((key, [other]))
    return make_schema(relations, fds)


def random_fragments(rng: random.Random, schema: Schema) -> list[Fragment]:
    """Two random, possibly overlapping, non-empty parts of every relation."""
    fragments = []
    for rel in schema.relations:
        for part in (1, 2):
            attrs = rng.sample(rel.attributes, rng.randint(1, len(rel.attributes)))
            fragments.append(Fragment(rel.name, attr_set(attrs), part))
    return fragments


def union_rule_doc() -> dict:
    """R1(A,B), R2(A,C), R3(B,C,D) with A -> B, A -> C, BC -> D; {A, D} forbidden.

    Joining the three relations on their keys associates A with D, yet no
    join chain of the dependency graph does: the composite vertex BC is
    reached only by containment, never from the parts that determine it.
    """
    return {
        "relations": [
            {"name": "R1", "attributes": ["A", "B"], "primary_key": ["A"]},
            {"name": "R2", "attributes": ["A", "C"], "primary_key": ["A"]},
            {"name": "R3", "attributes": ["B", "C", "D"], "primary_key": ["B", "C"]},
        ],
        "fds": [
            {"lhs": ["A"], "rhs": ["B"]},
            {"lhs": ["A"], "rhs": ["C"]},
            {"lhs": ["B", "C"], "rhs": ["D"]},
        ],
        "policy": {"forbidden": [["A", "D"]], "required": []},
    }


def fd_chain_schema(steps: int):
    """An FD chain a0 -> a1 -> ... -> a<steps>.

    Relations hold 24 consecutive attributes (the default width bound),
    neighbours sharing one, which keeps the graph near one vertex per step.
    """
    width = 24
    attrs = [f"a{i}" for i in range(steps + 1)]
    relations = [
        (f"R{j}", attrs[start:start + width], [attrs[start]])
        for j, start in enumerate(range(0, steps, width - 1))
    ]
    fds = [([attrs[i]], [attrs[i + 1]]) for i in range(steps)]
    return make_schema(relations, fds)


def random_policy(rng: random.Random, schema: Schema, max_sets: int = 3):
    pool = list(schema.attribute_names)
    sets = []
    for _ in range(rng.randint(1, max_sets)):
        if len(pool) < 2:
            break
        size = rng.randint(2, min(3, len(pool)))
        sets.append(rng.sample(pool, size))
    return make_policy(schema, forbidden=sets)


def snowflake_schema(entities: int):
    """Entity i: key k_i determining a_i, b_i, c_i and its parent's key.

    Entity i's parent is entity (i - 1) // 2, so the keys form a binary tree
    rooted at k_0 and every attribute's ancestors run up one tree line.
    """
    relations, fds = [], []
    for i in range(entities):
        key = f"k_{i}"
        rest = [f"a_{i}", f"b_{i}", f"c_{i}"] + ([f"k_{(i - 1) // 2}"] if i else [])
        relations.append((f"E_{i}", [key, *rest], [key]))
        fds.append(([key], rest))
    return make_schema(relations, fds)


def snowflake_policy(rng: random.Random, schema: Schema, entities: int, pairs: int):
    """Forbidden pairs {x_i, y_j}, j a proper ancestor of entity i, so every
    pair is joinable and policies drawn on one schema share targets."""
    chosen: set[tuple[str, str]] = set()
    while len(chosen) < pairs:
        i = rng.randrange(1, entities)
        line, j = [], i
        while j:
            j = (j - 1) // 2
            line.append(j)
        j = rng.choice(line)
        pair = (f"{rng.choice('abc')}_{i}", f"{rng.choice('abc')}_{j}")
        chosen.add(tuple(sorted(pair)))
    return make_policy(schema, forbidden=sorted(chosen))


def count_walks(monkeypatch) -> list:
    """Record every ``walk_simple_paths`` call as (id(adjacency), start, limits)."""
    walks = []
    walk = joinchain.walk_simple_paths

    def counted(adjacency, start, limits):
        walks.append((id(adjacency), start, limits))
        return walk(adjacency, start, limits)

    monkeypatch.setattr(joinchain, "walk_simple_paths", counted)
    return walks
