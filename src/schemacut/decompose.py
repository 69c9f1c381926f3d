"""Decomposition stage: maximal fragments avoiding forbidden co-occurrence.

Fragments are computed as complements of inclusion-minimal hitting sets of
the forbidden sets that fit inside the relation, which matches literal
power-set elimination without materialising the power set.  The module
also carries the older strong-cut baseline, which additionally severs
every forbidden attribute from each of its identifiers.  ``held_and_lost``
alone decides which fragments hold each dependency whole, from membership
masks of the fragments and their relations, once per pipeline round.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .closure import DecomposedFdSet, closure_masks, decompose_fds, holders, identifiers_of
from .model import (
    AttributeSet,
    FunctionalDependency,
    Relation,
    Schema,
    SchemaError,
    attr_set,
    minimal_sets,
)

DEFAULT_MAX_WIDTH = 24


class WidthBoundExceeded(ValueError):
    """Relation wider than the configured decomposition bound."""


@dataclass(frozen=True)
class Fragment:
    source_relation: str
    attrs: AttributeSet
    suffix: int  # 0 means the fragment is the whole relation, keeping its name

    @property
    def name(self) -> str:
        if self.suffix == 0:
            return self.source_relation
        return f"{self.source_relation}{self.suffix}"


@dataclass(frozen=True)
class DecomposedSchema:
    fragments: tuple[Fragment, ...]
    new_forbidden: tuple[AttributeSet, ...]
    lost_dependencies: tuple[FunctionalDependency, ...]


def minimal_hitting_sets(sets: Sequence[frozenset]) -> list[frozenset]:
    """All inclusion-minimal hitting sets of ``sets`` (each must be non-empty)."""
    hits: list[frozenset] = [frozenset()]
    for target in sets:
        if not target:
            raise ValueError("cannot hit an empty set")
        extended: list[frozenset] = []
        for h in hits:
            if h & target:
                extended.append(h)
            else:
                extended.extend(h | {e} for e in sorted(target))
        hits = minimal_sets(extended)
    return hits


def decompose_relation(
    relation: Relation,
    forbidden: Sequence[AttributeSet],
    max_width: int = DEFAULT_MAX_WIDTH,
) -> list[Fragment]:
    """Maximal subsets of the relation containing no forbidden set entirely.

    ``max_width`` bounds only a relation that must be split: one that holds
    no forbidden set is returned whole at any width.
    """
    for f in forbidden:
        if not f:
            raise SchemaError("empty forbidden set")
    held = set(relation.attributes)
    elim = minimal_sets(frozenset(f) for f in forbidden if held.issuperset(f))
    if not elim:
        return [Fragment(relation.name, relation.attributes, 0)]
    if len(relation.attributes) > max_width:
        raise WidthBoundExceeded(
            f"relation {relation.name!r} has {len(relation.attributes)} attributes, "
            f"bound is {max_width}"
        )
    survivors = sorted(attr_set(held - h) for h in minimal_hitting_sets(elim))
    return [
        Fragment(relation.name, attrs, i) for i, attrs in enumerate(survivors, start=1)
    ]


def held_and_lost(
    schema: Schema, fragments: Sequence[Fragment], dfds: DecomposedFdSet
) -> tuple[tuple[FunctionalDependency, ...], tuple[FunctionalDependency, ...]]:
    """The dependencies of ``dfds`` some fragment holds whole (held), and those
    some relation holds whole but none of its fragments does (lost)."""
    frag_masks = closure_masks([frag.attrs for frag in fragments], ())
    rel_masks = closure_masks([rel.attributes for rel in schema.relations], ())
    by_name = closure_masks([(frag.source_relation,) for frag in fragments], ())
    own = [by_name.get(rel.name, 0) for rel in schema.relations]  # each relation's fragments
    held, lost = [], []
    for dep in dfds:
        attrs = dep.lhs + dep.rhs
        kept = holders(frag_masks, attrs)
        if kept:
            held.append(dep)
        found = holders(rel_masks, attrs)
        # Skip the relations whose fragments keep it (set_bits inlined: hot loop).
        while found and kept & own[(found & -found).bit_length() - 1]:
            found &= found - 1
        if found:
            lost.append(dep)
    return tuple(held), tuple(lost)


def strong_cut_decompose(
    schema: Schema,
    forbidden: Sequence[AttributeSet],
    max_width: int = DEFAULT_MAX_WIDTH,
) -> DecomposedSchema:
    """Baseline decomposition that severs forbidden attributes from identifiers.

    Per relation, a subset dies if it contains a whole forbidden set, or a
    forbidden-set attribute together with one of its identifiers (restricted
    to candidate sets inside the relation).  Maximal survivors remain.
    """
    dfds = decompose_fds(schema.fds)
    candidates = candidate_sets(schema)
    forbidden_attrs = sorted({a for f in forbidden for a in f})
    ident_cache = {
        a: identifiers_of(a, dfds, candidates) for a in forbidden_attrs
    }

    fragments: list[Fragment] = []
    elim_sets: list[AttributeSet] = [attr_set(f) for f in forbidden]
    seen_elims: set[AttributeSet] = set(elim_sets)
    for rel in schema.relations:
        rel_attrs = set(rel.attributes)
        elim = list(forbidden)
        for a in forbidden_attrs:
            if a not in rel_attrs:
                continue
            for ident in ident_cache[a]:
                if rel_attrs.issuperset(ident):
                    merged = attr_set(ident + (a,))
                    elim.append(merged)
                    if merged not in seen_elims:
                        seen_elims.add(merged)
                        elim_sets.append(merged)
        fragments.extend(decompose_relation(rel, elim, max_width))

    frags = tuple(fragments)
    return DecomposedSchema(frags, tuple(elim_sets), held_and_lost(schema, frags, dfds)[1])


def candidate_sets(schema: Schema) -> tuple[AttributeSet, ...]:
    """Identifier candidates: single attributes, declared lhs sets, relation sets."""
    out = {(a,) for a in schema.attribute_names}
    for dep in schema.fds:
        out.add(dep.lhs)
    for rel in schema.relations:
        out.add(rel.attributes)
    return tuple(sorted(out))


def dependency_loss(
    schema: Schema, result: DecomposedSchema, fds: DecomposedFdSet
) -> int:
    """Count decomposed dependencies co-located in some original relation
    but in none of that relation's fragments."""
    return len(held_and_lost(schema, result.fragments, fds)[1])


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def decomposition_to_dict(result: DecomposedSchema) -> dict:
    return {
        "fragments": [
            {"name": f.name, "source": f.source_relation, "attributes": list(f.attrs)}
            for f in result.fragments
        ],
        "new_forbidden": [list(s) for s in result.new_forbidden],
        "lost_fds": [
            {"lhs": list(d.lhs), "rhs": list(d.rhs)} for d in result.lost_dependencies
        ],
    }


def decomposition_from_dict(doc: Mapping) -> DecomposedSchema:
    """Inverse of ``decomposition_to_dict``.  A fragment's name must be its
    source, or its source followed by a positive integer (ASCII digits, no
    sign, no leading zero)."""
    fragments = []
    for i, entry in enumerate(doc["fragments"]):
        source = entry["source"]
        name = entry["name"]
        match = re.fullmatch(re.escape(source) + "([1-9][0-9]*)?", name)
        if match is None:
            raise SchemaError(
                f"fragments[{i}]: name {name!r} is neither {source!r} "
                f"nor {source!r} followed by a positive integer"
            )
        fragments.append(Fragment(source, attr_set(entry["attributes"]), int(match[1] or 0)))
    return DecomposedSchema(
        tuple(fragments),
        tuple(attr_set(s) for s in doc["new_forbidden"]),
        tuple(
            FunctionalDependency(attr_set(d["lhs"]), attr_set(d["rhs"]))
            for d in doc["lost_fds"]
        ),
    )


# SQLite's keywords (https://www.sqlite.org/lang_keywords.html): never bare.
_SQL_KEYWORDS = frozenset("""
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH AUTOINCREMENT
    BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE COLUMN COMMIT CONFLICT
    CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE CURRENT_TIME CURRENT_TIMESTAMP
    DATABASE DEFAULT DEFERRABLE DEFERRED DELETE DESC DETACH DISTINCT DO DROP EACH
    ELSE END ESCAPE EXCEPT EXCLUDE EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST
    FOLLOWING FOR FOREIGN FROM FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE
    IMMEDIATE IN INDEX INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS
    ISNULL JOIN KEY LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING
    NOTNULL NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN
    PRAGMA PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX
    RELEASE RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS SAVEPOINT
    SELECT SET TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION TRIGGER UNBOUNDED
    UNION UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL WHEN WHERE WINDOW WITH
    WITHOUT
""".split())


def _sql_name(name: str) -> str:
    """``name`` bare if it is plain (ASCII word, no keyword), else in double
    quotes with every embedded double quote doubled."""
    if name.isascii() and name.isidentifier() and name.upper() not in _SQL_KEYWORDS:
        return name
    return '"' + name.replace('"', '""') + '"'


_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def sql_views(result: DecomposedSchema, tables: Iterable[str] = ()) -> str:
    """One CREATE VIEW projection per fragment (syntactic only).

    ``tables`` names the input schema's base tables; the fragments' source
    relations are always taken as tables too.  A view takes its fragment's
    name unless a table or an earlier view has it (SQLite compares ASCII
    letters without case, and no other character); then it takes the first
    free of ``<name>_view``, ``<name>_view2``, ...  No other view is renamed.
    """
    def fold(name: str) -> str:
        return name.translate(_ASCII_LOWER)

    # Tables, then views.
    created = {fold(t) for t in tables} | {fold(f.source_relation) for f in result.fragments}
    reserved = created | {fold(f.name) for f in result.fragments}
    lines = []
    for f in result.fragments:
        view, k = f.name, 1
        while fold(view) in (created if view == f.name else reserved):
            view, k = f"{f.name}_view{k if k > 1 else ''}", k + 1
        created.add(fold(view))
        reserved.add(fold(view))
        columns = ", ".join(map(_sql_name, f.attrs))
        lines.append(
            f"CREATE VIEW {_sql_name(view)} AS SELECT {columns} "
            f"FROM {_sql_name(f.source_relation)};"
        )
    return "\n".join(lines) + ("\n" if lines else "")
