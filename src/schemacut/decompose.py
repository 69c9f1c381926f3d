"""Decomposition stage: maximal fragments avoiding forbidden co-occurrence.

Fragments are computed as complements of inclusion-minimal hitting sets of
the forbidden sets that fit inside the relation, which matches literal
power-set elimination without materialising the power set.  The module
also carries the older strong-cut baseline, which additionally severs
every forbidden attribute from each of its identifiers.

One function, ``RelationIndex.held_and_lost``, decides which fragments
hold each dependency whole, once per pipeline round, and gives the held
ones as a mask of dependency positions; ``held_and_lost`` runs it on a
fresh index and reads the mask back as dependencies.  The index
(``relation_index``) holds what the schema alone decides: the relations'
membership masks, each relation as its one whole fragment, which
relations hold each dependency, and which dependencies derive each
attribute (what ``pipeline``'s verdict walks back from a policy).
``pipeline`` keeps it with the schema's graph.  A relation left whole
holds what it holds and loses nothing, so a round examines only the
fragments of split relations and the dependencies that name their
attributes.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .closure import (
    DecomposedFdSet,
    closure_masks,
    decompose_fds,
    holders,
    identifiers_of,
    set_bits,
)
from .model import (
    AttributeSet,
    FunctionalDependency,
    Relation,
    Schema,
    SchemaError,
    attr_set,
    doc_list,
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


class RelationIndex(NamedTuple):
    """What ``schema`` alone decides about its relations and the
    dependencies of ``dfds`` (``relation_index``).

    Relation ``i`` of ``schema.relations`` is bit ``1 << i`` of ``masks``
    and ``holding``; dependency ``j`` of ``dfds`` is bit ``1 << j`` of
    ``readers``, ``whole_held`` and ``held_and_lost``'s held mask, and
    appears as ``j`` in ``by_rhs``.
    """

    schema: Schema
    dfds: DecomposedFdSet
    masks: Mapping[str, int]  # per attribute, the relations holding it
    whole: tuple[Fragment, ...]  # each relation as its one fragment
    position: Mapping[str, int]  # per relation name, its bit position
    holding: tuple[int, ...]  # per dependency, the relations holding it whole
    readers: Mapping[str, int]  # per attribute, the dependencies naming it
    by_rhs: Mapping[str, tuple[int, ...]]  # per attribute, the dependencies deriving it
    whole_held: int  # the dependencies some relation holds whole

    def held_and_lost(
        self, fragments: Sequence[Fragment]
    ) -> tuple[int, tuple[FunctionalDependency, ...]]:
        """``held_and_lost(self.schema, fragments, self.dfds)``, with the
        held dependencies as a mask of their positions in ``dfds``.

        A fragment that is its whole relation holds exactly what the
        relation holds whole, and the relation (unsplit) loses nothing.
        Every other fragment is examined, and only for the dependencies
        that name an attribute of an examined fragment or of a split
        relation; no other dependency can be held by an examined fragment
        or lost, so the others keep their bit of ``whole_held``.
        """
        unsplit = 0
        examined: list[AttributeSet] = []
        own: dict[int, int] = {}  # per relation, the examined fragments it owns
        for frag in fragments:
            pos = self.position.get(frag.source_relation)
            if pos is None:
                examined.append(frag.attrs)
            elif frag.attrs == self.whole[pos].attrs:
                unsplit |= 1 << pos
            else:
                own[pos] = own.get(pos, 0) | 1 << len(examined)
                examined.append(frag.attrs)
        split = (1 << len(self.whole)) - 1 & ~unsplit
        touched = set().union(*examined)
        for pos in set_bits(split):
            touched.update(self.whole[pos].attrs)
        candidates = 0
        for attr in touched:
            candidates |= self.readers.get(attr, 0)

        fds = self.dfds.fds
        frag_masks = closure_masks(examined, ())
        held = self.whole_held & ~candidates
        lost = []
        for j in set_bits(candidates):
            kept = holders(frag_masks, fds[j].lhs + fds[j].rhs)
            if kept or self.holding[j] & unsplit:
                held |= 1 << j
            found = self.holding[j] & split
            # Skip the relations whose fragments keep it (set_bits inlined: hot loop).
            while found and kept & own.get((found & -found).bit_length() - 1, 0):
                found &= found - 1
            if found:
                lost.append(fds[j])
        return held, tuple(lost)


def relation_index(schema: Schema, dfds: DecomposedFdSet) -> RelationIndex:
    """Index ``schema``'s relations and the dependencies of ``dfds``.

    ``pipeline`` keeps the index with the schema's graph, so a schema
    decomposed under many policies is indexed once.
    """
    masks = closure_masks([rel.attributes for rel in schema.relations], ())
    holding, readers, by_rhs, whole_held = [], {}, {}, 0
    for j, dep in enumerate(dfds):
        attrs = dep.lhs + dep.rhs
        holding.append(holders(masks, attrs))
        if holding[j]:
            whole_held |= 1 << j
        for attr in attrs:
            readers[attr] = readers.get(attr, 0) | 1 << j
        for attr in dep.rhs:
            by_rhs.setdefault(attr, []).append(j)
    return RelationIndex(
        schema,
        dfds,
        masks,
        tuple(Fragment(rel.name, rel.attributes, 0) for rel in schema.relations),
        {rel.name: i for i, rel in enumerate(schema.relations)},
        tuple(holding),
        readers,
        {attr: tuple(deps) for attr, deps in by_rhs.items()},
        whole_held,
    )


def held_and_lost(
    schema: Schema, fragments: Sequence[Fragment], dfds: DecomposedFdSet
) -> tuple[tuple[FunctionalDependency, ...], tuple[FunctionalDependency, ...]]:
    """The dependencies of ``dfds`` some fragment holds whole (held), and those
    some relation holds whole but none of its fragments does (lost), each in
    ``dfds`` order (``RelationIndex.held_and_lost`` on a fresh index)."""
    held, lost = relation_index(schema, dfds).held_and_lost(fragments)
    return tuple(dfds.fds[j] for j in set_bits(held)), lost


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
    """Inverse of ``decomposition_to_dict``; keys it does not write are ignored.

    A missing key, or a value of the wrong shape, raises ``SchemaError``
    naming the entry.  A fragment's name must be its source, or its source
    followed by a positive integer (ASCII digits, no sign, no leading zero).
    """
    _require(doc, ("fragments", "new_forbidden", "lost_fds"), "document")
    fragments = []
    for i, entry in enumerate(doc_list(doc["fragments"], "fragments")):
        where = f"fragments[{i}]"
        _require(entry, ("name", "source", "attributes"), where)
        for key in ("name", "source"):
            if not isinstance(entry[key], str):
                raise SchemaError(f"{where}.{key}: must be a string")
        source, name = entry["source"], entry["name"]
        attrs = doc_list(entry["attributes"], f"{where}.attributes", str)
        match = re.fullmatch(re.escape(source) + "([1-9][0-9]*)?", name)
        if match is None:
            raise SchemaError(
                f"{where}: name {name!r} is neither {source!r} "
                f"nor {source!r} followed by a positive integer"
            )
        fragments.append(Fragment(source, attr_set(attrs), int(match[1] or 0)))
    new_forbidden = tuple(
        attr_set(doc_list(s, f"new_forbidden[{i}]", str))
        for i, s in enumerate(doc_list(doc["new_forbidden"], "new_forbidden"))
    )
    lost = []
    for i, dep in enumerate(doc_list(doc["lost_fds"], "lost_fds")):
        where = f"lost_fds[{i}]"
        _require(dep, ("lhs", "rhs"), where)
        lhs, rhs = (attr_set(doc_list(dep[k], f"{where}.{k}", str)) for k in ("lhs", "rhs"))
        lost.append(FunctionalDependency(lhs, rhs))
    return DecomposedSchema(tuple(fragments), new_forbidden, tuple(lost))


def _require(obj, keys: Sequence[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: must be an object")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{where}: missing {key!r}")


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
