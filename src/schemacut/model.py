"""Schema and policy model: parsing, validation, canonicalisation.

A schema is a set of relations plus functional dependencies over a global
attribute namespace (two relations naming attribute ``A`` talk about the
same attribute; foreign keys in the bundled examples rely on this).  A
policy pairs *forbidden* attribute sets (must never become associable)
with *required* attribute sets (must stay associable).

All values are immutable after validation and every collection is kept in
a canonical sorted order so downstream algorithms are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

AttributeSet = tuple[str, ...]
"""Sorted, duplicate-free tuple of attribute names."""


class SchemaError(ValueError):
    """Structurally invalid schema, policy or input document."""


def attr_set(names: Iterable[str]) -> AttributeSet:
    """Canonicalise an iterable of attribute names into an AttributeSet."""
    names = list(names)
    for name in names:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"attribute name must be a non-empty string, got {name!r}")
    return tuple(sorted(set(names)))


@dataclass(frozen=True)
class FunctionalDependency:
    lhs: AttributeSet
    rhs: AttributeSet
    probabilistic: bool = False

    def __str__(self) -> str:
        return f"{''.join(self.lhs)}->{''.join(self.rhs)}"


@dataclass(frozen=True)
class ForeignKey:
    attributes: AttributeSet
    references: str


@dataclass(frozen=True)
class Relation:
    name: str
    attributes: AttributeSet
    primary_key: AttributeSet
    foreign_keys: tuple[ForeignKey, ...] = ()


@dataclass(frozen=True)
class Schema:
    relations: tuple[Relation, ...]
    fds: tuple[FunctionalDependency, ...]
    # Interning table: index in this tuple is the attribute id.  Assignment
    # is lexicographic by construction, which anchors every downstream order.
    attribute_names: tuple[str, ...] = ()

    @property
    def attribute_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.attribute_names)}

    def relation(self, name: str) -> Relation:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise SchemaError(f"unknown relation {name!r}")


@dataclass(frozen=True)
class Policy:
    forbidden: tuple[AttributeSet, ...] = ()
    required: tuple[AttributeSet, ...] = ()


def make_schema(
    relations: Sequence[tuple],
    fds: Sequence[tuple] = (),
) -> Schema:
    """Build and validate a schema from plain tuples.

    ``relations`` entries are ``(name, attributes)`` or
    ``(name, attributes, primary_key)`` or
    ``(name, attributes, primary_key, [(fk_attrs, referenced_name), ...])``.
    ``fds`` entries are ``(lhs, rhs)`` or ``(lhs, rhs, probabilistic)``.
    The primary key defaults to the full attribute set.
    """
    rels = []
    for entry in relations:
        name, attrs = entry[0], entry[1]
        pk = entry[2] if len(entry) > 2 and entry[2] is not None else attrs
        fks = entry[3] if len(entry) > 3 else ()
        # Raw tuples on purpose: validate_schema canonicalises and is the
        # one place that reports duplicates.
        rels.append(
            Relation(
                name=name,
                attributes=tuple(attrs),
                primary_key=tuple(pk),
                foreign_keys=tuple(ForeignKey(tuple(a), ref) for a, ref in fks),
            )
        )
    deps = []
    for entry in fds:
        lhs, rhs = entry[0], entry[1]
        prob = bool(entry[2]) if len(entry) > 2 else False
        deps.append(FunctionalDependency(tuple(lhs), tuple(rhs), prob))
    return validate_schema(Schema(tuple(rels), tuple(deps)))


def make_policy(
    schema: Schema,
    forbidden: Sequence[Iterable[str]] = (),
    required: Sequence[Iterable[str]] = (),
) -> Policy:
    """Canonicalise policy sets and check them as ``preprocess_policy`` does."""

    def canon(groups: Sequence[Iterable[str]]) -> tuple[AttributeSet, ...]:
        return tuple(sorted({attr_set(group) for group in groups}))

    policy = Policy(forbidden=canon(forbidden), required=canon(required))
    _check_policy(schema, policy)
    return policy


def _check_policy(schema: Schema, policy: Policy) -> None:
    """Refuse an empty policy set, or one naming an attribute not in ``schema``."""
    known = set(schema.attribute_names)
    for label, sets in (("forbidden", policy.forbidden), ("required", policy.required)):
        for s in sets:
            if not s:
                raise SchemaError(f"{label} set is empty")
            unknown = [a for a in s if a not in known]
            if unknown:
                raise SchemaError(f"{label} set {list(s)}: unknown attribute {unknown[0]!r}")


def validate_schema(raw: Schema) -> Schema:
    """Validate and canonicalise a schema.

    Checks name uniqueness, subset constraints and dangling references,
    strips reflexive parts from dependency right-hand sides, and returns a
    schema whose relations, dependencies and attribute interning table are
    all in canonical sorted order.  Validation is idempotent.
    """
    seen_names = set()
    for rel in raw.relations:
        if rel.name in seen_names:
            raise SchemaError(f"duplicate relation name {rel.name!r}")
        seen_names.add(rel.name)

    relations = []
    for rel in raw.relations:
        attrs = tuple(rel.attributes)
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"relation {rel.name!r}: duplicate attribute in declaration")
        attrs = attr_set(attrs)
        if not attrs:
            raise SchemaError(f"relation {rel.name!r}: empty attribute set")
        pk = attr_set(rel.primary_key)
        if not pk:
            raise SchemaError(f"relation {rel.name!r}: empty primary key")
        if not set(pk) <= set(attrs):
            extra = sorted(set(pk) - set(attrs))
            raise SchemaError(
                f"relation {rel.name!r}: primary key attribute {extra[0]!r} not in relation"
            )
        fks = []
        for fk in rel.foreign_keys:
            local = attr_set(fk.attributes)
            if not set(local) <= set(attrs):
                extra = sorted(set(local) - set(attrs))
                raise SchemaError(
                    f"relation {rel.name!r}: foreign key attribute {extra[0]!r} not in relation"
                )
            if fk.references not in seen_names:
                raise SchemaError(
                    f"relation {rel.name!r}: foreign key references unknown relation {fk.references!r}"
                )
            fks.append(ForeignKey(local, fk.references))
        fks.sort(key=lambda f: (f.attributes, f.references))
        relations.append(Relation(rel.name, attrs, pk, tuple(fks)))
    relations.sort(key=lambda r: r.name)

    known = sorted({a for rel in relations for a in rel.attributes})
    known_set = set(known)

    fds = []
    for dep in raw.fds:
        lhs = attr_set(dep.lhs)
        rhs = attr_set(dep.rhs)
        if not lhs or not rhs:
            raise SchemaError(f"dependency {dep}: empty side")
        for a in lhs + rhs:
            if a not in known_set:
                raise SchemaError(f"dependency {dep}: unknown attribute {a!r}")
        # Reflexive parts carry no information; strip them here.
        rhs = tuple(a for a in rhs if a not in lhs)
        if not rhs:
            continue
        fds.append(FunctionalDependency(lhs, rhs, dep.probabilistic))
    fds = sorted(set(fds), key=lambda d: (d.lhs, d.rhs, d.probabilistic))

    return Schema(tuple(relations), tuple(fds), tuple(known))


def preprocess_policy(
    schema: Schema, policy: Policy
) -> tuple[Schema, Policy, tuple[str, ...]]:
    """Normalise a policy against a validated schema.

    Every attribute of a singleton forbidden set is hidden, in one pass.
    It leaves every relation (an emptied relation is dropped, an emptied
    primary key falls back to the remaining attributes, a foreign key loses
    it and goes once empty or dangling) and every dependency rhs; a
    dependency whose lhs names it is dropped, since the rest of that lhs
    determines nothing.  Each forbidden set that names a hidden attribute
    is dropped: hiding the attribute satisfies it, and nothing forbids the
    rest of it alone.  A required set loses its hidden attributes, with a
    warning naming the original set.  Each hidden attribute gets one
    warning.  Duplicate policy sets are removed.  The step is idempotent.
    A policy built directly is checked as ``make_policy`` checks it.
    """
    _check_policy(schema, policy)

    hidden = {s[0] for s in policy.forbidden if len(s) == 1}
    forbidden = tuple(sorted({s for s in policy.forbidden if hidden.isdisjoint(s)}))
    required = sorted(set(policy.required))
    if not hidden:
        return schema, Policy(forbidden, tuple(required)), ()

    def keep(attrs: AttributeSet) -> AttributeSet:
        return tuple(a for a in attrs if a not in hidden)

    warnings = [
        f"attribute {a!r} removed from the schema: it forms a singleton forbidden set"
        for a in sorted(hidden)
    ]
    for s in required:
        rest = keep(s)
        if rest != s:
            warnings.append(
                f"required set {{{', '.join(s)}}} names a removed attribute: "
                + (f"only {{{', '.join(rest)}}} is checked" if rest else "it is dropped")
            )
    required = sorted({keep(s) for s in required} - {()})

    relations = [rel for rel in schema.relations if keep(rel.attributes)]
    names = {rel.name for rel in relations}
    relations = [
        Relation(
            rel.name,
            keep(rel.attributes),
            keep(rel.primary_key) or keep(rel.attributes),
            tuple(
                ForeignKey(keep(fk.attributes), fk.references)
                for fk in rel.foreign_keys
                if keep(fk.attributes) and fk.references in names
            ),
        )
        for rel in relations
    ]
    fds = [
        FunctionalDependency(dep.lhs, keep(dep.rhs), dep.probabilistic)
        for dep in schema.fds
        if hidden.isdisjoint(dep.lhs) and keep(dep.rhs)
    ]
    schema = validate_schema(Schema(tuple(relations), tuple(fds)))
    return schema, Policy(forbidden, tuple(required)), tuple(warnings)


def minimal_sets(sets: Iterable[frozenset]) -> list[frozenset]:
    """The distinct sets that strictly contain no other, in first-occurrence order.

    Sets are visited smallest first, each tested only against the smaller
    sets already kept: a set that contains any set contains a minimal one.
    The empty set, when present, is therefore the only survivor.
    """
    distinct = list(dict.fromkeys(sets))
    kept: list[frozenset] = []
    for s in sorted(distinct, key=len):
        for k in kept:
            if k < s:
                break
        else:
            kept.append(s)
    if len(kept) == len(distinct):
        return distinct
    keep = set(kept)
    return [s for s in distinct if s in keep]


def element_index(sets: Iterable[Iterable[Hashable]]) -> dict[Hashable, set[int]]:
    """Per element, the positions of the ``sets`` that hold it.

    Keys come in first-occurrence order.  The cut and consistency layers
    index join chains by edge; attribute containment is ``closure.holders``.
    """
    index: dict[Hashable, set[int]] = {}
    for pos, members in enumerate(sets):
        for element in members:
            index.setdefault(element, set()).add(pos)
    return index


# ---------------------------------------------------------------------------
# JSON input format
# ---------------------------------------------------------------------------

_TOP_KEYS = {"relations", "fds", "policy"}
_REL_KEYS = {"name", "attributes", "primary_key", "foreign_keys"}
_FK_KEYS = {"attributes", "references"}
_FD_KEYS = {"lhs", "rhs", "probabilistic"}
_POLICY_KEYS = {"forbidden", "required"}


def check_object(obj: Mapping, allowed: set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: must be an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key {unknown[0]!r}")


def doc_list(value, where: str, item: type = object) -> list | tuple:
    """``value`` if it is a list of ``item``s, else ``SchemaError`` naming ``where``."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, item) for v in value):
        raise SchemaError(f"{where}: must be a list" + (" of strings" if item is str else ""))
    return value


def load_schema_doc(doc: Mapping) -> tuple[Schema, Policy]:
    """Parse a schema document (already-decoded JSON). Unknown keys are rejected."""
    check_object(doc, _TOP_KEYS, "document")
    if "relations" not in doc or "fds" not in doc:
        raise SchemaError("document: missing 'relations' or 'fds'")

    relations = []
    for i, rel in enumerate(doc_list(doc["relations"], "relations")):
        where = f"relations[{i}]"
        check_object(rel, _REL_KEYS, where)
        for key in ("name", "attributes", "primary_key"):
            if key not in rel:
                raise SchemaError(f"{where}: missing {key!r}")
        if not isinstance(rel["name"], str) or not rel["name"]:
            raise SchemaError(f"{where}.name: must be a non-empty string")
        fks = []
        for j, fk in enumerate(doc_list(rel.get("foreign_keys", []), f"{where}.foreign_keys")):
            fk_where = f"{where}.foreign_keys[{j}]"
            check_object(fk, _FK_KEYS, fk_where)
            if "attributes" not in fk or "references" not in fk:
                raise SchemaError(f"{fk_where}: missing 'attributes' or 'references'")
            if not isinstance(fk["references"], str):
                raise SchemaError(f"{fk_where}.references: must be a string")
            fk_attrs = doc_list(fk["attributes"], f"{fk_where}.attributes", str)
            fks.append((fk_attrs, fk["references"]))
        attrs, pk = (doc_list(rel[k], f"{where}.{k}", str) for k in ("attributes", "primary_key"))
        relations.append((rel["name"], attrs, pk, fks))

    fds = []
    for i, dep in enumerate(doc_list(doc["fds"], "fds")):
        where = f"fds[{i}]"
        check_object(dep, _FD_KEYS, where)
        if "lhs" not in dep or "rhs" not in dep:
            raise SchemaError(f"{where}: missing 'lhs' or 'rhs'")
        lhs, rhs = (doc_list(dep[k], f"{where}.{k}", str) for k in ("lhs", "rhs"))
        probabilistic = dep.get("probabilistic", False)
        if not isinstance(probabilistic, bool):
            raise SchemaError(f"{where}.probabilistic: must be true or false")
        fds.append((lhs, rhs, probabilistic))

    schema = make_schema(relations, fds)

    policy_doc = doc.get("policy", {})
    check_object(policy_doc, _POLICY_KEYS, "policy")
    sets = {}
    for key in ("forbidden", "required"):
        groups = doc_list(policy_doc.get(key, []), f"policy.{key}")
        sets[key] = [doc_list(s, f"policy.{key}[{i}]", str) for i, s in enumerate(groups)]
    return schema, make_policy(schema, **sets)


def read_json(path: str | Path):
    """Decode a UTF-8 JSON file; bad UTF-8, malformed JSON or nesting too deep
    for the decoder raises ``SchemaError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nested too deeply") from exc


def load_schema(path: str | Path) -> tuple[Schema, Policy]:
    """Load and validate a schema file (UTF-8 JSON)."""
    return load_schema_doc(read_json(path))
