"""Decomposition stage: maximal fragments avoiding forbidden co-occurrence.

Fragments are computed as complements of inclusion-minimal hitting sets of
the forbidden sets that fit inside the relation, which matches literal
power-set elimination without materialising the power set.  The module
also carries the older strong-cut baseline, which additionally severs
every forbidden attribute from each of its identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .closure import DecomposedFdSet, decompose_fds, identifiers_of
from .model import (
    AttributeSet,
    FunctionalDependency,
    Policy,
    Relation,
    Schema,
    SchemaError,
    attr_set,
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
        pruned: list[frozenset] = []
        for h in extended:
            if any(o < h for o in extended):
                continue
            if h not in pruned:
                pruned.append(h)
        hits = pruned
    return hits


def _restrict(forbidden: Sequence[AttributeSet], attrs: AttributeSet) -> list[frozenset]:
    """Forbidden sets fully inside ``attrs``, reduced to inclusion-minimal ones."""
    inside = {frozenset(f) for f in forbidden if f and set(f) <= set(attrs)}
    for f in forbidden:
        if not f:
            raise SchemaError("empty forbidden set")
    return sorted(
        (f for f in inside if not any(o < f for o in inside)),
        key=sorted,
    )


def _fragments_for(
    relation: Relation, elim: list[frozenset], max_width: int
) -> list[Fragment]:
    if len(relation.attributes) > max_width:
        raise WidthBoundExceeded(
            f"relation {relation.name!r} has {len(relation.attributes)} attributes, "
            f"bound is {max_width}"
        )
    if not elim:
        return [Fragment(relation.name, relation.attributes, 0)]
    survivors = sorted(
        attr_set(set(relation.attributes) - h) for h in minimal_hitting_sets(elim)
    )
    return [
        Fragment(relation.name, attrs, i) for i, attrs in enumerate(survivors, start=1)
    ]


def decompose_relation(
    relation: Relation,
    forbidden: Sequence[AttributeSet],
    max_width: int = DEFAULT_MAX_WIDTH,
) -> list[Fragment]:
    """Maximal subsets of the relation containing no forbidden set entirely."""
    return _fragments_for(relation, _restrict(forbidden, relation.attributes), max_width)


def _lost_dependencies(
    schema: Schema, fragments: Sequence[Fragment], dfds: DecomposedFdSet
) -> tuple[FunctionalDependency, ...]:
    by_relation: dict[str, list[AttributeSet]] = {}
    for frag in fragments:
        by_relation.setdefault(frag.source_relation, []).append(frag.attrs)
    lost = []
    for dep in dfds:
        spanned = set(dep.lhs) | set(dep.rhs)
        for rel in schema.relations:
            if spanned <= set(rel.attributes):
                kept = any(
                    spanned <= set(frag_attrs)
                    for frag_attrs in by_relation.get(rel.name, [])
                )
                if not kept and dep not in lost:
                    lost.append(dep)
    return tuple(lost)


def strong_cut_decompose(
    schema: Schema,
    forbidden: Sequence[AttributeSet],
    fds: DecomposedFdSet | None = None,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> DecomposedSchema:
    """Baseline decomposition that severs forbidden attributes from identifiers.

    Per relation, a subset dies if it contains a whole forbidden set, or a
    forbidden-set attribute together with one of its identifiers (restricted
    to candidate sets inside the relation).  Maximal survivors remain.
    """
    dfds = fds if fds is not None else decompose_fds(schema.fds)
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
        elim = {frozenset(f) for f in forbidden if set(f) <= rel_attrs}
        for a in forbidden_attrs:
            if a not in rel_attrs:
                continue
            for ident in ident_cache[a]:
                if set(ident) <= rel_attrs:
                    pair = frozenset(ident) | {a}
                    elim.add(pair)
                    merged = attr_set(pair)
                    if merged not in seen_elims:
                        seen_elims.add(merged)
                        elim_sets.append(merged)
        minimal = sorted(
            (f for f in elim if not any(o < f for o in elim)), key=sorted
        )
        fragments.extend(_fragments_for(rel, minimal, max_width))

    frags = tuple(fragments)
    return DecomposedSchema(frags, tuple(elim_sets), _lost_dependencies(schema, frags, dfds))


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
    return len(_lost_dependencies(schema, result.fragments, fds))


def assemble(
    schema: Schema,
    per_relation: Mapping[str, Sequence[Fragment]],
    new_forbidden: Sequence[AttributeSet],
    dfds: DecomposedFdSet,
) -> DecomposedSchema:
    fragments = tuple(
        frag for rel in schema.relations for frag in per_relation.get(rel.name, ())
    )
    return DecomposedSchema(
        fragments,
        tuple(new_forbidden),
        _lost_dependencies(schema, fragments, dfds),
    )


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
    fragments = []
    for entry in doc["fragments"]:
        source = entry["source"]
        name = entry["name"]
        suffix = 0 if name == source else int(name[len(source):])
        fragments.append(Fragment(source, attr_set(entry["attributes"]), suffix))
    return DecomposedSchema(
        tuple(fragments),
        tuple(attr_set(s) for s in doc["new_forbidden"]),
        tuple(
            FunctionalDependency(attr_set(d["lhs"]), attr_set(d["rhs"]))
            for d in doc["lost_fds"]
        ),
    )


def sql_views(result: DecomposedSchema) -> str:
    """One CREATE VIEW projection per fragment (syntactic only)."""
    lines = [
        f"CREATE VIEW {f.name} AS SELECT {', '.join(f.attrs)} FROM {f.source_relation};"
        for f in result.fragments
    ]
    return "\n".join(lines) + ("\n" if lines else "")
