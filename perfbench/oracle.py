"""Output checks of the schemacut benchmark, independent of the program.

A decomposition is judged on a dependency graph this module rebuilds over
the fragments itself.  An attribute set is associable exactly when one
vertex reaches every one of its attributes (the targets share an
ancestor), so security and the ``required_verified`` flags are checked by
reachability rather than by enumerating join chains.

A consistency verdict is judged on the instance: a cut must hit every
forbidden chain and spare one chain per required family, and an
inconsistent verdict is confirmed by exhaustive search.
"""

from __future__ import annotations

import itertools
from typing import Iterable

# Exhaustive confirmation gives up (and counts the verdict as unconfirmed)
# past this many combinations.
EXHAUSTIVE_LIMIT = 200_000


def fragment_ancestors(fragments: Iterable[frozenset], fds) -> dict[frozenset, set]:
    """Reverse adjacency of the dependency graph rebuilt over ``fragments``.

    Vertices are the single attributes, the multi-attribute left-hand
    sides of dependencies co-located in some fragment, and the
    multi-attribute fragments.  Edges are those dependencies (one per
    right-hand attribute) and one edge from each vertex to every vertex it
    strictly contains.
    """
    fragments = [frozenset(f) for f in fragments]
    kept = [
        (frozenset(dep.lhs), frozenset([attr]))
        for dep in fds
        for attr in dep.rhs
        if any(set(dep.lhs) | {attr} <= f for f in fragments)
    ]
    vertices = {frozenset([a]) for f in fragments for a in f}
    vertices |= {f for f in fragments if len(f) > 1}
    vertices |= {lhs for lhs, _ in kept if len(lhs) > 1}
    parents: dict[frozenset, set] = {v: set() for v in vertices}
    for lhs, dst in kept:
        if lhs != dst:
            parents[dst].add(lhs)
    multi = [v for v in vertices if len(v) > 1]
    for big in multi:
        for small in vertices:
            if small < big:
                parents[small].add(big)
    return parents


def associable(parents: dict[frozenset, set], attrs: Iterable[str]) -> bool:
    """True iff some vertex reaches every attribute in ``attrs``."""
    common = None
    for attr in attrs:
        start = frozenset([attr])
        if start not in parents:
            return False
        seen = {start}
        stack = [start]
        while stack:
            for up in parents[stack.pop()]:
                if up not in seen:
                    seen.add(up)
                    stack.append(up)
        common = seen if common is None else common & seen
        if not common:
            return False
    return bool(common)


def judge_decomposition(pkg, schema, policy, report) -> list[str]:
    """Oracle failures of one ``secure_decompose`` report.

    Policies here have no singleton forbidden sets, so preprocessing
    leaves schema and policy unchanged and the report speaks about them.
    """
    problems = []
    if not report.consistency.consistent:
        if report.result is not None:
            problems.append("inconsistent report carries fragments")
        problems.extend(confirm_inconsistent(*_chain_instance(pkg, schema, policy)))
        return problems

    result = report.result
    if result is None:
        return ["consistent report has no fragments"]
    if not report.security_verified:
        problems.append("consistent report not security-verified")
    relations = {rel.name: set(rel.attributes) for rel in schema.relations}
    fragments = [frozenset(f.attrs) for f in result.fragments]
    for frag in result.fragments:
        if not set(frag.attrs) <= relations.get(frag.source_relation, set()):
            problems.append(f"fragment {frag.name} outside relation {frag.source_relation}")
    parents = fragment_ancestors(fragments, schema.fds)
    for forbidden in policy.forbidden:
        if any(set(forbidden) <= f for f in fragments):
            problems.append(f"a fragment hosts forbidden set {set(forbidden)}")
        elif associable(parents, forbidden):
            problems.append(f"forbidden set {set(forbidden)} still associable")
    flags = dict(report.required_verified)
    if set(flags) != set(policy.required):
        problems.append("required_verified does not list the policy's required sets")
    for req, ok in flags.items():
        if ok != associable(parents, req):
            problems.append(f"required flag {ok} for {set(req)} contradicts reachability")
    return problems


def _chain_instance(pkg, schema, policy):
    """Forbidden chains and required families over the original graph.

    The chains come from the program's enumeration; the verdict on them
    is what the exhaustive search confirms.
    """
    fdg = pkg.fdg.build_fdg(schema)
    join_chains = pkg.joinchain.join_chains
    forbidden = [c.edges for s in policy.forbidden for c in join_chains(fdg, s).chains]
    families = [[c.edges for c in join_chains(fdg, s).chains] for s in policy.required]
    return forbidden, families


def confirm_inconsistent(forbidden: list[frozenset], families: list[list[frozenset]]) -> list[str]:
    """Exhaustive search for a witness that the instance is consistent.

    Consistent exactly when some choice of one chain per family leaves
    every forbidden chain an edge outside the chosen chains: cutting all
    those edges is then a valid cut.  Returns failures (empty when the
    inconsistent verdict is confirmed).
    """
    size = 1
    for family in families:
        size *= len(family)
    if size > EXHAUSTIVE_LIMIT:
        return [f"inconsistent verdict unconfirmed: {size} combinations"]
    for choice in itertools.product(*families):
        protected = frozenset().union(*choice)
        if not any(chain <= protected for chain in forbidden):
            return ["inconsistent verdict, but a consistent cut exists"]
    return []


def judge_consistency(instance, result) -> list[str]:
    """Oracle failures of one ``check`` result on an abstract instance."""
    if not result.consistent:
        return confirm_inconsistent(
            list(instance.forbidden_chains), [list(f) for f in instance.required_families]
        )
    if result.cut is None:
        return ["consistent result has no cut"]
    cut = set(result.cut)
    problems = []
    if any(not (chain & cut) for chain in instance.forbidden_chains):
        problems.append("cut misses a forbidden chain")
    if any(all(chain & cut for chain in family) for family in instance.required_families):
        problems.append("cut breaks every chain of a required family")
    return problems
