"""End-to-end orchestration: schema to verified secure decomposition.

The pipeline builds the dependency graph, enumerates forbidden (and
required) join chains, decides a cut (via the consistency check when
required sets are present, which degenerates to the plain greedy cut when
they are not), drops the cut's redundant edges by reverse-delete (walking
the selection backwards, an edge goes when every forbidden chain stays
hit without it; fewer constraints keep more associations), turns the
remaining cut edges into new forbidden co-occurrences, and decomposes
every relation.  The report's ``consistency.cut`` is the cut as decided,
before reverse-delete; the edges the decomposition forbids are the ones
whose co-occurrence is in ``new_forbidden``.

Each round then sorts the decomposed dependencies once
(``decompose.held_and_lost``) into those some fragment holds whole and
those a relation lost (the report's ``lost_fds``), and *verifies by
closure*, which no path bound limits and which is the attacker's rule: no
fragment's attribute closure under the held dependencies may contain a
forbidden set.  One closure verdict (``_verdict``) decides each round and
``verify_decomposition`` alike.

Verification is load-bearing.  A cut through a composite vertex's
containment edge only bans the full composite, and a composite lhs joins
fragments where no join chain does, so an association can survive the
first round.  The re-cut then forbids co-occurrences of the closure's own
derivations of it (``_derivation_cut``).  Each lies inside a fragment, so
every round adds a new set and the loop ends secure, with
``_MAX_RECUT_ROUNDS`` as a guard that raises ``RecutDidNotConverge``.
Required-set survival is decided by the same verdict on the final
fragments; failures downgrade the report with a warning.  A report is a
plain value: it carries no timing, so equal inputs give equal (``==``)
reports.

Everything the schema alone determines is kept for the last schema seen
(a one-entry cache keyed by the schema value): its graph, with its edge
index and its memoised ancestor walks, and its decomposed dependencies.
Decomposing one schema under many policies builds the graph, walks each
target and decomposes the dependencies once; no other graph is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .closure import (
    DecomposedFdSet,
    closure_masks,
    closure_reasons,
    decompose_fds,
    derivation,
    holders,
    set_bits,
)
from .consistency import ConsistencyResult, check, make_instance
from .cut import (
    CutSet,
    edges_to_forbidden_sets,
    fdg_edge_sort_key,
    greedy_hitting_set,
    reverse_delete,
)
from .decompose import (
    DEFAULT_MAX_WIDTH,
    DecomposedSchema,
    decompose_relation,
    decomposition_to_dict,
    held_and_lost,
)
from .fdg import Fdg, build_fdg
from .joinchain import PathLimits, join_chains
from .model import (
    AttributeSet,
    Policy,
    Schema,
    attr_set,
    preprocess_policy,
)

_MAX_RECUT_ROUNDS = 64


class RecutDidNotConverge(RuntimeError):
    """A forbidden set was still associable after ``_MAX_RECUT_ROUNDS`` re-cuts."""


@dataclass(frozen=True)
class DecompositionReport:
    result: DecomposedSchema | None
    consistency: ConsistencyResult
    security_verified: bool
    required_verified: tuple[tuple[AttributeSet, bool], ...]
    warnings: tuple[str, ...]


@lru_cache(maxsize=1)
def _base_graph(schema: Schema) -> tuple[Fdg, DecomposedFdSet]:
    """``build_fdg(schema)`` and ``decompose_fds(schema.fds)``, kept for the
    last schema seen (one entry).

    Every call on that schema shares both (and the graph's walk memo), so
    none may change them.
    """
    return build_fdg(schema), decompose_fds(schema.fds)


def verify_decomposition(
    result: DecomposedSchema, schema: Schema, policy: Policy
) -> tuple[bool, tuple[tuple[AttributeSet, bool], ...]]:
    """Check the decomposition against the policy by attribute closure.

    Secure iff no forbidden set lies in the closure of one fragment under
    the dependencies some fragment holds whole.  Each required set is
    flagged with whether it is still associable in that sense.
    """
    held, _ = held_and_lost(schema, result.fragments, decompose_fds(schema.fds))
    _, unbroken, required_flags = _verdict(result.fragments, held, policy)
    return not unbroken, required_flags


def _verdict(
    fragments, held, policy: Policy
) -> tuple[dict[str, int], list[AttributeSet], tuple[tuple[AttributeSet, bool], ...]]:
    """The fragments' closure masks under the dependencies ``held``, the
    forbidden sets still associable among them, and each required set
    flagged with whether it is."""
    masks = closure_masks([frag.attrs for frag in fragments], held)
    unbroken = [s for s in policy.forbidden if holders(masks, s)]
    return masks, unbroken, tuple((req, bool(holders(masks, req))) for req in policy.required)


def _derivation_cut(fragments, held, masks, unbroken, kept) -> tuple[AttributeSet, ...]:
    """The co-occurrences a re-cut forbids: one from every derivation of an
    ``unbroken`` set, taken by the greedy hitting set in ``greedy_cut``'s
    order (score descending, size ascending, then the set), after sparing
    first those a ``kept`` required set's derivation uses or that contain one.

    Each fragment whose closure holds a set gives one derivation of it.  It
    uses each of its dependencies' attributes, and its seed attributes when
    there are two or more; all lie inside a fragment, so none is forbidden.
    """
    reasons: dict[int, dict] = {}

    def derivations(sets) -> list[frozenset]:
        out = []
        for s in sets:
            for i in set_bits(holders(masks, s)):
                if i not in reasons:
                    reasons[i] = closure_reasons(fragments[i].attrs, held)
                seeds, used = derivation(reasons[i], s)
                co = {attr_set(dep.lhs + dep.rhs) for dep in used}
                out.append(frozenset(co | {seeds} if len(seeds) > 1 else co))
        return out

    spared = frozenset().union(*derivations(kept))

    def order(co: AttributeSet, count: int) -> tuple:
        spare = co in spared or any(set(req) <= set(co) for req in kept)
        return (spare, -count, len(co), co)

    return greedy_hitting_set(derivations(unbroken), order).edges


def secure_decompose(
    schema: Schema,
    policy: Policy,
    limits: PathLimits | None = None,
    strategy: str = "auto",
    max_width: int = DEFAULT_MAX_WIDTH,
    timeout_s: float | None = None,
) -> DecompositionReport:
    """Produce a verified secure decomposition of the schema's relations.

    An inconsistent policy yields a report with no fragments rather than
    an exception.  Truncated chain enumerations, any re-cut rounds and
    required sets lost are surfaced as warnings.
    """
    schema, policy, warnings = preprocess_policy(schema, policy)
    warnings = list(warnings)

    fdg, dfds = _base_graph(schema)
    forbidden_families = [join_chains(fdg, s, limits) for s in policy.forbidden]
    required_families = [join_chains(fdg, s, limits) for s in policy.required]
    for fam in forbidden_families + required_families:
        if fam.truncated:
            warnings.append(f"join chain enumeration for {_braced([fam.source_set])} was truncated")

    instance = make_instance(
        [chain.edges for fam in forbidden_families for chain in fam.chains],
        [[chain.edges for chain in fam.chains] for fam in required_families],
    )
    consistency = check(
        instance, strategy, edge_sort_key=fdg_edge_sort_key, timeout_s=timeout_s
    )
    if not consistency.consistent:
        return DecompositionReport(
            result=None,
            consistency=consistency,
            security_verified=False,
            required_verified=tuple((req, False) for req in policy.required),
            warnings=tuple(warnings),
        )

    cut: CutSet = reverse_delete(consistency.cut, instance.forbidden_chains)
    new_forbidden = list(edges_to_forbidden_sets(cut, fdg))

    effective = list(policy.forbidden) + [s for s in new_forbidden if s not in policy.forbidden]

    for rounds in range(_MAX_RECUT_ROUNDS + 1):
        fragments = tuple(
            frag for rel in schema.relations
            for frag in decompose_relation(rel, effective, max_width)
        )
        held, lost = held_and_lost(schema, fragments, dfds)
        masks, unbroken, required_flags = _verdict(fragments, held, policy)
        if not unbroken:
            break
        if rounds == _MAX_RECUT_ROUNDS:
            raise RecutDidNotConverge(
                f"re-cut did not converge in {_MAX_RECUT_ROUNDS} rounds: "
                + _braced(unbroken) + " still associable"
            )
        kept = [req for req, ok in required_flags if ok]
        progress = _derivation_cut(fragments, held, masks, unbroken, kept)
        warnings.append(
            "additional co-occurrence constraints were needed to break surviving "
            + "associations: " + _braced(progress)
        )
        effective.extend(progress)
        new_forbidden.extend(progress)
    result = DecomposedSchema(fragments, tuple(new_forbidden), lost)

    for req, ok in required_flags:
        if not ok:
            warnings.append(
                f"required set {_braced([req])} is no longer associable after decomposition"
            )

    return DecompositionReport(
        result=result,
        consistency=consistency,
        security_verified=not unbroken,
        required_verified=required_flags,
        warnings=tuple(warnings),
    )


def _braced(sets) -> str:
    return ", ".join("{" + ", ".join(s) + "}" for s in sets)


def report_to_dict(report: DecompositionReport) -> dict:
    body = (
        decomposition_to_dict(report.result)
        if report.result is not None
        else {"fragments": [], "new_forbidden": [], "lost_fds": []}
    )
    body.update(
        {
            "consistent": report.consistency.consistent,
            "security_verified": report.security_verified,
            "required_verified": [
                {"set": list(req), "ok": ok} for req, ok in report.required_verified
            ],
            "warnings": list(report.warnings),
        }
    )
    return body
