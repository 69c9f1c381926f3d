"""End-to-end orchestration: schema to verified secure decomposition.

The pipeline builds the dependency graph, enumerates forbidden (and
required) join chains, decides a cut (via the consistency check when
required sets are present, which degenerates to the plain greedy cut when
they are not), drops the cut's redundant edges by reverse-delete (walking
the selection backwards, an edge goes when every forbidden chain stays
hit without it; fewer constraints keep more associations), turns the
remaining cut edges into new forbidden co-occurrences, and decomposes
the relations.  The report's ``consistency.cut`` is the cut as decided,
before reverse-delete; the edges the decomposition forbids are the ones
whose co-occurrence is in ``new_forbidden``.

A round's work follows the policy, not the schema (``_split``): only the
relations that hold some forbidden set are decomposed, and every other
relation passes through as its whole fragment.  Each round then sorts the
decomposed dependencies once (``RelationIndex.held_and_lost``, which
examines only the fragments of split relations) into those some fragment
holds whole and those a relation lost (the report's ``lost_fds``), and
*verifies by closure*, which no path bound limits and which is the
attacker's rule: no fragment's attribute closure under the held
dependencies may contain a forbidden set.  One closure verdict
(``_verdict``) decides each round and ``verify_decomposition`` alike.  It
closes only the policy's cone: the policy's attributes and, backwards
through the held dependencies that derive them, every attribute a
derivation of one could use.  Each fragment's cone part is closed under
the cone's dependencies alone, which gives every policy set the verdict
of the full closure.

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
(``_base_graph``, a one-entry cache keyed by the schema value): its graph,
with its edge index, its numbering, its memoised ancestor walks and its
memoised chain families (one per policy set and path limits, so a set
that another policy named before costs one lookup), its decomposed
dependencies, and its relation index (``decompose.relation_index``: the
relations' membership masks, whole fragments, which relations hold each
dependency and which dependencies derive each attribute).  Decomposing
one schema under many policies builds and indexes them once, and
enumerates each distinct set once; no other graph is built.  The chain
memo grows with the distinct sets asked of the schema, and a call on
another schema frees it with the old graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .closure import (
    closure_masks,
    closure_reasons,
    decompose_fds,
    derivation,
    holders,
    set_bits,
)
from .consistency import ConsistencyResult, _validate_timeout, check, make_instance
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
    Fragment,
    RelationIndex,
    decompose_relation,
    decomposition_to_dict,
    relation_index,
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
def _base_graph(schema: Schema) -> tuple[Fdg, RelationIndex]:
    """``build_fdg(schema)`` and the ``relation_index`` of the schema and
    ``decompose_fds(schema.fds)``, kept for the last schema seen (one entry).

    Every call on that schema shares both (and the graph's walk and chain
    memos), so none may change them.
    """
    return build_fdg(schema), relation_index(schema, decompose_fds(schema.fds))


def verify_decomposition(
    result: DecomposedSchema, schema: Schema, policy: Policy
) -> tuple[bool, tuple[tuple[AttributeSet, bool], ...]]:
    """Check the decomposition against the policy by attribute closure.

    Secure iff no forbidden set lies in the closure of one fragment under
    the dependencies some fragment holds whole.  Each required set is
    flagged with whether it is still associable in that sense.
    """
    index = relation_index(schema, decompose_fds(schema.fds))
    held, _ = index.held_and_lost(result.fragments)
    _, unbroken, required_flags = _verdict(index, result.fragments, held, policy)
    return not unbroken, required_flags


def _verdict(
    index: RelationIndex, fragments, held: int, policy: Policy
) -> tuple[dict[str, int], list[AttributeSet], tuple[tuple[AttributeSet, bool], ...]]:
    """The closure masks of the policy's cone in the fragments, the
    forbidden sets still associable among the fragments, and each required
    set flagged with whether it is.

    ``held`` is the mask of the ``index.dfds`` positions some fragment
    holds whole.  The cone is the policy's attributes and, to a fixpoint,
    the lhs attributes of every held dependency that derives a cone
    attribute (walked back through ``index.by_rhs``).  A derivation of a
    cone attribute uses only such dependencies, so closing each fragment's
    cone part under them alone gives every cone attribute the mask that
    closing the whole fragments under every held dependency would: the
    goal-directed restriction of a bottom-up fixpoint (magic sets,
    Bancilhon, Maier, Sagiv & Ullman, PODS 1986).
    """
    fds, by_rhs = index.dfds.fds, index.by_rhs
    cone = {attr for s in (*policy.forbidden, *policy.required) for attr in s}
    stack, deps = list(cone), []
    while stack:
        for j in by_rhs.get(stack.pop(), ()):
            if held >> j & 1:
                deps.append(fds[j])
                for attr in fds[j].lhs:
                    if attr not in cone:
                        cone.add(attr)
                        stack.append(attr)
    masks = closure_masks([cone.intersection(frag.attrs) for frag in fragments], deps)
    unbroken = [s for s in policy.forbidden if holders(masks, s)]
    return masks, unbroken, tuple((req, bool(holders(masks, req))) for req in policy.required)


def _split(index: RelationIndex, effective, max_width: int) -> tuple[Fragment, ...]:
    """Every relation's fragments under the ``effective`` forbidden sets.

    Only the relations some set lies in (``holders`` over the index's
    membership masks) are decomposed; every other relation passes through
    as its whole fragment.
    """
    split = 0
    for s in effective:
        split |= holders(index.masks, s)
    fragments, done = [], 0
    for pos in set_bits(split & (1 << len(index.whole)) - 1):
        fragments += index.whole[done:pos]
        fragments += decompose_relation(index.schema.relations[pos], effective, max_width)
        done = pos + 1
    fragments += index.whole[done:]
    return tuple(fragments)


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
    required sets lost are surfaced as warnings.  A bad ``timeout_s`` (nan,
    inf, negative) is refused before any work.
    """
    _validate_timeout(timeout_s)
    schema, policy, warnings = preprocess_policy(schema, policy)
    warnings = list(warnings)

    fdg, index = _base_graph(schema)
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
        fragments = _split(index, effective, max_width)
        held, lost = index.held_and_lost(fragments)
        masks, unbroken, required_flags = _verdict(index, fragments, held, policy)
        if not unbroken:
            break
        if rounds == _MAX_RECUT_ROUNDS:
            raise RecutDidNotConverge(
                f"re-cut did not converge in {_MAX_RECUT_ROUNDS} rounds: "
                + _braced(unbroken) + " still associable"
            )
        kept = [req for req, ok in required_flags if ok]
        held_fds = [index.dfds.fds[j] for j in set_bits(held)]
        progress = _derivation_cut(fragments, held_fds, masks, unbroken, kept)
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
