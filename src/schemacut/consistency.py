"""Required/forbidden consistency checking over abstract chain instances.

An instance carries the forbidden join chains (a cut must intersect every
one) and the required chain families (each family must keep at least one
chain untouched).  Two exact strategies decide the same verdict, both as
moves on one iterative depth-first search core (``_depth_first``), a
backtracking search in the style of DPLL (Davis, Logemann & Loveland
1962):

* required-first: choose one preserved chain per family, in input order;
  a prefix whose protected edges already cover a forbidden chain is
  pruned, so the walk finds the first consistent choice of the
  Cartesian-product order without scanning the product.
* forbidden-first: search for a cut that picks an edge of every forbidden
  chain while every family still has a disjoint chain.  It branches on
  the unhit chain with the fewest admissible edges and forward-checks the
  required families (Haralick & Elliott 1980), each node deriving its
  bans, the edges of every family's last live chain, from its counts.

Both compute one optional deadline and read the clock before any search
and, inside the core, before every pick attempt, so an expired deadline
stops the work within one step.  The clock serves the deadline only: a
result carries no timing, so equal instances give equal (``==``)
results.  Deciding consistency is NP-complete; a 3SAT reduction doubles
as a test generator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .cut import CutSet, greedy_hitting_set
from .model import SchemaError, check_object, doc_list, element_index, read_json


class ConsistencyTimeout(Exception):
    """Cooperative deadline exceeded during an exhaustive check."""


@dataclass(frozen=True)
class CcInstance:
    forbidden_chains: tuple[frozenset, ...]
    required_families: tuple[tuple[frozenset, ...], ...]

    def __post_init__(self) -> None:
        for chain in self.forbidden_chains:
            if not chain:
                raise SchemaError("forbidden join chain must be non-empty")

    @cached_property
    def universe(self) -> frozenset:
        edges = set()
        for chain in self.forbidden_chains:
            edges |= chain
        for family in self.required_families:
            for chain in family:
                edges |= chain
        return frozenset(edges)


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    cut: CutSet | None
    preserved: tuple[frozenset, ...] | None
    strategy: str


@dataclass(frozen=True)
class ThreeSatFormula:
    """Clauses are triples of non-zero literals; negative means negated."""

    variable_count: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("every clause needs exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"literal {lit} out of range")


def make_instance(
    forbidden: Sequence[Iterable[Hashable]],
    required: Sequence[Sequence[Iterable[Hashable]]],
) -> CcInstance:
    return CcInstance(
        tuple(frozenset(c) for c in forbidden),
        tuple(tuple(frozenset(c) for c in family) for family in required),
    )


def validate_cut(
    cut: Iterable[Hashable], instance: CcInstance
) -> tuple[bool, tuple[frozenset, ...] | None]:
    """Check a cut against an instance and return a preservation witness.

    True iff the cut intersects every forbidden chain and every required
    family keeps at least one disjoint chain; the witness lists the first
    disjoint chain per family.
    """
    picked = frozenset(cut)
    extra = picked - instance.universe
    if extra:
        raise SchemaError(f"cut edge {sorted(extra)[0]!r} outside the instance universe")
    if any(not (chain & picked) for chain in instance.forbidden_chains):
        return False, None
    witnesses = _survivors(instance, picked)
    return witnesses is not None, witnesses


def _survivors(
    instance: CcInstance, picked: frozenset
) -> tuple[frozenset, ...] | None:
    """The first chain of every family disjoint from ``picked``, or None."""
    witnesses = []
    for family in instance.required_families:
        survivor = next((chain for chain in family if not (chain & picked)), None)
        if survivor is None:
            return None
        witnesses.append(survivor)
    return tuple(witnesses)


def _label_sort_key(edge: Hashable, count: int) -> tuple:
    return (-count, edge)


def _validate_timeout(timeout_s: float | None) -> None:
    """Refuse a limit that can never fire (nan, inf) or is negative; None
    means no limit.  The one check of ``timeout_s``, also run at the entry
    of the callers that pass it on (``secure_decompose``, ``run_benchmark``)."""
    if timeout_s is not None and not 0 <= timeout_s < math.inf:
        raise ValueError(f"timeout_s must be a finite number >= 0, got {timeout_s!r}")


def _deadline(timeout_s: float | None) -> float | None:
    """The preamble of both checkers: the clock time a check must stop at.

    None means no limit.  A bad limit is refused (``_validate_timeout``),
    and an expired one stops the check before any work.
    """
    _validate_timeout(timeout_s)
    if timeout_s is None:
        return None
    deadline = time.perf_counter() + timeout_s
    if time.perf_counter() >= deadline:
        raise ConsistencyTimeout
    return deadline


def _depth_first(moves, deadline: float | None) -> bool:
    """The search core of both strategies: an iterative depth-first walk.

    ``moves.branches(excluded)`` lists the options of the current node,
    ``[]`` when the picks so far are a solution and None at a dead end.
    ``moves.pick(option)`` applies an option and returns False when the
    picks already fail; ``moves.unpick()`` undoes the latest pick, failed
    or not, and returns its option.  An option whose branch failed stays
    in ``excluded`` for its siblings, so no combination is tried twice.
    The clock is read before every pick attempt, so a deadline overshoots
    by at most one step.  True when the walk stops at a solution, which
    ``moves`` then holds.
    """
    excluded: set = set()
    # Each frame: its options and the index of the next one.
    stack: list[list] = []
    candidates = moves.branches(excluded)
    while True:
        if candidates == []:
            return True
        if candidates is not None:
            stack.append([candidates, 0])
        # Move to the next untried option, leaving exhausted frames.
        while stack:
            frame = stack[-1]
            options, pos = frame
            if pos:
                excluded.add(moves.unpick())
            if pos == len(options):
                excluded.difference_update(options)
                stack.pop()
                continue
            frame[1] = pos + 1
            if deadline is not None and time.perf_counter() >= deadline:
                raise ConsistencyTimeout
            if moves.pick(options[pos]):
                break
        else:
            return False
        candidates = moves.branches(excluded)


class _ChainChoice:
    """Strategy I's moves: one preserved chain per required family.

    Families are taken in input order, and the chains of each family in
    input order.  Picking a chain protects its edges; a pick fails as soon
    as some forbidden chain is wholly protected.  Protection only grows
    along a branch, so a failed prefix has no consistent completion, and
    the first choice the walk finds is the first consistent one in
    Cartesian-product order.  A chain whose branch failed may be skipped
    in later families too: a choice that holds it there protects at least
    what some choice of the failed branch protected.
    """

    def __init__(self, instance: CcInstance):
        self.families = instance.required_families
        self.forbidden_of = element_index(instance.forbidden_chains)
        # Counters: a protected-set version searched table3 Exp_17 in 0.93 ms, not 0.41.
        # Per forbidden chain, its edges no picked chain protects yet.
        self.unprotected = [len(chain) for chain in instance.forbidden_chains]
        self.protects: dict[Hashable, int] = {}
        self.chosen: list[frozenset] = []

    def branches(self, excluded: set) -> list | None:
        if len(self.chosen) == len(self.families):
            return []
        family = self.families[len(self.chosen)]
        return [chain for chain in family if chain not in excluded] or None

    def pick(self, chain: frozenset) -> bool:
        """Protect ``chain``; False when a forbidden chain is wholly protected."""
        self.chosen.append(chain)
        ok = True
        for edge in chain:
            ids = self.forbidden_of.get(edge)
            if ids is None:
                continue
            count = self.protects.get(edge, 0)
            self.protects[edge] = count + 1
            if count:
                continue
            for i in ids:
                self.unprotected[i] -= 1
                if not self.unprotected[i]:
                    ok = False
        return ok

    def unpick(self) -> frozenset:
        chain = self.chosen.pop()
        for edge in chain:
            ids = self.forbidden_of.get(edge)
            if ids is None:
                continue
            self.protects[edge] -= 1
            if self.protects[edge]:
                continue
            for i in ids:
                self.unprotected[i] += 1
        return chain


def _preserved_choice(
    instance: CcInstance, deadline: float | None
) -> list[frozenset] | None:
    """The first consistent choice of one chain per family, or None.

    The walk starts at the first chain of every family; when that choice
    wholly protects no forbidden chain, it is returned at once, without
    building ``_ChainChoice``'s index.
    """
    if not all(instance.required_families):
        return None
    first = [family[0] for family in instance.required_families]
    protected = frozenset().union(*first)
    if not any(chain <= protected for chain in instance.forbidden_chains):
        return first
    moves = _ChainChoice(instance)
    return moves.chosen if _depth_first(moves, deadline) else None


def check_required_first(
    instance: CcInstance,
    *,
    edge_sort_key: Callable[[Hashable, int], tuple] = _label_sort_key,
    timeout_s: float | None = None,
) -> ConsistencyResult:
    """Strategy I: exact search over the required side.

    Walks the choices of one preserved chain per family (see
    ``_ChainChoice``) and prunes every prefix whose protected edges
    already cover a forbidden chain.  The first choice in
    Cartesian-product order that leaves every forbidden chain an escape
    edge wins; the cut is then built greedily over the forbidden chains
    restricted to unprotected edges.  An empty family makes the instance
    inconsistent without a search, and a first choice (the first chain of
    every family) that passes is taken without one.
    """
    chosen = _preserved_choice(instance, _deadline(timeout_s))
    if chosen is not None:
        protected = frozenset().union(*chosen)
        restricted = [chain - protected for chain in instance.forbidden_chains]
        cut = greedy_hitting_set(restricted, edge_sort_key)
        return ConsistencyResult(True, cut, tuple(chosen), "required-first")
    return ConsistencyResult(False, None, None, "required-first")


class _CutSearch:
    """Strategy II's moves: the edges of a cut over the forbidden side.

    A node branches on the unhit forbidden chain with the fewest
    admissible edges (MRV), trying first the edges that break the fewest
    live required chains, then the least label.  Forward checking on the
    required families: a pick that breaks a family's last live chain
    fails at once, and each node derives its bans from the counts, so the
    edges of a family's one live chain are inadmissible while it has one.
    """

    def __init__(self, instance: CcInstance):
        self.forbidden = instance.forbidden_chains
        self.forbidden_of = element_index(self.forbidden)
        self.families = instance.required_families
        # Required chains are numbered family by family, in input order.
        self.family_of = [f for f, family in enumerate(self.families) for _ in family]
        self.required_of: dict[Hashable, list[int]] = {}
        chains = (chain for family in self.families for chain in family)
        for r, chain in enumerate(chains):
            for edge in chain:
                if edge in self.forbidden_of:
                    self.required_of.setdefault(edge, []).append(r)
        # Cut edges per forbidden and per required chain; live chains per family.
        self.hits = [0] * len(self.forbidden)
        self.broken = [0] * len(self.family_of)
        self.live = [len(family) for family in self.families]
        self.cut: list[Hashable] = []

    def pick(self, edge: Hashable) -> bool:
        """Add ``edge`` to the cut; False when some family has no live chain."""
        self.cut.append(edge)
        for i in self.forbidden_of[edge]:
            self.hits[i] += 1
        for r in self.required_of.get(edge, ()):
            self.broken[r] += 1
            if self.broken[r] == 1:
                self.live[self.family_of[r]] -= 1
        return all(self.live)

    def unpick(self) -> Hashable:
        edge = self.cut.pop()
        for i in self.forbidden_of[edge]:
            self.hits[i] -= 1
        for r in self.required_of.get(edge, ()):
            self.broken[r] -= 1
            if not self.broken[r]:
                self.live[self.family_of[r]] += 1
        return edge

    def branches(self, excluded: set) -> list | None:
        """Candidate edges for the next node: [] when every forbidden chain
        is hit, None when some unhit chain has no admissible edge."""
        broken = self.broken
        banned = set(excluded)
        r = 0  # the number of the family's first chain
        for family, live in zip(self.families, self.live):
            if live == 1:
                banned.update(family[broken.index(0, r, r + len(family)) - r])
            r += len(family)
        best = None
        for i, chain in enumerate(self.forbidden):
            if self.hits[i]:
                continue
            admissible = [e for e in chain if e not in banned]
            if best is None or len(admissible) < len(best):
                best = admissible
                if not best:
                    return None
        if best is None:
            return []

        def breaks(edge):
            return sum(1 for r in self.required_of.get(edge, ()) if not broken[r])

        return sorted(best, key=lambda e: (breaks(e), e))


def check_forbidden_first(
    instance: CcInstance,
    *,
    timeout_s: float | None = None,
) -> ConsistencyResult:
    """Strategy II: exact search over the forbidden side.

    First tests the candidate that takes the least label of every
    forbidden chain, which settles loosely constrained instances without
    building any index.  When that candidate breaks a whole family, a
    complete depth-first search decides the instance: it branches on the
    unhit chain with the fewest admissible edges and forward-checks the
    required families (see ``_CutSearch``).  The cut is reported sorted;
    the witnesses are the first disjoint chain per family.  Verdicts agree
    with strategy I on every instance.
    """
    deadline = _deadline(timeout_s)
    picked = frozenset(min(chain) for chain in instance.forbidden_chains)
    witnesses = _survivors(instance, picked)
    if witnesses is None:
        search = _CutSearch(instance)
        if all(search.live) and _depth_first(search, deadline):
            picked = frozenset(search.cut)
            witnesses = _survivors(instance, picked)
    if witnesses is None:
        return ConsistencyResult(False, None, None, "forbidden-first")
    cut = CutSet(tuple(sorted(picked)))
    return ConsistencyResult(True, cut, witnesses, "forbidden-first")


def pick_strategy(instance: CcInstance) -> str:
    """Heuristic: search the side with the smaller combination bound."""
    required_bound = 1
    for family in instance.required_families:
        required_bound *= max(len(family), 1)
    forbidden_bound = 1
    for chain in instance.forbidden_chains:
        forbidden_bound *= max(len(chain), 1)
    return "I" if required_bound <= forbidden_bound else "II"


def check(
    instance: CcInstance,
    strategy: str = "auto",
    *,
    edge_sort_key: Callable[[Hashable, int], tuple] = _label_sort_key,
    timeout_s: float | None = None,
) -> ConsistencyResult:
    """Dispatch to a strategy; ``auto`` picks by combination bound."""
    if strategy == "auto":
        strategy = pick_strategy(instance)
    if strategy == "I":
        return check_required_first(
            instance, edge_sort_key=edge_sort_key, timeout_s=timeout_s
        )
    if strategy == "II":
        return check_forbidden_first(instance, timeout_s=timeout_s)
    raise ValueError(f"unknown strategy {strategy!r}")


def reduce_3sat(formula: ThreeSatFormula) -> CcInstance:
    """Encode satisfiability as consistency.

    One forbidden chain per variable pairs the positive and negative
    literal edges (the cut picks the false one); one required family per
    clause holds three singleton chains, one per literal (a preserved
    singleton is a true literal).
    """
    def label(lit: int) -> str:
        return f"q{lit}" if lit > 0 else f"~q{-lit}"

    forbidden = [
        frozenset({label(v), label(-v)}) for v in range(1, formula.variable_count + 1)
    ]
    required = []
    for clause in formula.clauses:
        family = []
        for lit in clause:
            chain = frozenset({label(lit)})
            if chain not in family:
                family.append(chain)
        required.append(tuple(family))
    return CcInstance(tuple(forbidden), tuple(required))


# ---------------------------------------------------------------------------
# JSON input format
# ---------------------------------------------------------------------------

_CC_KEYS = {"forbidden", "required"}


def load_cc_doc(doc: Mapping) -> CcInstance:
    """Parse an abstract instance: opaque string edge labels."""
    check_object(doc, _CC_KEYS, "instance document")

    def chains(value, where: str) -> tuple[frozenset, ...]:
        # Checked as a list first, so a chain that is no list reads "must be a list".
        return tuple(
            frozenset(doc_list(doc_list(chain, f"{where}[{i}]"), f"{where}[{i}]", str))
            for i, chain in enumerate(doc_list(value, where))
        )

    families = doc_list(doc.get("required", []), "required")
    return CcInstance(
        chains(doc.get("forbidden", []), "forbidden"),
        tuple(chains(family, f"required[{i}]") for i, family in enumerate(families)),
    )


def load_cc_instance(path: str | Path) -> CcInstance:
    return load_cc_doc(read_json(path))
