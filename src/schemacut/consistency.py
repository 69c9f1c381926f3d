"""Required/forbidden consistency checking over abstract chain instances.

An instance carries the forbidden join chains (a cut must intersect every
one) and the required chain families (each family must keep at least one
chain untouched).  Two exact strategies decide the same verdict:

* required-first: enumerate one preserved chain per family; a choice works
  when every forbidden chain keeps an edge outside the protected union.
* forbidden-first: search for a cut that picks an edge of every forbidden
  chain while every family still has a disjoint chain.  A backtracking
  search in the style of DPLL (Davis, Logemann & Loveland 1962): branch on
  the unhit chain with the fewest admissible edges and forward-check the
  required families (Haralick & Elliott 1980).  It decides instances
  whose product of chain sizes is far too large to enumerate.

Both read an optional deadline at their first step and every
``_TIMEOUT_STRIDE`` steps after, so an expired deadline stops the work
before any search.  Deciding consistency is NP-complete; a 3SAT reduction
doubles as a test generator.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import json

from .cut import CutSet, greedy_hitting_set
from .model import SchemaError


class ConsistencyTimeout(Exception):
    """Cooperative deadline exceeded during an exhaustive check."""


_TIMEOUT_STRIDE = 1024


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
    elapsed_ms: float


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


def _deadline_passed(start: float, timeout_s: float | None, steps: int) -> bool:
    """Read the clock at the first step and every ``_TIMEOUT_STRIDE`` steps.

    Reading it at the first step lets an already expired deadline stop the
    work before any search.
    """
    if timeout_s is None or (steps != 1 and steps % _TIMEOUT_STRIDE):
        return False
    return time.perf_counter() - start >= timeout_s


def check_required_first(
    instance: CcInstance,
    *,
    edge_sort_key: Callable[[Hashable, int], tuple] = _label_sort_key,
    timeout_s: float | None = None,
) -> ConsistencyResult:
    """Strategy I: brute-force selection over the required side.

    Enumerates one preserved chain per family in input order; the first
    choice whose protected edge union leaves every forbidden chain an
    escape edge wins.  The cut is then built greedily over the forbidden
    chains restricted to unprotected edges.
    """
    start = time.perf_counter()
    steps = 0
    for choice in itertools.product(*instance.required_families):
        steps += 1
        if _deadline_passed(start, timeout_s, steps):
            raise ConsistencyTimeout
        protected = frozenset().union(*choice) if choice else frozenset()
        if any(chain <= protected for chain in instance.forbidden_chains):
            continue
        restricted = [chain - protected for chain in instance.forbidden_chains]
        cut = greedy_hitting_set(restricted, edge_sort_key)
        elapsed = (time.perf_counter() - start) * 1000.0
        return ConsistencyResult(True, cut, tuple(choice), "required-first", elapsed)
    elapsed = (time.perf_counter() - start) * 1000.0
    return ConsistencyResult(False, None, None, "required-first", elapsed)


class _CutSearch:
    """Backtracking search for a cut over the forbidden side.

    A node branches on the unhit forbidden chain with the fewest
    admissible edges (MRV), trying first the edges that break the fewest
    live required chains, then the least label.  Forward checking on the
    required families: a family left with one live chain makes that
    chain's edges inadmissible, and a pick that breaks a family's last
    live chain fails at once.  An edge whose branch failed stays excluded
    for its siblings, so every cut is explored once.
    """

    def __init__(self, instance: CcInstance):
        self.forbidden = instance.forbidden_chains
        self.forbidden_of: dict[Hashable, list[int]] = {}
        for i, chain in enumerate(self.forbidden):
            for edge in chain:
                self.forbidden_of.setdefault(edge, []).append(i)
        self.required: list[frozenset] = []
        self.family_of: list[int] = []
        self.members: list[list[int]] = []
        self.required_of: dict[Hashable, list[int]] = {}
        for f, family in enumerate(instance.required_families):
            ids = []
            for chain in family:
                r = len(self.required)
                ids.append(r)
                self.required.append(chain)
                self.family_of.append(f)
                for edge in chain:
                    if edge in self.forbidden_of:
                        self.required_of.setdefault(edge, []).append(r)
            self.members.append(ids)
        self.hits = [0] * len(self.forbidden)
        self.broken = [0] * len(self.required)
        self.live = [len(ids) for ids in self.members]
        self.ban: dict[Hashable, int] = {}
        self.excluded: set = set()
        self.cut: list[Hashable] = []
        for ids in self.members:
            if len(ids) == 1:
                self._set_ban(ids[0], 1)

    def _set_ban(self, r: int, delta: int) -> None:
        ban = self.ban
        for edge in self.required[r]:
            ban[edge] = ban.get(edge, 0) + delta

    def _break(self, r: int) -> bool:
        """Break required chain ``r``; False when its family has none left."""
        self.broken[r] += 1
        if self.broken[r] > 1:
            return True
        f = self.family_of[r]
        self.live[f] -= 1
        if self.live[f] == 1:
            last = next(m for m in self.members[f] if not self.broken[m])
            self._set_ban(last, 1)
        elif self.live[f] == 0:
            self._set_ban(r, -1)
            return False
        return True

    def _mend(self, r: int) -> None:
        """Undo ``_break(r)``; calls must come in reverse order."""
        self.broken[r] -= 1
        if self.broken[r]:
            return
        f = self.family_of[r]
        if self.live[f] == 0:
            self._set_ban(r, 1)
        elif self.live[f] == 1:
            last = next(m for m in self.members[f] if not self.broken[m] and m != r)
            self._set_ban(last, -1)
        self.live[f] += 1

    def pick(self, edge: Hashable) -> bool:
        """Add ``edge`` to the cut; False when a family loses its last chain."""
        self.cut.append(edge)
        for i in self.forbidden_of[edge]:
            self.hits[i] += 1
        ok = True
        for r in self.required_of.get(edge, ()):
            # Break every chain even after a failure, so unpick undoes all.
            ok = self._break(r) and ok
        return ok

    def unpick(self) -> Hashable:
        edge = self.cut.pop()
        for r in reversed(self.required_of.get(edge, ())):
            self._mend(r)
        for i in self.forbidden_of[edge]:
            self.hits[i] -= 1
        return edge

    def branches(self) -> list | None:
        """Candidate edges for the next node: [] when every forbidden chain
        is hit, None when some unhit chain has no admissible edge."""
        best = None
        ban, excluded = self.ban, self.excluded
        for i, chain in enumerate(self.forbidden):
            if self.hits[i]:
                continue
            admissible = [e for e in chain if not ban.get(e) and e not in excluded]
            if best is None or len(admissible) < len(best):
                best = admissible
                if not best:
                    return None
        if best is None:
            return []
        broken = self.broken

        def breaks(edge):
            return sum(1 for r in self.required_of.get(edge, ()) if not broken[r])

        return sorted(best, key=lambda e: (breaks(e), e))

    def run(self, start: float, timeout_s: float | None) -> list | None:
        """Depth-first search; the cut in pick order, or None."""
        if not all(self.live):
            return None
        steps = 0
        # Each frame: its candidate edges and the index of the next one.
        stack: list[list] = []
        candidates = self.branches()
        while True:
            steps += 1
            if _deadline_passed(start, timeout_s, steps):
                raise ConsistencyTimeout
            if candidates == []:
                return list(self.cut)
            if candidates is not None:
                stack.append([candidates, 0])
            # Move to the next untried edge, leaving exhausted frames.
            while stack:
                frame = stack[-1]
                options, pos = frame
                if pos:
                    self.excluded.add(self.unpick())
                if pos == len(options):
                    self.excluded.difference_update(options)
                    stack.pop()
                    continue
                frame[1] = pos + 1
                if self.pick(options[pos]):
                    break
            else:
                return None
            candidates = self.branches()


def check_forbidden_first(
    instance: CcInstance,
    *,
    timeout_s: float | None = None,
) -> ConsistencyResult:
    """Strategy II: exact search over the forbidden side.

    First tests the candidate that takes the least label of every
    forbidden chain, which settles loosely constrained instances without
    building any index.  When that candidate breaks a whole family, a
    complete backtracking search decides the instance: it branches on the
    unhit chain with the fewest admissible edges and forward-checks the
    required families (see ``_CutSearch``).  The cut is reported sorted;
    the witnesses are the first disjoint chain per family.  Verdicts agree
    with strategy I on every instance.
    """
    start = time.perf_counter()
    if _deadline_passed(start, timeout_s, 1):
        raise ConsistencyTimeout
    picked = frozenset(min(chain) for chain in instance.forbidden_chains)
    witnesses = _survivors(instance, picked)
    if witnesses is None:
        found = _CutSearch(instance).run(start, timeout_s)
        if found is not None:
            picked = frozenset(found)
            witnesses = _survivors(instance, picked)
    elapsed = (time.perf_counter() - start) * 1000.0
    if witnesses is None:
        return ConsistencyResult(False, None, None, "forbidden-first", elapsed)
    cut = CutSet(tuple(sorted(picked)))
    return ConsistencyResult(True, cut, witnesses, "forbidden-first", elapsed)


def pick_strategy(instance: CcInstance) -> str:
    """Heuristic: brute-force the side with the smaller combination bound."""
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
    if not isinstance(doc, Mapping):
        raise SchemaError("instance document must be an object")
    unknown = sorted(set(doc) - _CC_KEYS)
    if unknown:
        raise SchemaError(f"instance document: unknown key {unknown[0]!r}")
    forbidden = [
        frozenset(str(e) for e in chain) for chain in doc.get("forbidden", [])
    ]
    required = [
        tuple(frozenset(str(e) for e in chain) for chain in family)
        for family in doc.get("required", [])
    ]
    return CcInstance(tuple(forbidden), tuple(required))


def load_cc_instance(path: str | Path) -> CcInstance:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    return load_cc_doc(doc)
