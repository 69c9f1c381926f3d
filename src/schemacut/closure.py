"""Dependency normalisation, attribute-set closure and identifiers.

The full dependency closure is never materialised (it is exponential).
Every closure query (attribute closures, identifiers, and verification
by closure in the pipeline) is one ``closure_masks`` fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import AttributeSet, FunctionalDependency, attr_set


@dataclass(frozen=True)
class DecomposedFdSet:
    """Dependencies rewritten so each right-hand side is a single attribute.

    ``origin[i]`` is the index of the source dependency that produced
    ``fds[i]``, for provenance.
    """

    fds: tuple[FunctionalDependency, ...]
    origin: tuple[int, ...]

    def __iter__(self):
        return iter(self.fds)


def decompose_fds(fds: Sequence[FunctionalDependency]) -> DecomposedFdSet:
    """Split every dependency into one dependency per right-hand attribute.

    The result is closure-equivalent to the input and duplicate-free;
    first occurrence wins for provenance.
    """
    out: list[FunctionalDependency] = []
    origin: list[int] = []
    seen: set[tuple[AttributeSet, str]] = set()
    for idx, dep in enumerate(fds):
        for attr in dep.rhs:
            if attr in dep.lhs:
                continue
            key = (dep.lhs, attr)
            if key in seen:
                continue
            seen.add(key)
            out.append(FunctionalDependency(dep.lhs, (attr,), dep.probabilistic))
            origin.append(idx)
    return DecomposedFdSet(tuple(out), tuple(origin))


def closure_masks(
    groups: Sequence[Iterable[str]], fds: Iterable[FunctionalDependency]
) -> dict[str, int]:
    """Bit ``i`` of ``masks[a]`` is set iff ``a`` is in the closure of ``groups[i]``.

    All groups close in one worklist, the closure of Beeri & Bernstein (TODS
    1979) run bitwise: masks start from group membership, and a dependency
    ORs the AND of its lhs masks into its rhs, re-queueing the dependencies
    that read an attribute whose mask grew.  Attributes in no closure are absent.
    """
    masks: dict[str, int] = {}
    for i, group in enumerate(groups):
        for attr in group:
            masks[attr] = masks.get(attr, 0) | 1 << i
    everyone = (1 << len(groups)) - 1  # the AND over an empty lhs
    queue = list(fds)
    readers: dict[str, list[FunctionalDependency]] = {}
    for dep in queue:
        for attr in dep.lhs:
            readers.setdefault(attr, []).append(dep)
    while queue:
        dep = queue.pop()
        reach = everyone
        for attr in dep.lhs:
            reach &= masks.get(attr, 0)
        for attr in dep.rhs:
            grown = reach & ~masks.get(attr, 0)
            if grown:
                masks[attr] = masks.get(attr, 0) | grown
                queue.extend(readers.get(attr, ()))
    return masks


def associable(masks: Mapping[str, int], attrs: Iterable[str]) -> bool:
    """Whether one group's closure holds every attribute of ``attrs``."""
    common = -1
    for attr in attrs:
        common &= masks.get(attr, 0)
    return common != 0


def attribute_closure(start: Iterable[str], fds: DecomposedFdSet) -> AttributeSet:
    """Smallest superset S of ``start`` with lhs ⊆ S implying rhs ⊆ S for all fds."""
    return attr_set(closure_masks([start], fds))


def identifiers_of(
    attr: str,
    fds: DecomposedFdSet,
    candidates: Sequence[AttributeSet],
) -> tuple[AttributeSet, ...]:
    """Candidate sets that determine ``attr`` without containing it."""
    others = [cand for cand in sorted(set(candidates)) if attr not in cand]
    determined = closure_masks(others, fds).get(attr, 0)
    return tuple(cand for i, cand in enumerate(others) if determined >> i & 1)
