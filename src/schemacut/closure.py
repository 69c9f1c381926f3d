"""Dependency normalisation, attribute-set closure and identifiers.

The full dependency closure is never materialised (it is exponential).
Every closure query (attribute closures, identifiers, verification by
closure and, under no dependencies, containment) is one ``closure_masks``
fixpoint.  A re-cut asks how one closure reached a set:
``closure_reasons`` records it and ``derivation`` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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


def holders(masks: Mapping[str, int], attrs: Iterable[str]) -> int:
    """Bit ``i`` is set iff the closure of group ``i`` holds every attribute
    of ``attrs`` (all bits, -1, when ``attrs`` is empty)."""
    common = -1
    for attr in attrs:
        common &= masks.get(attr, 0)
    return common


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first; a negative
    mask has infinitely many and is refused."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def closure_reasons(
    seed: Iterable[str], fds: Sequence[FunctionalDependency]
) -> dict[str, FunctionalDependency | None]:
    """The closure of ``seed`` under ``fds``, in the order it grew, each
    attribute mapped to the dependency that added it (``None`` for a seed).

    Beeri & Bernstein's counting closure: a dependency fires, in the order
    dependencies become ready, once its last missing lhs attribute is added.
    """
    reasons: dict[str, FunctionalDependency | None] = dict.fromkeys(seed)
    missing = [0] * len(fds)
    readers: dict[str, list[int]] = {}
    for i, dep in enumerate(fds):
        for attr in set(dep.lhs).difference(reasons):
            missing[i] += 1
            readers.setdefault(attr, []).append(i)
    ready = [i for i, count in enumerate(missing) if not count]
    for i in ready:  # first in, first out: the loop reads what it appends
        for attr in fds[i].rhs:
            if attr not in reasons:
                reasons[attr] = fds[i]
                for j in readers.get(attr, ()):
                    missing[j] -= 1
                    if not missing[j]:
                        ready.append(j)
    return reasons


def derivation(
    reasons: Mapping[str, FunctionalDependency | None], target: Iterable[str]
) -> tuple[AttributeSet, tuple[FunctionalDependency, ...]]:
    """The seed attributes and the dependencies that ``reasons`` (from
    ``closure_reasons``) used to reach ``target``, which it must hold.

    Together they are a B-hyperpath (Ausiello, D'Atri & Saccà, JACM 1983):
    the seed attributes closed under only these dependencies hold ``target``.
    Walking the closure backwards meets every attribute after all that used it.
    """
    need = set(target)
    seeds: list[str] = []
    used: list[FunctionalDependency] = []
    for attr, dep in reversed(reasons.items()):
        if attr in need:
            if dep is None:
                seeds.append(attr)
            else:
                used.append(dep)
                need.update(dep.lhs)
    return attr_set(seeds), tuple(used)


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
    return tuple(others[i] for i in set_bits(closure_masks(others, fds).get(attr, 0)))
