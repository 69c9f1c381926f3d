"""Random instance generation and timing harness for the consistency check.

Instances are abstract chain sets over an opaque edge universe, which is
exactly what the exhaustive strategies consume.  Sampling is uniform
without replacement within each chain and driven by Python's Mersenne
Twister (``random.Random``), so identical parameters and seed reproduce
the identical instance on any platform.
"""

from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .consistency import CcInstance, ConsistencyTimeout, _validate_timeout, check
from .model import SchemaError, check_object, read_json


@dataclass(frozen=True)
class BenchParams:
    fdg_edges: int
    edges_per_forbidden_chain: int
    forbidden_chain_count: int
    required_set_count: int
    chains_per_required_set: int
    edges_per_required_chain: int
    seed: int

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise ValueError(f"{f.name} must be an integer")
            if f.name != "seed" and value <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.edges_per_forbidden_chain > self.fdg_edges:
            raise ValueError("forbidden chain wider than the edge universe")
        if self.edges_per_required_chain > self.fdg_edges:
            raise ValueError("required chain wider than the edge universe")


@dataclass(frozen=True)
class BenchResult:
    params: BenchParams
    strategy: str
    duration_ms: float
    verdict: bool | None  # None records a timeout
    exp: int  # position of ``params`` in the grid


def generate_instance(params: BenchParams) -> CcInstance:
    """Seeded instance over ``fdg_edges`` opaque labels ``e0..``."""
    rng = random.Random(params.seed)
    universe = [f"e{i}" for i in range(params.fdg_edges)]
    forbidden = tuple(
        frozenset(rng.sample(universe, params.edges_per_forbidden_chain))
        for _ in range(params.forbidden_chain_count)
    )
    required = tuple(
        tuple(
            frozenset(rng.sample(universe, params.edges_per_required_chain))
            for _ in range(params.chains_per_required_set)
        )
        for _ in range(params.required_set_count)
    )
    return CcInstance(forbidden, required)


def run_benchmark(
    grid: Sequence[BenchParams],
    strategies: Sequence[str] = ("I", "II"),
    timeout_s: float = 60.0,
) -> list[BenchResult]:
    """Run every strategy on every generated instance.

    A per-instance timeout is recorded as a result row with verdict None;
    the run continues.  Rows come out in grid order, strategies inner.
    A bad ``timeout_s`` (nan, inf, negative) is refused before any row.
    """
    _validate_timeout(timeout_s)
    results = []
    for exp, params in enumerate(grid):
        instance = generate_instance(params)
        for strategy in strategies:
            start = time.perf_counter()
            try:
                outcome = check(instance, strategy, timeout_s=timeout_s)
                verdict: bool | None = outcome.consistent
            except ConsistencyTimeout:
                verdict = None
            duration = (time.perf_counter() - start) * 1000.0
            results.append(BenchResult(params, strategy, duration, verdict, exp))
    return results


_PARAM_COLUMNS = [f.name for f in fields(BenchParams)]
CSV_HEADER = ["exp", "strategy", *_PARAM_COLUMNS, "duration_ms", "consistent"]


def results_to_csv(
    results: Sequence[BenchResult], names: Sequence[str] | None = None
) -> str:
    """Render results as CSV; ``names[i]`` labels the rows of grid position ``i``."""
    names = names or ()
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for res in results:
        label = names[res.exp] if res.exp < len(names) else f"Exp_{res.exp + 1}"
        verdict = "timeout" if res.verdict is None else str(res.verdict).lower()
        writer.writerow(
            [
                label,
                res.strategy,
                *(getattr(res.params, col) for col in _PARAM_COLUMNS),
                f"{res.duration_ms:.3f}",
                verdict,
            ]
        )
    return out.getvalue()


def load_grid_doc(doc) -> tuple[list[str], list[BenchParams]]:
    """Parse a grid document: a list of parameter objects, optional 'name'."""
    if not isinstance(doc, list):
        raise SchemaError("grid document must be a list")
    names, grid = [], []
    allowed = set(_PARAM_COLUMNS) | {"name"}
    for i, entry in enumerate(doc):
        check_object(entry, allowed, f"grid[{i}]")
        missing = [c for c in _PARAM_COLUMNS if c not in entry]
        if missing:
            raise SchemaError(f"grid[{i}]: missing {missing[0]!r}")
        for c in _PARAM_COLUMNS:
            if type(entry[c]) is not int:
                raise SchemaError(f"grid[{i}].{c}: must be an integer")
        try:
            grid.append(BenchParams(**{c: entry[c] for c in _PARAM_COLUMNS}))
        except ValueError as exc:
            raise SchemaError(f"grid[{i}]: {exc}") from exc
        name = entry.get("name", f"Exp_{i + 1}")
        if not isinstance(name, str):
            raise SchemaError(f"grid[{i}].name: must be a string")
        names.append(name)
    return names, grid


def load_grid(path: str | Path) -> tuple[list[str], list[BenchParams]]:
    return load_grid_doc(read_json(path))
