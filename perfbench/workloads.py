"""Seeded workloads of the schemacut benchmark.

Every input is generated here from the workload seed; the program only
receives the generated schemas, policies and instances.  The generators
are the benchmark's own copies, so a change to the package's fixtures or
test helpers cannot move the inputs under a later comparison.

* ``snowflake``: ``secure_decompose`` on one 80-entity snowflake schema
  (V=400, E=718), 20 forbidden pairs per call drawn along ancestor lines
  and no required sets.  Quadratic graph work dominates.
* ``small_mixed``: ``secure_decompose`` on many small random schemas with
  forbidden and required sets.  Fixed per-call costs, the consistency
  check on real chain instances and the required path dominate.
* ``consistency_grids``: ``check(instance, "auto")`` on the ``table2`` and
  ``table3`` grids under a 1 s limit.  Seed 0 reproduces the bundled
  instances exactly; seed ``s`` redraws each experiment with the same
  shape under sampling seed ``exp_seed + 1000 * s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle

SNOWFLAKE_ENTITIES = 80
SNOWFLAKE_PAIRS = 20
SNOWFLAKE_POLICIES = 128
SMALL_MIXED_INPUTS = 2048
GRID_LIMIT_S = 1.0
GRID_SEED_SHIFT = 1000

# (name, edges_per_forbidden_chain, forbidden_chain_count,
#  edges_per_required_chain, sampling seed) of the bundled table2 and
# table3 grids.  Every row has 1000 edges and 50 required sets of 10 chains.
GRID_EDGES = 1000
GRID_REQUIRED_SETS = 50
GRID_CHAINS_PER_SET = 10
GRID_ROWS = (
    ("Exp_1", 10, 20, 10, 1),
    ("Exp_2", 10, 40, 10, 2),
    ("Exp_3", 10, 60, 10, 3),
    ("Exp_4", 10, 80, 10, 4),
    ("Exp_5", 10, 100, 10, 5),
    ("Exp_6", 10, 100, 10, 6),
    ("Exp_7", 20, 100, 10, 7),
    ("Exp_8", 30, 100, 10, 8),
    ("Exp_9", 40, 100, 10, 9),
    ("Exp_10", 50, 100, 10, 10),
    ("Exp_11", 10, 100, 10, 11),
    ("Exp_12", 10, 80, 10, 12),
    ("Exp_13", 10, 60, 10, 13),
    ("Exp_14", 10, 40, 10, 14),
    ("Exp_15", 10, 20, 10, 15),
    ("Exp_16", 10, 100, 10, 16),
    ("Exp_17", 10, 100, 20, 17),
    ("Exp_18", 10, 100, 30, 18),
    ("Exp_19", 10, 100, 40, 19),
    ("Exp_20", 10, 100, 50, 20),
)
# Toy grid for the smoke check: (edges, required sets, chains per set) and rows.
TINY_GRID = (40, 3, 3)
TINY_GRID_ROWS = (("Tiny_1", 3, 4, 3, 1), ("Tiny_2", 4, 6, 5, 2))


@dataclass
class Workload:
    """Generated inputs plus how to call the program on one and judge it.

    ``call`` looks the entry point up on its module at every call, so the
    span recorder's patch is seen.  ``judge`` returns the list of oracle
    failures of one output (empty when it is correct).  ``expected_error``
    is the exception type that signals a deadline, not a failure.
    """

    inputs: list
    call: Callable[[Any], Any]
    judge: Callable[[Any, Any], list[str]]
    decomposes: bool
    expected_error: type[BaseException] | None = None


def build(name: str, pkg, seed: int, tiny: bool = False) -> Workload:
    if name == "snowflake":
        return _snowflake(pkg, seed, tiny)
    if name == "small_mixed":
        return _small_mixed(pkg, seed, tiny)
    if name == "consistency_grids":
        return _grids(pkg, seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("snowflake", "small_mixed", "consistency_grids")


# ---------------------------------------------------------------------------
# snowflake
# ---------------------------------------------------------------------------

def snowflake_schema(pkg, entities: int):
    """Entity i: key k_i determining a_i, b_i, c_i and its parent's key."""
    relations, fds = [], []
    for i in range(entities):
        key = f"k_{i}"
        rest = [f"a_{i}", f"b_{i}", f"c_{i}"] + ([f"k_{(i - 1) // 2}"] if i else [])
        relations.append((f"E_{i}", [key, *rest], [key]))
        fds.append(([key], rest))
    return pkg.make_schema(relations, fds)


def snowflake_policy(pkg, schema, entities: int, pairs: int, rng: random.Random):
    """Forbidden pairs {x_i, y_j} with j a proper ancestor of entity i.

    Random pairs would mostly be unjoinable and leave an empty cut.
    """
    chosen: set[tuple[str, str]] = set()
    while len(chosen) < pairs:
        i = rng.randrange(1, entities)
        line, j = [], i
        while j:
            j = (j - 1) // 2
            line.append(j)
        j = rng.choice(line)
        pair = (f"{rng.choice('abc')}_{i}", f"{rng.choice('abc')}_{j}")
        chosen.add(tuple(sorted(pair)))
    return pkg.make_policy(schema, forbidden=sorted(chosen))


def _snowflake(pkg, seed: int, tiny: bool) -> Workload:
    entities, pairs, count = (7, 3, 2) if tiny else (
        SNOWFLAKE_ENTITIES, SNOWFLAKE_PAIRS, SNOWFLAKE_POLICIES
    )
    rng = random.Random(seed)
    schema = snowflake_schema(pkg, entities)
    inputs = [
        (schema, snowflake_policy(pkg, schema, entities, pairs, rng)) for _ in range(count)
    ]
    return _decompose_workload(pkg, inputs)


# ---------------------------------------------------------------------------
# small_mixed
# ---------------------------------------------------------------------------

def small_schema(pkg, rng: random.Random):
    """Random schema of at most 12 attributes and 4 relations: each
    relation's first attribute is its key and determines each other member
    with probability 0.8."""
    while True:
        n_attrs = rng.randint(2, 12)
        attrs = [f"a{i}" for i in range(n_attrs)]
        relations, fds = [], []
        for r in range(rng.randint(1, 4)):
            members = rng.sample(attrs, rng.randint(1, min(4, n_attrs)))
            relations.append((f"R{r}", members, [members[0]]))
            for other in members[1:]:
                if rng.random() < 0.8:
                    fds.append(([members[0]], [other]))
        schema = pkg.make_schema(relations, fds)
        if len(schema.attribute_names) >= 2:
            return schema


def small_policy(pkg, schema, rng: random.Random):
    """1-3 forbidden sets of 2-3 attributes; 0-2 required pairs, each taken
    from within one relation."""
    pool = list(schema.attribute_names)
    forbidden = [
        rng.sample(pool, rng.randint(2, min(3, len(pool)))) for _ in range(rng.randint(1, 3))
    ]
    wide = [rel.attributes for rel in schema.relations if len(rel.attributes) >= 2]
    required = [
        rng.sample(rng.choice(wide), 2) for _ in range(rng.randint(0, 2))
    ] if wide else []
    return pkg.make_policy(schema, forbidden=forbidden, required=required)


def _small_mixed(pkg, seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    inputs = []
    for _ in range(8 if tiny else SMALL_MIXED_INPUTS):
        schema = small_schema(pkg, rng)
        inputs.append((schema, small_policy(pkg, schema, rng)))
    return _decompose_workload(pkg, inputs)


def _decompose_workload(pkg, inputs: list) -> Workload:
    pipeline = pkg.pipeline

    def call(item):
        schema, policy = item
        return pipeline.secure_decompose(schema, policy)

    def judge(item, report):
        return oracle.judge_decomposition(pkg, item[0], item[1], report)

    return Workload(inputs, call, judge, decomposes=True)


# ---------------------------------------------------------------------------
# consistency_grids
# ---------------------------------------------------------------------------

def grid_instance(pkg, edges, per_forbidden, forbidden_count, required_sets,
                  chains_per_set, per_required, seed):
    """Same sampling as the bundled grids: Mersenne Twister, uniform
    without replacement within each chain, forbidden chains first."""
    rng = random.Random(seed)
    universe = [f"e{i}" for i in range(edges)]
    forbidden = tuple(
        frozenset(rng.sample(universe, per_forbidden)) for _ in range(forbidden_count)
    )
    required = tuple(
        tuple(frozenset(rng.sample(universe, per_required)) for _ in range(chains_per_set))
        for _ in range(required_sets)
    )
    return pkg.consistency.CcInstance(forbidden, required)


def grid_instances(pkg, seed: int, tiny: bool = False) -> list:
    (edges, sets, per_set), rows = (
        (TINY_GRID, TINY_GRID_ROWS) if tiny
        else ((GRID_EDGES, GRID_REQUIRED_SETS, GRID_CHAINS_PER_SET), GRID_ROWS)
    )
    return [
        grid_instance(pkg, edges, per_f, count, sets, per_set, per_r,
                      exp_seed + GRID_SEED_SHIFT * seed)
        for _, per_f, count, per_r, exp_seed in rows
    ]


def _grids(pkg, seed: int, tiny: bool) -> Workload:
    consistency = pkg.consistency

    def call(instance):
        return consistency.check(instance, "auto", timeout_s=GRID_LIMIT_S)

    return Workload(
        grid_instances(pkg, seed, tiny),
        call,
        oracle.judge_consistency,
        decomposes=False,
        expected_error=consistency.ConsistencyTimeout,
    )
