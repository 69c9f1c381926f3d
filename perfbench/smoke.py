"""Smoke check of the benchmark harness at toy size.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at toy size for one pass, untraced and traced, and
fails unless each run is correct and emits exactly the metric names listed
in BENCHMARK.json.  It also checks that seed 0 reproduces the bundled grid
instances, and that every oracle rejects a deliberately wrong output.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import oracle
import run
import workloads


def check_runs(spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in workloads.NAMES:
        for traced, expected in ((False, end_to_end), (True, per_layer)):
            result = run.measure(name, 0, 0, traced, tiny=True)
            assert result["correct"] and result["attempted"] >= 1, (name, traced, result)
            assert set(result["metrics"]) == expected, (name, traced, set(result["metrics"]) ^ expected)
            if name == "consistency_grids" and traced:
                for metric, body in result["metrics"].items():
                    if metric.endswith(".calls") and metric.split(".")[0] in ("fdg", "joinchain", "decompose"):
                        assert body["value"] == 0, metric


def check_grid_seed(pkg) -> None:
    bundled = []
    for grid in pkg.fixtures.GRID_NAMES:
        bundled += [pkg.bench.generate_instance(p) for p in pkg.fixtures.bench_grid(grid)[1]]
    assert workloads.grid_instances(pkg, 0) == bundled, "seed 0 must reproduce the bundled grids"
    assert workloads.grid_instances(pkg, 1) != bundled


def check_oracles(pkg) -> None:
    snowflake = workloads.build("snowflake", pkg, 0, tiny=True)
    schema, policy = snowflake.inputs[0]
    report = snowflake.call((schema, policy))
    assert oracle.judge_decomposition(pkg, schema, policy, report) == []
    whole = [pkg.decompose.Fragment(rel.name, rel.attributes, 0) for rel in schema.relations]
    unsplit = dataclasses.replace(report, result=dataclasses.replace(report.result, fragments=tuple(whole)))
    assert oracle.judge_decomposition(pkg, schema, policy, unsplit), "unsplit relations must fail"
    flipped = dataclasses.replace(report, required_verified=((policy.forbidden[0], True),))
    assert oracle.judge_decomposition(pkg, schema, policy, flipped), "wrong required flags must fail"
    inconsistent = dataclasses.replace(
        report, result=None, consistency=dataclasses.replace(report.consistency, consistent=False)
    )
    assert oracle.judge_decomposition(pkg, schema, policy, inconsistent), "false inconsistency must fail"

    grids = workloads.build("consistency_grids", pkg, 0, tiny=True)
    instance = grids.inputs[0]
    result = grids.call(instance)
    assert oracle.judge_consistency(instance, result) == []
    empty_cut = dataclasses.replace(result, cut=pkg.cut.CutSet(()))
    assert oracle.judge_consistency(instance, empty_cut), "an empty cut must fail"
    everything = dataclasses.replace(result, cut=pkg.cut.CutSet(tuple(sorted(instance.universe))))
    assert oracle.judge_consistency(instance, everything), "cutting every edge must fail"
    assert oracle.confirm_inconsistent([frozenset("a")], [[frozenset("a")]]) == []
    assert oracle.confirm_inconsistent([frozenset("ab")], [[frozenset("a")]])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_runs(spec)
    pkg = run.load_program()
    check_grid_seed(pkg)
    check_oracles(pkg)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
