from __future__ import annotations

from dataclasses import replace

import pytest

from schemacut import (
    BenchParams,
    fixtures,
    generate_instance,
    results_to_csv,
    run_benchmark,
)
from schemacut.bench import CSV_HEADER, load_grid_doc
from schemacut.model import SchemaError

SMALL = BenchParams(
    fdg_edges=40,
    edges_per_forbidden_chain=3,
    forbidden_chain_count=4,
    required_set_count=2,
    chains_per_required_set=2,
    edges_per_required_chain=3,
    seed=1,
)


def test_instance_shape():
    instance = generate_instance(SMALL)
    assert len(instance.forbidden_chains) == 4
    assert all(len(c) == 3 for c in instance.forbidden_chains)
    assert len(instance.required_families) == 2
    assert all(len(f) == 2 for f in instance.required_families)
    assert instance.universe <= {f"e{i}" for i in range(40)}


def test_minimal_params():
    params = BenchParams(1, 1, 1, 1, 1, 1, 0)
    instance = generate_instance(params)
    assert instance.forbidden_chains == (frozenset({"e0"}),)
    assert instance.required_families == ((frozenset({"e0"}),),)


def test_same_seed_reproduces():
    assert generate_instance(SMALL) == generate_instance(SMALL)


def test_different_seeds_differ():
    other = BenchParams(**{**SMALL.__dict__, "seed": 2})
    assert generate_instance(SMALL) != generate_instance(other)


def test_param_validation():
    with pytest.raises(ValueError):
        BenchParams(10, 0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        BenchParams(10, 11, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="^required chain wider than the edge universe$"):
        BenchParams(10, 1, 1, 1, 1, 11, 1)


@pytest.mark.parametrize("value", [20.0, 2.5, "20", True])
@pytest.mark.parametrize("field", ["fdg_edges", "seed"])
def test_params_must_be_integers(field, value):
    # Refused where they are made, not later inside generate_instance.
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        BenchParams(**{**SMALL.__dict__, field: value})


def test_run_benchmark_rows_and_reproducibility():
    grid = [SMALL, BenchParams(**{**SMALL.__dict__, "seed": 2})]
    first = run_benchmark(grid, ["I", "II"], timeout_s=10.0)
    assert len(first) == 4
    assert [r.strategy for r in first] == ["I", "II", "I", "II"]
    assert all(r.duration_ms >= 0 for r in first)
    second = run_benchmark(grid, ["I", "II"], timeout_s=10.0)
    assert [r.verdict for r in first] == [r.verdict for r in second]
    # strategies agree per instance
    assert first[0].verdict == first[1].verdict
    assert first[2].verdict == first[3].verdict


def test_empty_grid():
    assert run_benchmark([], ["I"]) == []
    assert results_to_csv([]) == ",".join(CSV_HEADER) + "\r\n"


def test_timeout_recorded_as_row():
    # An instance with sizeable chains on both sides.  The deadline has
    # already expired when the check starts, and the checker reads it at
    # its first step, so the row records a timeout however fast the
    # search would have been.
    hard = BenchParams(
        fdg_edges=300,
        edges_per_forbidden_chain=4,
        forbidden_chain_count=40,
        required_set_count=30,
        chains_per_required_set=4,
        edges_per_required_chain=40,
        seed=3,
    )
    rows = run_benchmark([hard], ["II"], timeout_s=0.0)
    assert len(rows) == 1
    assert rows[0].verdict is None
    text = results_to_csv(rows)
    assert "timeout" in text


def test_csv_format_and_names():
    rows = run_benchmark([SMALL], ["I"], timeout_s=10.0)
    text = results_to_csv(rows, ["Exp_1"])
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    cells = lines[1].split(",")
    assert cells[0] == "Exp_1"
    assert cells[1] == "I"
    assert cells[2] == "40"
    assert cells[-1] in {"true", "false"}


def test_csv_labels_rows_by_grid_position():
    other = replace(SMALL, seed=SMALL.seed + 1)
    rows = run_benchmark([SMALL, SMALL, other], ["I"], timeout_s=10.0)
    labels = [line.split(",")[0] for line in results_to_csv(rows, ["a", "b", "c"]).splitlines()]
    assert labels[1:] == ["a", "b", "c"]


def test_bundled_grids_parse():
    for name, expected_first in (("table2", "Exp_1"), ("table3", "Exp_11")):
        names, grid = fixtures.bench_grid(name)
        assert len(grid) == 10
        assert names[0] == expected_first
        assert all(p.fdg_edges == 1000 for p in grid)


def test_grid_doc_validation():
    with pytest.raises(SchemaError, match="^grid document must be a list$"):
        load_grid_doc({"fdg_edges": 10})
    with pytest.raises(Exception, match="missing"):
        load_grid_doc([{"fdg_edges": 10}])
    with pytest.raises(Exception, match="unknown key"):
        load_grid_doc(
            [
                {
                    "name": "x",
                    "fdg_edges": 10,
                    "edges_per_forbidden_chain": 2,
                    "forbidden_chain_count": 1,
                    "required_set_count": 1,
                    "chains_per_required_set": 1,
                    "edges_per_required_chain": 2,
                    "seed": 1,
                    "bogus": 1,
                }
            ]
        )


GRID_ENTRY = {
    "fdg_edges": 10,
    "edges_per_forbidden_chain": 2,
    "forbidden_chain_count": 1,
    "required_set_count": 1,
    "chains_per_required_set": 1,
    "edges_per_required_chain": 2,
    "seed": 1,
}


@pytest.mark.parametrize(
    "value, message",
    [
        ([10], "grid[0].fdg_edges: must be an integer"),
        (None, "grid[0].fdg_edges: must be an integer"),
        (True, "grid[0].fdg_edges: must be an integer"),
        (2.5, "grid[0].fdg_edges: must be an integer"),
        (0, "grid[0]: fdg_edges must be positive"),
    ],
    ids=["list", "null", "true", "float", "zero"],
)
def test_grid_values_must_be_positive_integers(value, message):
    with pytest.raises(SchemaError) as info:
        load_grid_doc([{**GRID_ENTRY, "fdg_edges": value}])
    assert str(info.value) == message


def test_durations_track_brute_force_set_size():
    # Work per strategy-I choice grows with the checked forbidden volume.
    # Compare medians over several seeds with a generous tolerance; wall
    # clock is noisy, so only a gross inversion would fail.
    import statistics

    def median_ms(chain_count):
        times = []
        for seed in range(5):
            params = BenchParams(
                fdg_edges=400,
                edges_per_forbidden_chain=8,
                forbidden_chain_count=chain_count,
                required_set_count=20,
                chains_per_required_set=4,
                edges_per_required_chain=8,
                seed=seed,
            )
            rows = run_benchmark([params], ["I"], timeout_s=10.0)
            assert rows[0].verdict is not None
            times.append(rows[0].duration_ms)
        return statistics.median(times)

    small, large = median_ms(5), median_ms(120)
    assert large >= small * 0.5


@pytest.mark.parametrize("name", [None, 5, ["Exp_1"]], ids=["null", "number", "list"])
def test_grid_name_must_be_a_string(name):
    with pytest.raises(SchemaError) as info:
        load_grid_doc([GRID_ENTRY, {**GRID_ENTRY, "name": name}])
    assert str(info.value) == "grid[1].name: must be a string"
    assert load_grid_doc([GRID_ENTRY, {**GRID_ENTRY, "name": "x"}])[0] == ["Exp_1", "x"]


@pytest.mark.parametrize("timeout_s", [float("nan"), float("inf"), -1.0])
def test_a_bad_limit_is_refused_before_any_row(timeout_s):
    # Refused at entry, even when the grid holds nothing to check.
    with pytest.raises(ValueError, match="timeout_s"):
        run_benchmark([], timeout_s=timeout_s)
    with pytest.raises(ValueError, match="timeout_s"):
        run_benchmark([SMALL], ["I"], timeout_s=timeout_s)
