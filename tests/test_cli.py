from __future__ import annotations

import dataclasses
import json
import re
import sqlite3

import pytest

from schemacut import decomposition_from_dict, fixtures, load_schema_doc, secure_decompose
from schemacut.cli import build_parser, main

from .conftest import union_rule_doc
from .goldens import V


def fixture_file(name):
    return str(fixtures.fixture_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_example2(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, stderr = run(
        capsys, "decompose", fixture_file("example2"), "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["fragments"]) == 8
    assert doc["security_verified"] is True
    assert "fragments=8" in stdout
    assert "cut=5" in stdout


def test_decompose_report_roundtrip(tmp_path, capsys, example2):
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "decompose", fixture_file("example2"), "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    schema, policy = example2
    assert decomposition_from_dict(doc) == secure_decompose(schema, policy).result


def test_decompose_writes_sql_and_dot(tmp_path, capsys):
    sql = tmp_path / "views.sql"
    dot = tmp_path / "graph.dot"
    code, _, _ = run(
        capsys,
        "decompose",
        fixture_file("example2"),
        "--out", str(tmp_path / "r.json"),
        "--sql", str(sql),
        "--dot", str(dot),
    )
    assert code == 0
    assert sql.read_text().count("CREATE VIEW") == 8
    assert dot.read_text().count("[color=red, style=bold]") == 5


def test_decompose_sql_runs_beside_a_table_that_hiding_emptied(tmp_path, capsys):
    # S1 loses its only attribute, X, yet its base table exists in SQL.
    doc = {
        "relations": [
            {"name": "S", "attributes": ["A", "B", "C"], "primary_key": ["A"]},
            {"name": "S1", "attributes": ["X"], "primary_key": ["X"]},
        ],
        "fds": [{"lhs": ["A"], "rhs": ["B", "C"]}],
        "policy": {"forbidden": [["X"], ["B", "C"]]},
    }
    path, sql = tmp_path / "s.json", tmp_path / "views.sql"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "decompose", str(path), "--out", str(tmp_path / "r.json"),
                     "--sql", str(sql))
    assert code == 0
    db = sqlite3.connect(":memory:")
    try:
        db.executescript("CREATE TABLE S (A, B, C); CREATE TABLE S1 (X);" + sql.read_text())
        views = db.execute("SELECT name FROM sqlite_master WHERE type = 'view' ORDER BY rowid")
        assert [name for (name,) in views] == ["S1_view", "S2"]
    finally:
        db.close()


def test_decompose_dot_draws_the_graph_the_cut_was_made_on(tmp_path, capsys):
    # Forbidding {C} deletes C before the cut; the drawing must show the
    # preprocessed graph, with every cut edge (here ABD -> B) in red.
    doc = {
        "relations": [{"name": "R", "attributes": ["A", "B", "C", "D"], "primary_key": ["A"]}],
        "fds": [],
        "policy": {"forbidden": [["C"], ["B", "D"]], "required": []},
    }
    path = tmp_path / "deleted.json"
    path.write_text(json.dumps(doc))
    dot = tmp_path / "graph.dot"
    code, _, stderr = run(capsys, "decompose", str(path), "--dot", str(dot))
    assert code == 0
    assert "cut=1" in stderr
    text = dot.read_text()
    assert '"C"' not in text and '"ABCD"' not in text
    assert '  n1 [label="ABD"];\n  n2 [label="B"];' in text
    red = [line for line in text.splitlines() if "[color=red, style=bold]" in line]
    assert red == ["  n1 -> n2 [color=red, style=bold];"]


def test_decompose_dot_shows_only_the_edges_the_decomposition_forbids(tmp_path, capsys):
    # example0's cut picks A -> B, A -> C and ABCD -> B; reverse-delete drops
    # A -> C, so new_forbidden is {A, B} and {A, B, C, D}.  The dropped
    # edge is neither drawn red nor counted.
    dot = tmp_path / "graph.dot"
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "decompose", fixture_file("example0"), "--out", str(out), "--dot", str(dot)
    )
    assert code == 0
    assert json.loads(out.read_text())["new_forbidden"] == [["A", "B"], ["A", "B", "C", "D"]]
    assert "cut=2" in stdout
    text = dot.read_text()
    assert '  n0 [label="A"];\n  n1 [label="ABCD"];\n  n2 [label="B"];' in text
    red = [line for line in text.splitlines() if "[color=red, style=bold]" in line]
    assert red == ["  n0 -> n2 [color=red, style=bold];", "  n1 -> n2 [color=red, style=bold];"]


def red_edges(text):
    """The (source label, destination label) pairs a DOT drawing shows in red."""
    labels = dict(re.findall(r'^  (n\d+) \[label="(.*)"\];$', text, re.M))
    red = re.findall(r"^  (n\d+) -> (n\d+) \[color=red, style=bold\];$", text, re.M)
    return {(labels[src], labels[dst]) for src, dst in red}


def test_decompose_dot_shows_the_edges_a_recut_forbids(tmp_path, capsys):
    # The union rule's first round cuts nothing: no join chain reaches
    # {A, D}.  The re-cut forbids {A, B}, which three edges of the graph
    # span; all three are drawn red and counted.
    path = tmp_path / "union.json"
    path.write_text(json.dumps(union_rule_doc()))
    dot = tmp_path / "graph.dot"
    code, _, stderr = run(capsys, "decompose", str(path), "--dot", str(dot))
    assert code == 0
    assert "surviving associations: {A, B}\n" in stderr
    assert red_edges(dot.read_text()) == {("A", "B"), ("AB", "A"), ("AB", "B")}
    assert "cut=3 " in stderr


def test_decompose_inconsistent_exits_2(tmp_path, capsys):
    doc = {
        "relations": [
            {"name": "R", "attributes": ["A", "B"], "primary_key": ["A"]},
            {"name": "S", "attributes": ["A", "C"], "primary_key": ["A"]},
        ],
        "fds": [
            {"lhs": ["A"], "rhs": ["B"]},
            {"lhs": ["A"], "rhs": ["C"]},
        ],
        "policy": {"forbidden": [["B", "C"]], "required": [["B", "C"]]},
    }
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "decompose", str(path))
    assert code == 2
    assert "inconsistent" in stderr


def test_decompose_union_rule_association_exits_0_after_a_recut(tmp_path, capsys):
    path = tmp_path / "union.json"
    path.write_text(json.dumps(union_rule_doc()))
    code, stdout, stderr = run(capsys, "decompose", str(path))
    assert code == 0
    assert (
        "warning: additional co-occurrence constraints were needed to break "
        "surviving associations: {A, B}\n"
    ) in stderr
    assert "secure=true" in stderr


def test_decompose_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, stderr = run(capsys, "decompose", str(path))
    assert code == 1
    assert "error" in stderr


def test_decompose_missing_file_exits_1(capsys):
    code, _, _ = run(capsys, "decompose", "/no/such/file.json")
    assert code == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"relations": 5, "fds": []}, "relations: must be a list"),
        (
            {"relations": [{"name": "R", "attributes": 5, "primary_key": ["A"]}], "fds": []},
            "relations[0].attributes: must be a list of strings",
        ),
        (
            {"relations": [{"name": 7, "attributes": ["A"], "primary_key": ["A"]}], "fds": []},
            "relations[0].name: must be a non-empty string",
        ),
        (
            {
                "relations": [{"name": "R", "attributes": ["A", "B"], "primary_key": ["A"]}],
                "fds": [],
                "policy": {"forbidden": [["A", 3]]},
            },
            "policy.forbidden[0]: must be a list of strings",
        ),
        (
            {
                "relations": [{"name": "R", "attributes": ["A", "B"], "primary_key": ["A"]}],
                "fds": [{"lhs": ["A"], "rhs": ["B"], "probabilistic": "false"}],
            },
            "fds[0].probabilistic: must be true or false",
        ),
    ],
    ids=[
        "relations-not-a-list",
        "attributes-not-a-list",
        "name-a-number",
        "forbidden-number",
        "probabilistic-a-string",
    ],
)
def test_decompose_badly_shaped_schema_exits_1(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "decompose", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"


@pytest.mark.parametrize("label", ["forbidden", "required"])
def test_decompose_empty_policy_set_exits_1(tmp_path, capsys, label):
    doc = {
        "relations": [{"name": "R", "attributes": ["A", "B", "C"], "primary_key": ["A"]}],
        "fds": [{"lhs": ["A"], "rhs": ["B"]}],
        "policy": {"forbidden": [["A", "B"]], "required": []},
    }
    doc["policy"][label].append([])
    path = tmp_path / "empty_set.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "decompose", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {label} set is empty\n"


@pytest.mark.parametrize("command", ["decompose", "check"])
def test_input_not_utf8_exits_1(tmp_path, capsys, command):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, stdout, stderr = run(capsys, command, str(path))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {path}: not valid UTF-8: ")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["decompose", "check", "bench"])
def test_input_nested_too_deeply_exits_1(tmp_path, capsys, command):
    # The JSON decoder recurses once per level and gives up long before this.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, stdout, stderr = run(capsys, command, str(path))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", fixture_file("example2"), "--out"],
        ["decompose", fixture_file("example2"), "--sql"],
        ["decompose", fixture_file("example2"), "--dot"],
        ["bench", "GRID", "--csv"],
        ["export-dot", fixture_file("example2"), "--out"],
    ],
    ids=["decompose-out", "decompose-sql", "decompose-dot", "bench-csv", "export-dot-out"],
)
def test_write_under_missing_directory_exits_1(tmp_path, capsys, argv):
    grid = tmp_path / "grid.json"
    grid.write_text("[]")
    argv = [str(grid) if a == "GRID" else a for a in argv]
    code, _, stderr = run(capsys, *argv, str(tmp_path / "missing" / "out.txt"))
    assert code == 1
    assert stderr.startswith("error: ")
    assert "Traceback" not in stderr


def test_bench_grid_value_not_an_integer_exits_1(tmp_path, capsys):
    entry = {
        "fdg_edges": [10],
        "edges_per_forbidden_chain": 2,
        "forbidden_chain_count": 1,
        "required_set_count": 1,
        "chains_per_required_set": 1,
        "edges_per_required_chain": 2,
        "seed": 1,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([entry]))
    code, stdout, stderr = run(capsys, "bench", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr == "error: grid[0].fdg_edges: must be an integer\n"


def test_program_fault_keeps_its_traceback(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("unexpected fault")

    monkeypatch.setattr("schemacut.cli.secure_decompose", broken)
    with pytest.raises(RuntimeError, match="unexpected fault"):
        main(["decompose", fixture_file("example0")])


@pytest.mark.parametrize(
    "secure, required, code",
    [
        (True, (), 0),
        (True, (True, True), 0),
        (True, (True, False), 3),
        (False, (), 3),
        (False, (True,), 3),
        (False, (False,), 3),
    ],
)
def test_verification_flags_set_the_exit_code(capsys, monkeypatch, example0, secure, required, code):
    # example0's real report with its verification flags replaced: the exit
    # code and the summary follow the flags, whatever the pipeline found.
    schema, policy = example0
    real = secure_decompose(schema, policy)
    sets = (("A", "D"), ("B", "D"), ("C", "D"))
    report = dataclasses.replace(
        real,
        security_verified=secure,
        required_verified=tuple(zip(sets, required)),
    )
    monkeypatch.setattr("schemacut.cli.secure_decompose", lambda *args, **kwargs: report)
    got, _, stderr = run(capsys, "decompose", fixture_file("example0"))
    assert got == code
    summary = f"secure={str(secure).lower()} required_ok={str(all(required)).lower()}"
    assert re.search(rf"^fragments=\d+ cut=\d+ {summary}$", stderr, re.M)


def test_exhausted_recut_rounds_exit_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    # The union-rule schema needs one re-cut round; allow none.
    monkeypatch.setattr("schemacut.pipeline._MAX_RECUT_ROUNDS", 0)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(union_rule_doc()))
    code, stdout, stderr = run(capsys, "decompose", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr == "error: re-cut did not converge in 0 rounds: {A, D} still associable\n"


@pytest.mark.parametrize("command", ["decompose", "chains"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_max_paths_must_be_positive(capsys, command, value):
    extra = ["--set", "A,B"] if command == "chains" else []
    code, stdout, stderr = run(
        capsys, command, fixture_file("example0"), *extra, "--max-paths", value
    )
    assert code == 1
    assert stdout == ""
    assert f"--max-paths: must be a positive integer, got {value}" in stderr


def test_max_width_must_be_positive(capsys):
    code, _, stderr = run(capsys, "decompose", fixture_file("example0"), "--max-width", "0")
    assert code == 1
    assert "--max-width: must be a positive integer" in stderr


def test_check_badly_shaped_instance_exits_1(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"forbidden": 3}))
    code, stdout, stderr = run(capsys, "check", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr == "error: forbidden: must be a list\n"


def test_check_label_not_a_string_exits_1(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"forbidden": [[1, "1"]], "required": []}))
    code, stdout, stderr = run(capsys, "check", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr == "error: forbidden[0]: must be a list of strings\n"


def test_check_first_instance(capsys):
    code, stdout, _ = run(capsys, "check", fixture_file("cc1"))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["consistent"] is True
    assert doc["cut"] == ["a", "g"]
    assert sorted(map(tuple, doc["preserved"])) == [("b", "c", "f"), ("d", "e")]


def test_check_second_instance_exits_2(capsys):
    code, stdout, _ = run(capsys, "check", fixture_file("cc2"), "--strategy", "II")
    assert code == 2
    assert json.loads(stdout)["consistent"] is False


def test_check_stops_at_its_timeout(capsys):
    code, _, stderr = run(capsys, "check", fixture_file("cc1"), "--timeout", "0")
    assert code == 1
    assert "consistency check timed out" in stderr


@pytest.mark.parametrize("command", ["check", "bench"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_timeout_must_be_finite_and_not_negative(capsys, command, value):
    # Neither nan nor inf would ever fire, so they must not start a run.
    # A non-number gets the same message, not argparse's one naming the parser.
    path = fixture_file("cc1" if command == "check" else "table3")
    code, stdout, stderr = run(capsys, command, path, "--timeout", value)
    assert code == 1
    assert stdout == ""
    assert f"--timeout: must be a finite number of seconds >= 0, got {value}" in stderr


def test_check_timeout_defaults_to_60_seconds():
    assert build_parser().parse_args(["check", "inst.json"]).timeout == 60.0


def test_check_no_required_sets(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"forbidden": [["a", "b"]], "required": []}))
    code, stdout, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(stdout)["consistent"] is True


def test_check_consistent_without_required_sets_preserves_nothing(tmp_path, capsys):
    # An empty preservation is not the null of an inconsistent verdict.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"forbidden": [["a"]]}))
    code, stdout, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(stdout)["preserved"] == []


def test_chains_example1(capsys):
    code, stdout, _ = run(
        capsys, "chains", fixture_file("example1"), "--set", "F,B"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["chains"]) == 8
    assert doc["set"] == ["B", "F"]
    edges = {tuple(c["edges"]) for c in doc["chains"]}
    assert ("A->B", "AE->A", "AE->E", "E->F") in edges


def test_chains_separates_multi_character_names(tmp_path, capsys):
    # With a name like AB in the schema, the vertices {A, B} and {AB} would
    # both print as AB; names are then joined with commas.
    doc = {
        "relations": [
            {"name": "R", "attributes": ["A", "B"], "primary_key": ["A"]},
            {"name": "S", "attributes": ["AB", "B", "C"], "primary_key": ["AB"]},
        ],
        "fds": [{"lhs": ["A"], "rhs": ["B"]}, {"lhs": ["AB"], "rhs": ["B", "C"]}],
    }
    path = tmp_path / "long_names.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "chains", str(path), "--set", "B,C")
    assert code == 0
    assert json.loads(stdout)["chains"] == [
        {"ancestor": "AB", "edges": ["AB->B", "AB->C"]},
        {"ancestor": "AB,B,C", "edges": ["AB,B,C->AB", "AB,B,C->C", "AB->B"]},
        {"ancestor": "AB,B,C", "edges": ["AB,B,C->AB", "AB,B,C->B", "AB->C"]},
        {"ancestor": "AB,B,C", "edges": ["AB,B,C->B", "AB,B,C->C"]},
    ]


def test_chains_single_attribute_warns(capsys):
    code, stdout, stderr = run(
        capsys, "chains", fixture_file("example1"), "--set", "B"
    )
    assert code == 0
    assert "trivially associable" in stderr
    assert json.loads(stdout)["chains"] == [{"ancestor": "B", "edges": []}]


def test_chains_empty_set_exits_1(capsys):
    code, stdout, stderr = run(capsys, "chains", fixture_file("example1"), "--set", ",")
    assert code == 1
    assert stdout == ""
    assert stderr == "error: --set needs at least one attribute\n"


def test_chains_truncated_by_limits_warns(capsys):
    code, stdout, stderr = run(
        capsys, "chains", fixture_file("example1"), "--set", "F,B", "--max-paths", "1"
    )
    assert code == 0
    assert stderr == "warning: enumeration truncated by limits\n"
    assert json.loads(stdout)["truncated"] is True


def test_chains_unknown_attribute_exits_1(capsys):
    code, _, stderr = run(
        capsys, "chains", fixture_file("example1"), "--set", "F,Z"
    )
    assert code == 1
    assert "unknown target" in stderr


def test_chains_disconnected_pair(tmp_path, capsys):
    doc = {
        "relations": [
            {"name": "R", "attributes": ["A"], "primary_key": ["A"]},
            {"name": "S", "attributes": ["B"], "primary_key": ["B"]},
        ],
        "fds": [],
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "chains", str(path), "--set", "A,B")
    assert code == 0
    assert json.loads(stdout)["chains"] == []


def test_bench_small_grid(tmp_path, capsys):
    grid = [
        {
            "name": "tiny",
            "fdg_edges": 30,
            "edges_per_forbidden_chain": 3,
            "forbidden_chain_count": 3,
            "required_set_count": 2,
            "chains_per_required_set": 2,
            "edges_per_required_chain": 3,
            "seed": 5,
        }
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    csv_path = tmp_path / "out.csv"
    code, _, _ = run(
        capsys, "bench", str(path), "--strategies", "I,II", "--csv", str(csv_path)
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 strategy rows
    assert lines[1].startswith("tiny,I,30")


def test_bench_empty_grid(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text("[]")
    code, stdout, _ = run(capsys, "bench", str(path))
    assert code == 0
    assert stdout.strip() == "exp,strategy,fdg_edges,edges_per_forbidden_chain," \
        "forbidden_chain_count,required_set_count,chains_per_required_set," \
        "edges_per_required_chain,seed,duration_ms,consistent"


def test_bench_bad_strategy_exits_1(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text("[]")
    code, _, stderr = run(capsys, "bench", str(path), "--strategies", "X")
    assert code == 1


@pytest.mark.parametrize("strategies", ["", ","])
def test_bench_no_strategy_exits_1(tmp_path, capsys, strategies):
    path = tmp_path / "grid.json"
    path.write_text("[]")
    code, stdout, stderr = run(capsys, "bench", str(path), "--strategies", strategies)
    assert (code, stdout) == (1, "")
    assert stderr == "error: --strategies needs at least one strategy\n"


def test_export_dot(capsys):
    code, stdout, _ = run(capsys, "export-dot", fixture_file("example1"))
    assert code == 0
    assert stdout.startswith("digraph fdg {")
    assert stdout.count("->") == 24


def test_version(capsys):
    code, stdout, _ = run(capsys, "--version")
    assert code == 0
    assert stdout.strip().count(".") == 2


def test_usage_error_exit_code(capsys):
    assert main(["unknown-subcommand"]) == 1


def test_byte_deterministic_outputs(tmp_path, capsys):
    first = run(capsys, "export-dot", fixture_file("example2"))
    second = run(capsys, "export-dot", fixture_file("example2"))
    assert first == second
    a = run(capsys, "chains", fixture_file("example2"), "--set", "A,D")
    b = run(capsys, "chains", fixture_file("example2"), "--set", "A,D")
    assert a == b
