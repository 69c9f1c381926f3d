from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemacut import (
    CcInstance,
    ConsistencyTimeout,
    SchemaError,
    ThreeSatFormula,
    check,
    check_forbidden_first,
    check_required_first,
    load_cc_doc,
    make_instance,
    reduce_3sat,
    validate_cut,
)
from schemacut.bench import generate_instance
from schemacut.consistency import _label_sort_key, pick_strategy
from schemacut.cut import greedy_hitting_set


def test_first_instance_consistent(request):
    from schemacut import fixtures

    instance = fixtures.cc_instance(1)
    for checker in (check_required_first, check_forbidden_first):
        result = checker(instance)
        assert result.consistent
        ok, witnesses = validate_cut(result.cut.as_set(), instance)
        assert ok
        assert witnesses == result.preserved


def test_first_instance_reference_cut_validates():
    from schemacut import fixtures

    instance = fixtures.cc_instance(1)
    ok, witnesses = validate_cut({"a", "g"}, instance)
    assert ok
    assert set(witnesses) == {frozenset("bcf"), frozenset("de")}


def test_second_instance_inconsistent():
    from schemacut import fixtures

    instance = fixtures.cc_instance(2)
    for checker in (check_required_first, check_forbidden_first):
        result = checker(instance)
        assert not result.consistent
        assert result.cut is None and result.preserved is None


@pytest.mark.parametrize("number", [1, 2])
@pytest.mark.parametrize("strategy", ["I", "II", "auto"])
def test_equal_instances_give_equal_results(number, strategy):
    from schemacut import fixtures

    first = check(fixtures.cc_instance(number), strategy)
    assert check(fixtures.cc_instance(number), strategy) == first


def test_empty_cut_fails_when_forbidden_chains_exist():
    from schemacut import fixtures

    ok, _ = validate_cut(set(), fixtures.cc_instance(1))
    assert not ok


def test_empty_instance_trivially_consistent():
    instance = make_instance([], [])
    ok, witnesses = validate_cut(set(), instance)
    assert ok and witnesses == ()
    assert check_required_first(instance).consistent
    assert check_forbidden_first(instance).consistent


def test_cut_outside_universe_rejected():
    instance = make_instance([["a", "b"]], [])
    with pytest.raises(SchemaError, match="outside"):
        validate_cut({"z"}, instance)


def test_required_only_instance():
    instance = make_instance([], [[["a"], ["b"]]])
    result = check_required_first(instance)
    assert result.consistent
    assert result.cut.edges == ()
    assert result.preserved == (frozenset("a"),)


def test_no_required_families_uses_plain_greedy():
    instance = make_instance([["a", "b"], ["b", "c"]], [])
    result = check_required_first(instance)
    assert result.consistent
    assert set(result.cut) == {"b"}


def test_single_edge_conflict_inconsistent():
    instance = make_instance([["x"]], [[["x"]]])
    assert not check_required_first(instance).consistent
    assert not check_forbidden_first(instance).consistent


def test_empty_required_family_is_inconsistent():
    instance = make_instance([["a"]], [[]])
    assert not check_required_first(instance).consistent
    assert not check_forbidden_first(instance).consistent


def test_empty_forbidden_chain_rejected():
    with pytest.raises(SchemaError, match="non-empty"):
        make_instance([[]], [])


def test_strategy_dispatch_and_auto():
    instance = make_instance([["a", "b", "c"]], [[["d"]], [["e"]]])
    # required bound 1*1=1 < forbidden bound 3: auto goes required-first
    assert pick_strategy(instance) == "I"
    assert check(instance, "auto").strategy == "required-first"
    assert check(instance, "II").strategy == "forbidden-first"
    with pytest.raises(ValueError):
        check(instance, "III")


_EDGES = st.sets(st.sampled_from("abcdef"), min_size=1, max_size=3)


@settings(max_examples=250, deadline=None)
@given(
    st.lists(_EDGES, max_size=4),
    st.lists(st.lists(_EDGES, min_size=1, max_size=4), max_size=4),
)
def test_strategies_agree_on_random_instances(forbidden, required):
    instance = make_instance(forbidden, required)
    r1 = check_required_first(instance)
    r2 = check_forbidden_first(instance)
    assert r1.consistent == r2.consistent
    for result in (r1, r2):
        if result.consistent:
            ok, _ = validate_cut(result.cut.as_set(), instance)
            assert ok


def product_scan(instance):
    """Strategy I as a scan of the Cartesian product of the families: the
    reference for the depth-first walk's verdict, cut and witnesses."""
    for choice in itertools.product(*instance.required_families):
        protected = frozenset().union(*choice)
        if any(chain <= protected for chain in instance.forbidden_chains):
            continue
        restricted = [chain - protected for chain in instance.forbidden_chains]
        return True, greedy_hitting_set(restricted, _label_sort_key).edges, choice
    return False, None, None


def _outcome(result):
    cut = result.cut.edges if result.consistent else None
    return result.consistent, cut, result.preserved


@st.composite
def shared_chain_instances(draw):
    # Families draw from one small pool of chains, so a chain often
    # repeats across families (and within one); families may be empty.
    pool = draw(st.lists(_EDGES, min_size=1, max_size=5))
    forbidden = draw(st.lists(_EDGES, max_size=5))
    families = draw(st.lists(st.lists(st.sampled_from(pool), max_size=4), max_size=6))
    return make_instance(forbidden, families)


@settings(max_examples=300, deadline=None)
@given(shared_chain_instances())
@example(make_instance([["a", "b"]], []))
@example(make_instance([["a"]], [[["b"]], []]))
@example(make_instance([["a", "b"], ["c"]], [[["a"], ["c"]], [["b"], ["a"]], [["a"]]]))
def test_required_first_matches_product_scan(instance):
    assert _outcome(check_required_first(instance)) == product_scan(instance)


def test_required_first_walks_thousands_of_families_without_recursion():
    families = [[[f"x{i}"]] for i in range(1999)]
    consistent = make_instance([["a", "b"]], families + [[["a", "y"]]])
    inconsistent = make_instance([["a", "b"]], families + [[["a", "b"]]])
    for instance in (consistent, inconsistent):
        assert _outcome(check_required_first(instance)) == product_scan(instance)


def test_every_pick_attempt_counts_toward_the_deadline(monkeypatch):
    # One node whose 3,000 options all fail at once: the clock stride
    # counts each attempt, not each node.
    from schemacut import consistency

    steps = []
    real = consistency._deadline_passed

    def recording(start, timeout_s, step):
        steps.append(step)
        return real(start, timeout_s, step)

    monkeypatch.setattr(consistency, "_deadline_passed", recording)
    instance = make_instance([["a"]], [[["a", f"x{i}"] for i in range(3000)]])
    assert not check_required_first(instance, timeout_s=60.0).consistent
    assert max(steps) == 3000


def test_required_first_builds_no_index_when_the_first_choice_passes(monkeypatch):
    from schemacut import consistency

    built = []
    real = consistency._ChainChoice
    monkeypatch.setattr(consistency, "_ChainChoice", lambda inst: built.append(inst) or real(inst))
    passes = make_instance([["a", "b"]], [[["a"], ["b"]], [["c"]]])
    assert check_required_first(passes).preserved == (frozenset("a"), frozenset("c"))
    assert check_required_first(make_instance([["a"]], [])).consistent
    assert built == []
    # {a, c} is wholly protected by the first choice: the walk decides.
    fails = make_instance([["a", "c"]], [[["a"], ["b"]], [["c"]]])
    assert check_required_first(fails).preserved == (frozenset("b"), frozenset("c"))
    assert built == [fails]


def test_required_first_decides_an_empty_family_without_a_search():
    # Walking the 2**30 prefixes before the empty family would not finish.
    families = [[[f"x{i}"], [f"y{i}"]] for i in range(30)]
    instance = make_instance([["a"]], families + [[]])
    assert not check_required_first(instance, timeout_s=1.0).consistent


def _table3(name):
    from schemacut import fixtures

    names, grid = fixtures.bench_grid("table3")
    return generate_instance(grid[names.index(name)])


@pytest.mark.parametrize("name", ["Exp_18", "Exp_19"])
@pytest.mark.parametrize("strategy", ["I", "auto"])
def test_hard_table3_rows_are_decided_under_a_second(name, strategy):
    instance = _table3(name)
    started = time.perf_counter()
    result = check(instance, strategy, timeout_s=1.0)
    assert time.perf_counter() - started < 1.0
    assert result.strategy == "required-first"
    assert result.consistent == check_forbidden_first(instance).consistent
    ok, _ = validate_cut(result.cut.as_set(), instance)
    assert ok


def test_required_first_deadline_stops_the_search_midway():
    # Strategy I does not decide table3 Exp_20 within the limit; it must
    # stop within 0.1 s of it.
    instance = _table3("Exp_20")
    started = time.perf_counter()
    with pytest.raises(ConsistencyTimeout):
        check_required_first(instance, timeout_s=1.0)
    assert time.perf_counter() - started < 1.1


def test_expired_deadline_stops_both_strategies():
    from schemacut import fixtures

    instance = fixtures.cc_instance(1)
    for checker in (check_required_first, check_forbidden_first):
        with pytest.raises(ConsistencyTimeout):
            checker(instance, timeout_s=0.0)



def test_deadline_stops_the_search_midway():
    # An unsatisfiable 72-variable formula: the search needs about 2 s on
    # a 2 GHz x86-64 machine, far past the 50 ms deadline.
    rng = random.Random(1)
    k = 72
    clauses = tuple(
        tuple(rng.choice([1, -1]) * v for v in rng.sample(range(1, k + 1), 3))
        for _ in range(round(4.5 * k))
    )
    instance = reduce_3sat(ThreeSatFormula(k, clauses))
    with pytest.raises(ConsistencyTimeout):
        check_forbidden_first(instance, timeout_s=0.05)

def test_forbidden_first_keeps_the_least_label_candidate():
    # Taking the least label of every chain already spares a chain of the
    # family, so that candidate is the answer.
    instance = make_instance([["b", "a"], ["d", "c"]], [[["a"], ["b"]]])
    result = check_forbidden_first(instance)
    assert result.cut.edges == ("a", "c")
    assert result.preserved == (frozenset("b"),)


def test_forbidden_first_searches_past_a_failed_candidate():
    # The least-label candidate {a, c} breaks the only required chain; the
    # search must find {b, c}.
    instance = make_instance([["a", "b"], ["c", "d"]], [[["a", "x"]]])
    result = check_forbidden_first(instance)
    assert result.consistent
    assert result.cut.edges == ("b", "c")
    assert result.preserved == (frozenset("ax"),)


def test_forbidden_first_agrees_with_brute_force_on_harder_formulas():
    # Near the 3SAT phase transition with more variables than the
    # exhaustive fidelity check, so the search has to backtrack.
    rng = random.Random(41)
    for _ in range(120):
        k = rng.randint(5, 8)
        clauses = tuple(
            tuple(rng.choice([1, -1]) * v for v in rng.sample(range(1, k + 1), 3))
            for _ in range(round(4.3 * k))
        )
        formula = ThreeSatFormula(k, clauses)
        instance = reduce_3sat(formula)
        result = check_forbidden_first(instance)
        assert result.consistent == brute_sat(formula)
        if result.consistent:
            assert validate_cut(result.cut.as_set(), instance) == (True, result.preserved)

def test_witnesses_are_deterministic():
    from schemacut import fixtures

    instance = fixtures.cc_instance(1)
    first = check_required_first(instance)
    again = check_required_first(instance)
    assert first.cut == again.cut
    assert first.preserved == again.preserved


# ---------------------------------------------------------------------------
# 3SAT reduction
# ---------------------------------------------------------------------------


def brute_sat(formula: ThreeSatFormula) -> bool:
    for bits in itertools.product([False, True], repeat=formula.variable_count):
        def truth(lit):
            value = bits[abs(lit) - 1]
            return value if lit > 0 else not value

        if all(any(truth(lit) for lit in clause) for clause in formula.clauses):
            return True
    return False


def test_reduction_shape():
    instance = reduce_3sat(ThreeSatFormula(3, ((1, -2, 3),)))
    assert set(instance.forbidden_chains) == {
        frozenset({"q1", "~q1"}),
        frozenset({"q2", "~q2"}),
        frozenset({"q3", "~q3"}),
    }
    assert instance.required_families == (
        (frozenset({"q1"}), frozenset({"~q2"}), frozenset({"q3"})),
    )


def test_reduction_unsatisfiable_formula():
    instance = reduce_3sat(ThreeSatFormula(1, ((1, 1, 1), (-1, -1, -1))))
    assert not check_required_first(instance).consistent


def test_reduction_empty_formula():
    instance = reduce_3sat(ThreeSatFormula(2, ()))
    assert check_required_first(instance).consistent


def test_formula_validation():
    with pytest.raises(ValueError):
        ThreeSatFormula(1, ((1, 2, 1),))
    with pytest.raises(ValueError):
        ThreeSatFormula(1, ((1, 0, 1),))


def test_reduction_fidelity_random():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(1, 4)
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, k) for _ in range(3))
            for _ in range(rng.randint(0, 4))
        )
        formula = ThreeSatFormula(k, clauses)
        instance = reduce_3sat(formula)
        assert brute_sat(formula) == check_required_first(instance).consistent
        assert brute_sat(formula) == check_forbidden_first(instance).consistent


def test_cc_document_parsing():
    instance = load_cc_doc({"forbidden": [["a", "b"]], "required": [[["c"]]]})
    assert instance.forbidden_chains == (frozenset({"a", "b"}),)
    assert instance.universe == frozenset({"a", "b", "c"})
    assert instance.universe is instance.universe
    with pytest.raises(SchemaError, match="unknown key"):
        load_cc_doc({"forbidden": [], "required": [], "extra": 1})


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"forbidden": 3}, r"^forbidden: must be a list$"),
        ({"forbidden": ["ab"]}, r"^forbidden\[0\]: must be a list$"),
        ({"required": {"a": 1}}, r"^required: must be a list$"),
        ({"required": [["a"]]}, r"^required\[0\]\[0\]: must be a list$"),
        ({"required": [[["a"]], 5]}, r"^required\[1\]: must be a list$"),
        ([["a"]], r"^instance document: must be an object$"),
        ({"forbidden": [["a", 1]]}, r"^forbidden\[0\]: must be a list of strings$"),
        ({"forbidden": [[None]]}, r"^forbidden\[0\]: must be a list of strings$"),
        ({"required": [[["a"], [True]]]}, r"^required\[0\]\[1\]: must be a list of strings$"),
    ],
    ids=[
        "forbidden-a-number",
        "chain-a-string",
        "required-an-object",
        "family-holds-a-string",
        "family-a-number",
        "document-a-list",
        "label-a-number",
        "label-null",
        "label-a-boolean",
    ],
)
def test_cc_document_shape_errors_name_the_field(doc, message):
    with pytest.raises(SchemaError, match=message):
        load_cc_doc(doc)
