from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from types import SimpleNamespace

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
    # One node whose 3,000 options all fail at once: the clock is read
    # before each attempt, not each node, after the preamble's two reads
    # (one computes the deadline, one checks it before any work).
    from schemacut import consistency

    reads = []

    def clock():
        reads.append(None)
        return time.perf_counter()

    monkeypatch.setattr(consistency, "time", SimpleNamespace(perf_counter=clock))
    instance = make_instance([["a"]], [[["a", f"x{i}"] for i in range(3000)]])
    assert not check_required_first(instance, timeout_s=60.0).consistent
    assert len(reads) == 2 + 3000


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



def _random_3sat(k):
    # round(4.5 * k) random clauses over k variables, past the
    # satisfiability threshold (about 4.27 clauses per variable).
    rng = random.Random(1)
    clauses = tuple(
        tuple(rng.choice([1, -1]) * v for v in rng.sample(range(1, k + 1), 3))
        for _ in range(round(4.5 * k))
    )
    return reduce_3sat(ThreeSatFormula(k, clauses))


def test_deadline_stops_the_search_midway():
    # An unsatisfiable 72-variable formula: the search needs about 2 s on
    # a 2 GHz x86-64 machine, far past the 50 ms deadline.
    instance = _random_3sat(72)
    with pytest.raises(ConsistencyTimeout):
        check_forbidden_first(instance, timeout_s=0.05)


@pytest.mark.parametrize(
    "checker, instance",
    [
        (check_required_first, lambda: _table3("Exp_20")),
        (check_forbidden_first, lambda: _random_3sat(72)),
    ],
    ids=["I-Exp_20", "II-3sat72"],
)
def test_deadline_overshoots_by_at_most_one_pick_attempt(monkeypatch, checker, instance):
    # A clock that advances one unit per read, and no wall-clock margin:
    # the preamble reads it twice, every pick attempt once more, so a
    # 3-unit limit lets at most timeout_s + 2 attempts through.  Both
    # searches make thousands of attempts before they could decide.
    from schemacut import consistency

    instance = instance()
    ticks = itertools.count()
    monkeypatch.setattr(consistency, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    attempts = []
    for moves in (consistency._ChainChoice, consistency._CutSearch):
        def counted(self, option, pick=moves.pick):
            attempts.append(option)
            return pick(self, option)

        monkeypatch.setattr(moves, "pick", counted)
    timeout_s = 3
    with pytest.raises(ConsistencyTimeout):
        checker(instance, timeout_s=timeout_s)
    assert 0 < len(attempts) <= timeout_s + 2

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

def _strategy_ii_digest(instance):
    result = check(instance, "II")
    doc = [
        result.consistent,
        None if result.cut is None else list(result.cut.edges),
        None if result.preserved is None else [sorted(w) for w in result.preserved],
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


# Strategy II's verdict, cut and witnesses on every bundled grid row and
# instance, recorded while the search still kept its bans incrementally.
STRATEGY_II_DIGESTS = {
    "Exp_1": "586a6ec28ee4040f",
    "Exp_2": "f38f01014a258e9b",
    "Exp_3": "823d1f05544e3a8f",
    "Exp_4": "fb3159c5eca2ca94",
    "Exp_5": "f32c0abac1b223ef",
    "Exp_6": "4bb5bd2642e65a1b",
    "Exp_7": "f9bc2cc0494a47ff",
    "Exp_8": "ec6b2e5d25318aac",
    "Exp_9": "5467243b0e1c666f",
    "Exp_10": "1a80c2f13e1bdbf0",
    "Exp_11": "21a5c80de3258227",
    "Exp_12": "c74aae5eb6902304",
    "Exp_13": "9014bff5f2bfb6c1",
    "Exp_14": "81bb167e098ed709",
    "Exp_15": "1f8ef91154240f2e",
    "Exp_16": "3f5847a1242fb357",
    "Exp_17": "2d14a48ab0ba3331",
    "Exp_18": "fca26ed724a19fa3",
    "Exp_19": "fca3f324ecce1ec5",
    "Exp_20": "99e08e343e463513",
    "cc1": "46b45a133ce42fa9",
    "cc2": "ca7019341f85bdda",
}


def test_strategy_ii_golden_cuts_and_witnesses():
    from schemacut import fixtures

    instances = {f"cc{k}": fixtures.cc_instance(k) for k in (1, 2)}
    for grid in fixtures.GRID_NAMES:
        names, rows = fixtures.bench_grid(grid)
        instances.update(zip(names, map(generate_instance, rows)))
    digests = {name: _strategy_ii_digest(instance) for name, instance in instances.items()}
    assert digests == STRATEGY_II_DIGESTS


@settings(max_examples=300, deadline=None)
@given(shared_chain_instances())
@example(reduce_3sat(ThreeSatFormula(2, ((1, 2, 2), (-1, 2, 2), (1, -2, -2), (-1, -2, -2)))))
@example(make_instance([["a", "b"], ["c", "d"]], [[["a", "c"], ["b", "d"]], [["a", "d"]]]))
def test_cut_search_counts_and_bans_match_a_recount(instance):
    # After every move of the walk, the search's counts equal a recount
    # from its cut, and each node's candidates are those of the MRV chain
    # under bans = excluded + the one live chain of every family with one.
    from schemacut import consistency

    search = consistency._CutSearch(instance)
    families = instance.required_families
    chains = [chain for family in families for chain in family]
    pick, unpick, branches = search.pick, search.unpick, search.branches

    def recount():
        cut = set(search.cut)
        assert len(cut) == len(search.cut)
        assert search.hits == [len(chain & cut) for chain in instance.forbidden_chains]
        assert search.broken == [len(chain & cut) for chain in chains]
        live = [[chain for chain in family if not chain & cut] for family in families]
        assert search.live == [len(alive) for alive in live]
        return cut, live

    def checked_pick(edge):
        ok = pick(edge)
        _, live = recount()
        assert ok == all(live)
        return ok

    def checked_unpick():
        edge = unpick()
        recount()
        return edge

    def checked_branches(excluded):
        cut, live = recount()
        bans = set(excluded).union(*(alive[0] for alive in live if len(alive) == 1))
        best = None
        for chain in instance.forbidden_chains:
            if chain & cut:
                continue
            admissible = [e for e in chain if e not in bans]
            if best is None or len(admissible) < len(best):
                best = admissible
        if best:
            breaks = {e: sum(1 for c in chains if e in c and not c & cut) for e in best}
            best = sorted(best, key=lambda e: (breaks[e], e))
        expected = [] if best is None else best or None
        candidates = branches(excluded)
        assert candidates == expected
        return candidates

    search.pick, search.unpick, search.branches = checked_pick, checked_unpick, checked_branches
    found = consistency._depth_first(search, None)
    # An empty family fails every pick but not an empty cut; the caller
    # rules it out before the walk.
    if found and all(families):
        assert validate_cut(search.cut, instance)[0]


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
