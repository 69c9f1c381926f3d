"""Walkthrough: can a policy's forbidden and required sets coexist?

A cut must take at least one edge from every forbidden join chain while
leaving, for every required set, at least one chain untouched.  Deciding
whether such a cut exists is NP-complete (satisfiability embeds into it),
so two exact strategies are provided (a backtracking search over the
required side, another over the forbidden side); they always agree.
"""

from schemacut import (
    ThreeSatFormula,
    check_forbidden_first,
    check_required_first,
    fixtures,
    reduce_3sat,
    validate_cut,
)

for number in (1, 2):
    instance = fixtures.cc_instance(number)
    print(f"Instance {number}:")
    print("  forbidden chains:", [sorted(c) for c in instance.forbidden_chains])
    for i, fam in enumerate(instance.required_families, start=1):
        print(f"  required family {i}:", [sorted(c) for c in fam])
    r1 = check_required_first(instance)
    r2 = check_forbidden_first(instance)
    print(f"  required-first:  consistent={r1.consistent}", end="")
    if r1.consistent:
        print(f" cut={sorted(r1.cut)} preserved={[sorted(c) for c in r1.preserved]}", end="")
    print()
    print(f"  forbidden-first: consistent={r2.consistent}")
    if number == 1:
        ok, witness = validate_cut({"a", "g"}, instance)
        print(f"  hand-picked cut {{a, g}} validates: {ok}, witnesses "
              f"{[sorted(c) for c in witness]}")
    print()

print("Satisfiability reduces to consistency:")
formula = ThreeSatFormula(2, ((1, 2, 2), (-1, -2, -2)))
instance = reduce_3sat(formula)
print("  (q1 or q2) and (not q1 or not q2) ->",
      "consistent" if check_required_first(instance).consistent else "inconsistent")
contradiction = ThreeSatFormula(1, ((1, 1, 1), (-1, -1, -1)))
print("  q1 and not q1 ->",
      "consistent" if check_required_first(reduce_3sat(contradiction)).consistent
      else "inconsistent")
