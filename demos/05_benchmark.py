"""Walkthrough: timing the consistency strategies on random instances.

Instances are abstract chain sets over an opaque edge universe, seeded
for reproducibility.  Strategy I searches the required side and strategy
II the forbidden side; each is fast where its side prunes well and can
hit a wall otherwise, which the timeout turns into an explicit row
instead of a hang.
"""

from schemacut import BenchParams, fixtures, generate_instance, results_to_csv, run_benchmark

small = [
    BenchParams(
        fdg_edges=200,
        edges_per_forbidden_chain=5,
        forbidden_chain_count=n,
        required_set_count=10,
        chains_per_required_set=4,
        edges_per_required_chain=5,
        seed=n,
    )
    for n in (5, 10, 20, 40)
]

print("Small grid, both strategies:\n")
print(results_to_csv(run_benchmark(small, ["I", "II"], timeout_s=10.0)))

instance = generate_instance(small[0])
print("First instance shape:",
      len(instance.forbidden_chains), "forbidden chains,",
      len(instance.required_families), "required families,",
      len(instance.universe), "edges touched")

names, grid = fixtures.bench_grid("table2")
print("\nBundled grid, strategy I (first four experiments):\n")
print(results_to_csv(run_benchmark(grid[:4], ["I"], timeout_s=10.0), names[:4]))
