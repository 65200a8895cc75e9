"""Route an all-to-all exchange on the Petersen graph.

This is the awkward case the factorization machinery exists for.  The
Petersen graph is vertex-symmetric but not a Cayley graph, so it only
arises as a coset construction with a nontrivial stabilizer -- and there
the arc a generator draws depends on which coset representative you
multiply.  Reading generator labels off the arcs (the Cayley shortcut)
would silently build broken routes.  Instead: decompose the arcs into
three 1-factors, search for words over the factor alphabet whose
endpoints never collide from any start, and schedule those.
"""

from collections import Counter

from alltoall import fixtures
from alltoall.factorization import factor_digraph, spanning_plan
from alltoall.layers import average_diameter_bound, layer_profile
from alltoall.scheduling import DEFAULT_SCHEDULE_BUDGET, schedule_plan
from alltoall.simulate import run_transpose


def main():
    g = fixtures.builtin_graph("petersen")
    profile = layer_profile(g)
    theta = average_diameter_bound(profile)
    print(f"Petersen graph: {g.vertex_count} cosets of a 12-element stabilizer, degree {g.degree}")
    print(f"layer sizes {profile.layer_sizes}, lower bound theta = {theta}")
    print(f"is_cayley = {g.is_cayley}")

    # the algebraic reason the shortcut is off the table, checked live
    print(f"representative-dependence probe: {fixtures.petersen_conjugation_check()}")
    print()

    factors, words, search = spanning_plan(g, profile)  # not a Cayley graph, so the plan comes from the search
    print(f"search visited {search['nodes']} candidate words in {search['factorizations']} factorization(s)")
    lengths = Counter(map(len, words.values()))
    print(f"word lengths: {dict(sorted(lengths.items()))} (all shortest: no slack needed)")
    print()

    host = factor_digraph(factors)
    word_map, sched = schedule_plan(host, words, "exact", DEFAULT_SCHEDULE_BUDGET)
    print(f"exact schedule: makespan {sched.makespan}")

    trace = run_transpose(host, word_map, sched)
    print(f"replay of all {trace.delivered_pairs} pairs: clean={trace.clean}, horizon={trace.horizon}")
    if trace.horizon == theta:
        print("the exchange meets the averaged distance bound exactly")


if __name__ == "__main__":
    main()
