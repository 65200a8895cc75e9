"""Compare interconnect topologies under a fixed wire budget.

Wires cost money, so the honest comparison fixes a budget P*d < gamma and
asks which topology finishes an iterative matrix workload first.  Here the
candidates are the built-in corpus graphs themselves; their exchange times
tau come from actually scheduling and replaying the all-to-all, not from a
back-of-envelope formula.  The ideal-mode column shows what the formula
tau = D*P/d would have promised.
"""

from fractions import Fraction

from alltoall import fixtures
from alltoall.costmodel import CostParams, compare_networks, model_times
from alltoall.layers import layer_profile
from alltoall.scheduling import DEFAULT_SCHEDULE_BUDGET, schedule_plan
from alltoall.simulate import expand_factor_paths, run_transpose
from alltoall.words import bfs_word_set

CANDIDATES = ("c4", "k4", "z5-12", "z7-124", "q3")

# one shared workload: M iterations on an N x N matrix, linear per-element work
MATRIX_DIM = 48
ITERATIONS = 16


def measured_tau(name):
    g = fixtures.builtin_graph(name)
    words, sched = schedule_plan(g, bfs_word_set(g), "exact", DEFAULT_SCHEDULE_BUDGET)
    trace = run_transpose(g, expand_factor_paths(g, words, sched))
    assert trace.clean
    return g, trace.horizon


def main():
    params = {}
    taus = {}
    for name in CANDIDATES:
        g, tau = measured_tau(name)
        profile = layer_profile(g)
        avg_dist = Fraction(sum(k * n for k, n in enumerate(profile.layer_sizes)), g.vertex_count)
        params[name] = CostParams(
            processors=g.vertex_count,
            degree=g.degree,
            avg_diameter=avg_dist,
            cost_ratio=4,
            matrix_dim=MATRIX_DIM,
            iterations=ITERATIONS,
        )
        taus[name] = tau

    print(f"{'name':8} {'P':>3} {'d':>2} {'P*d':>4} {'tau':>4} {'ideal tau':>9}")
    for name, p in params.items():
        ideal = model_times(p, mode="ideal")
        print(f"{name:8} {p.processors:>3} {p.degree:>2} {p.processors * p.degree:>4}"
              f" {taus[name]:>4} {str(ideal.tau):>9}")
    print()

    for budget in (30, 20, 8, 4):
        verdict = compare_networks(params, gamma_max=budget, taus=taus)
        dropped = ", ".join(f"{n} (P*d={c})" for n, c in verdict.eliminated) or "none"
        print(f"budget P*d < {budget}:")
        print(f"  eliminated: {dropped}")
        if verdict.winner is None:
            print(f"  no survivor: {verdict.explanation}")
            continue
        print(f"  winner: {verdict.winner} -- {verdict.explanation}")
        for rank, r in enumerate(verdict.ranking, 1):
            t = r.times
            print(f"    {rank}. {r.name:8} compute {str(t.compute):>8}"
                  f"  exchange {str(t.exchange):>8}  total {str(t.total):>9}")
        print()


if __name__ == "__main__":
    main()
