"""Walk the whole toolchain on the smallest interesting graph.

The directed 4-ring is tiny enough to print everything: the distance
profile, the lower bound, the word set, a greedy schedule next to the
exact one, and the full slot-by-slot replay.  Good first read if you
want to see what each stage produces before pointing the tools at a
bigger machine.
"""

from alltoall import fixtures
from alltoall.layers import average_diameter_bound, layer_profile
from alltoall.scheduling import classify, exact_min_schedule, factor_occurrences, greedy_schedule
from alltoall.simulate import run_transpose
from alltoall.words import bfs_word_set


def show_schedule(label, word_map, schedule):
    print(f"  {label} (makespan {schedule.makespan}):")
    for target in sorted(word_map):
        pairs = ", ".join(
            f"gen{j}@t{t}" for j, t in zip(word_map[target], schedule.times[target])
        )
        print(f"    word for vertex {target}: {pairs}")


def main():
    g = fixtures.builtin_graph("c4")
    print(f"graph: directed 4-ring, {g.vertex_count} vertices, degree {g.degree}")

    profile = layer_profile(g)
    theta = average_diameter_bound(profile)
    print(f"layer sizes n_k = {profile.layer_sizes}")
    print(f"lower bound theta = ceil(sum k*n_k / d) = {theta}")
    print()

    ws = bfs_word_set(g, profile)
    print("shortest words from vertex 0 (one per destination):")
    for v, w in sorted(ws.items()):
        print(f"  0 -> {v}: generators {list(w)}")
    print(f"generator occurrences: {factor_occurrences(ws, g.degree)}")
    print()

    greedy = greedy_schedule(ws)
    show_schedule("greedy schedule", ws, greedy)
    exact = exact_min_schedule(ws, g.degree)
    show_schedule("exact schedule", ws, exact.schedule)
    flags = classify(ws, exact.schedule, profile)
    print(f"  quality flags: {flags}")
    print()

    # with one generator there is no parallelism to exploit: the single
    # outgoing wire must carry all six word letters one at a time
    # the replay writes its trace rows, slot by slot, to any callable that takes text
    rows = []
    trace = run_transpose(g, ws, exact.schedule, rows.append)
    print(f"replay: clean={trace.clean}, horizon={trace.horizon} (theta was {theta})")
    print("slot-by-slot wire usage (time, src, dst, gen, packet):")
    for line in "".join(rows).splitlines():
        time, src, dst, gen, ps, pd = map(int, line.split(","))
        print(f"  t={time}  {src}->{dst} via gen{gen}  carrying {ps}->{pd}")


if __name__ == "__main__":
    main()
