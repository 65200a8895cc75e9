"""Routing word sets for Cayley graphs and the per-generator load bound.

A word set is a dict from each non-base vertex to a generator word, the
out-positions of a path from vertex 0.  On a Cayley graph the same words
route from every base, so a word set with the generator table transposed,
tuple(zip(*g.out)), is a spanning factorization.  The schedule length of
the induced exchange is at least the busiest generator's total occurrence
count, so the interesting quantity is how evenly a word set spreads its
letters.  Every shortest word set puts at least theta, the averaged
diameter bound, on its busiest generator.

bfs_word_set reads the shortest-path DAG from vertex 0 once: a greedy pass
balances the generators' counts, and while the busiest count stays above
theta, multiplicative-weight rounds reroute words to other shortest words,
and a short count search takes over where no move of one or two words helps.
regular_bound_exact finds the true minimum over all shortest word sets by
exponential search over each vertex's distinct letter counts, the table
the reroute's fallback reads, seeded with the caller's word set.
"""

from __future__ import annotations

import operator
from math import exp
from typing import NamedTuple

from .errors import InputError, UnsupportedGraphError
from .graphs import CosetGraph, Digraph
from .layers import LayerProfile, average_diameter_bound
from .scheduling import WordMap, factor_occurrences

DEFAULT_WORD_BUDGET = 10_000_000
# rerouting: the weight exponent over load / theta, the most rounds tried, and the count search's nodes after them
REROUTE_K = 50
REROUTE_ROUNDS = 32
REROUTE_SEARCH_NODES = 5_000


def _listed(keys: set[int]) -> str:
    """The ten smallest keys as a list, with a count of the rest."""
    keys = sorted(keys)
    more = f", ... {len(keys) - 10} more" if len(keys) > 10 else ""
    return "[" + ", ".join(map(str, keys[:10])) + more + "]"


def validate_word_set(g: Digraph, words: WordMap) -> None:
    """Check every word walks from vertex 0 to its key vertex, over out-positions 0..d-1.

    Words need not be shortest: a schedule serves any word set that walks.
    """
    d = len(g.out[0])
    expected = set(range(1, g.vertex_count))
    if set(words) != expected:
        raise InputError(
            "word set must cover exactly the non-base vertices; "
            f"missing {_listed(expected - set(words))}, extra {_listed(set(words) - expected)}"
        )
    for target, word in words.items():
        v = 0
        for j in word:
            if not (0 <= j < d):
                raise InputError(f"word for vertex {target} uses generator index {j} out of range")
            v = g.out[v][j]
        if v != target:
            raise InputError(f"word {word} for vertex {target} ends at vertex {v}")


def _require_cayley(g: CosetGraph) -> None:
    if not g.is_cayley:
        raise UnsupportedGraphError(
            "word sets read generator labels off arcs, which is only sound when "
            "the subgroup is trivial; build a spanning factorization instead"
        )


def bfs_word_set(g: CosetGraph, profile: LayerProfile) -> dict[int, tuple[int, ...]]:
    """Shortest words from vertex 0, balanced greedily and then rerouted toward theta.

    The greedy pass gives each vertex, in (distance, index) order, its
    tail's word plus the arc into it from the layer above whose generator
    has the smallest total occurrence count so far, ties to the smaller
    generator index and then the smaller tail.  While the busiest
    generator's count stays above theta, _rerouted then moves words, one or
    two at a time, onto other shortest words, and past that searches letter
    counts under a small node budget.  The rerouted set comes back
    only when the busiest count fell, so a graph at theta, or one the
    reroute cannot help, keeps its greedy words.
    """
    _require_cayley(g)
    dist = profile.dist
    into = _shortest_arcs(g, dist)
    greedy, held, loads = _greedy_words(g, dist, into)
    return _rerouted(g, profile, into, greedy, held, loads) or greedy


def _greedy_words(g: CosetGraph, dist: tuple[int, ...], into: list[list[tuple[int, int]]]
                  ) -> tuple[dict[int, tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """The greedy pass: each word is a tail's word plus the least-used generator so far.

    Returns the words, each vertex's letter counts (its tail's plus one),
    and the generators' total counts.
    """
    counts = [0] * g.degree
    words: dict[int, tuple[int, ...]] = {}
    held = [(0,) * g.degree] * g.vertex_count
    for v in sorted(range(1, g.vertex_count), key=dist.__getitem__):
        _, j, u = min([(counts[j], j, u) for j, u in into[v]])
        words[v] = words.get(u, ()) + (j,)
        mine = list(held[u])
        mine[j] += 1
        held[v] = tuple(mine)
        counts = list(map(operator.add, counts, mine))
    return words, held, counts


def _rerouted(g: CosetGraph, profile: LayerProfile, into: list[list[tuple[int, int]]],
              words: dict[int, tuple[int, ...]], held: list[tuple[int, ...]],
              loads: list[int]) -> dict[int, tuple[int, ...]] | None:
    """`words` rerouted toward theta; None if the busiest count did not fall.

    held[v] is the letter counts of words[v], and loads the generators'
    total counts, both as _greedy_words gives them.

    A round weighs generator j by exp(K * load_j / theta) (the
    multiplicative weights of Garg and Koenemann) and proposes each
    vertex's cheapest shortest word.  A vertex takes its proposal, in
    (distance, index) order, only if that strictly lowers the load vector
    sorted in decreasing order, compared lexicographically: the busiest
    count never rises and no state comes back.  A round that moves no word
    falls back on the first change of one or two vertices' letter counts
    that lowers the same vector, read off the letter-count table made at
    the first stall.  Rounds stop at theta, after a round that changes
    nothing, after REROUTE_ROUNDS, or at a stall with no table (past
    DEFAULT_WORD_BUDGET letters) or with the greedy busiest count at the
    table's forced load, which no shortest word set goes below.  Rounds
    that end above theta because the fallback found nothing hand the words
    to regular_bound_exact's count search for REROUTE_SEARCH_NODES nodes,
    since lowering the busiest count may take more vertices moving at once;
    its witness replaces them only if its busiest count is lower.
    """
    theta = average_diameter_bound(profile)
    start = max(loads)
    if start <= theta:
        return None
    held = list(held)
    ranked = sorted(loads, reverse=True)
    order = sorted(words, key=profile.dist.__getitem__)
    words = dict(words)
    table = None
    for _ in range(REROUTE_ROUNDS):
        via, proposed = _cheapest_words(g, order, into, loads, theta)
        moved = False
        for v in order:
            new, old = proposed[v], held[v]
            if new == old:
                continue
            trial = [load - o + n for load, o, n in zip(loads, old, new)]
            if sorted(trial, reverse=True) < ranked:
                loads, held[v], moved = trial, new, True
                ranked = sorted(loads, reverse=True)
                words[v] = _spelled(via, v)
                if ranked[0] <= theta:
                    break
        if not moved:
            if table is None:
                table = _letter_count_table(g, profile.dist, into, DEFAULT_WORD_BUDGET)
                floor = max(theta, _forced_load(table)) if table else start
                if start <= floor:
                    break
            for v, new in _compound_move(table.least, held, loads, ranked, order):
                loads = [load - o + n for load, o, n in zip(loads, held[v], new)]
                held[v], moved = new, True
                words[v] = table.least[v][new]
            ranked = sorted(loads, reverse=True)
        if ranked[0] <= theta or not moved:
            break
    if table is not None and not moved:
        found = _count_search(table, profile.dist, g.degree, floor, words, REROUTE_SEARCH_NODES)
        if found.value < ranked[0]:
            words, ranked = {v: found.witness[v] for v in words}, [found.value]
    return words if ranked[0] < start else None


def _cheapest_words(g: CosetGraph, order: list[int], into: list[list[tuple[int, int]]], loads: list[int],
                    theta: int) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """Each vertex's cheapest shortest word under weights exp(K * load / theta): its last arc, and its letter counts.

    The weights are divided by the busiest generator's, which leaves every
    choice as it is and keeps exp from overflowing.
    """
    top = max(loads)
    weight = [exp(REROUTE_K * (load - top) / theta) for load in loads]
    cost = [0.0] * g.vertex_count
    via: list[tuple[int, int]] = [(0, 0)] * g.vertex_count
    counts: list[tuple[int, ...]] = [(0,) * g.degree] * g.vertex_count
    for v in order:
        cost[v], j, u = min([(cost[u] + weight[j], j, u) for j, u in into[v]])
        via[v] = (j, u)
        tail = list(counts[u])
        tail[j] += 1
        counts[v] = tuple(tail)
    return via, counts


def _spelled(via: list[tuple[int, int]], v: int) -> tuple[int, ...]:
    """The word that follows `via`'s arcs back from v to vertex 0."""
    letters = []
    while v:
        j, v = via[v]
        letters.append(j)
    return tuple(reversed(letters))


def _compound_move(least: list[dict[tuple[int, ...], tuple[int, ...]]], held: list[tuple[int, ...]],
                   loads: list[int], ranked: list[int], order: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    """The first new letter counts for one vertex, or else for two, that lower `ranked`; [] if none do.

    Changes are grouped by their effect on the loads, so a pair is tried
    once per two effects, not once per two vertices.
    """
    changes: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for v in order:
        for new in sorted(least[v].keys() - {held[v]}):
            changes.setdefault(tuple(map(operator.sub, new, held[v])), []).append((v, new))
    effects = list(changes)
    for first in effects:
        if sorted(map(operator.add, loads, first), reverse=True) < ranked:
            return changes[first][:1]
    for i, first in enumerate(effects):
        for second in effects[i:]:
            if sorted(map(operator.add, map(operator.add, loads, first), second), reverse=True) < ranked:
                pair = next(([a, b] for a in changes[first] for b in changes[second] if a[0] != b[0]), None)
                if pair:
                    return pair
    return []


def _shortest_arcs(g: CosetGraph, dist: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """into[v]: the shortest-path DAG's arcs into v, as (generator, tail) in (tail, out-position) order."""
    into: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for u, heads in enumerate(g.out):
        for j, v in enumerate(heads):
            if dist[v] == dist[u] + 1:
                into[v].append((j, u))
    return into


class _CountTable(NamedTuple):
    """least[v]: each letter-count vector of v's shortest words to the least word with it; paths[v]: their number."""

    least: list[dict[tuple[int, ...], tuple[int, ...]]]
    paths: list[int]


def _letter_count_table(g: CosetGraph, dist: tuple[int, ...], into: list[list[tuple[int, int]]],
                        budget: int) -> _CountTable | None:
    """The letter-count table over into[v], in distance order; None once the letters listed pass `budget`.

    A vertex lists one word per entry of each tail its arcs come from.
    """
    least = [{(0,) * g.degree: ()}] * g.vertex_count
    paths = [1] * g.vertex_count
    listed = 0
    for v in sorted(range(1, g.vertex_count), key=dist.__getitem__):
        listed += dist[v] * sum(len(least[u]) for _, u in into[v])
        if listed > budget:
            return None
        here: dict[tuple[int, ...], tuple[int, ...]] = {}
        for j, u in into[v]:
            for counts, word in least[u].items():
                step = list(counts)
                step[j] += 1
                step, word = tuple(step), word + (j,)
                if step not in here or word < here[step]:
                    here[step] = word
        least[v] = here
        paths[v] = sum(paths[u] for _, u in into[v])
    return _CountTable(least, paths)


def _forced_load(table: _CountTable) -> int:
    """A floor under every shortest word set's busiest count: max over j of sum_v v's least count of j."""
    return max(map(sum, zip(*(map(min, zip(*counts)) for counts in table.least))))


class RegularBound(NamedTuple):
    """Result of minimizing the busiest generator's count over shortest word sets.

    `exact` is False when the search budget ran out; `value` is then only
    the best found, still an upper bound on the true minimum.
    """

    value: int
    exact: bool
    witness: dict[int, tuple[int, ...]]


def regular_bound_exact(g: CosetGraph, profile: LayerProfile, words: WordMap,
                        budget: int = DEFAULT_WORD_BUDGET) -> RegularBound:
    """Minimize the busiest generator count over all shortest word sets.

    Depth-first search over per-vertex letter counts, which alone set the
    busiest count: vertices in (distance, word count, index) order, each
    one's counts in the order of their least words, which spell the
    witness.  Seeded with the caller's shortest word set `words`
    (bfs_word_set's, say), pruned against the incumbent, and stopped at
    theta or the table's forced load.  The budget caps, separately, the
    letters of the table and the letters of the counts the search tries;
    exceeding either returns the best found as inexact.
    """
    _require_cayley(g)
    dist = profile.dist
    floor = average_diameter_bound(profile)
    value = max(factor_occurrences(words, g.degree))
    if value <= floor:
        return RegularBound(value=value, exact=True, witness=words)
    table = _letter_count_table(g, dist, _shortest_arcs(g, dist), budget)
    if table is None:
        return RegularBound(value=value, exact=False, witness=words)
    return _count_search(table, dist, g.degree, max(floor, _forced_load(table)), words, budget)


def _count_search(table: _CountTable, dist: tuple[int, ...], degree: int, floor: int, words: WordMap,
                  budget: int) -> RegularBound:
    """regular_bound_exact's search over `table`, seeded with `words` and stopped at `floor` or after `budget` nodes."""
    incumbent = words
    incumbent_value = max(factor_occurrences(incumbent, degree))
    if incumbent_value <= floor:  # at theta or the forced load already: nothing to search
        return RegularBound(value=incumbent_value, exact=True, witness=incumbent)
    order = sorted(range(1, len(dist)), key=lambda v: (dist[v], table.paths[v], v))
    options = {v: sorted(table.least[v].items(), key=operator.itemgetter(1)) for v in order}
    counts = [0] * degree
    chosen: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    nodes = 0
    # Depth-first on an explicit stack: tried[pos] counts the options of
    # order[pos] taken so far, and chosen holds the options of the depths above.
    tried = [0] * len(order)
    pos = 0
    while incumbent_value > floor:
        if nodes >= budget:
            return RegularBound(value=incumbent_value, exact=False, witness=incumbent)
        if pos == len(order):
            value = max(counts)
            if value < incumbent_value:
                incumbent_value = value
                incumbent = {v: word for v, (_, word) in chosen.items()}
            pos -= 1
        else:
            tried[pos] = 0
        # take the next vector that keeps every count under the incumbent, backing up when a depth runs out
        while pos >= 0:
            v = order[pos]
            if v in chosen:
                counts = list(map(operator.sub, counts, chosen.pop(v)[0]))
            if tried[pos] == len(options[v]):
                pos -= 1
                continue
            option = options[v][tried[pos]]
            tried[pos] += 1
            nodes += dist[v]
            trial = list(map(operator.add, counts, option[0]))
            if max(trial) < incumbent_value:
                counts = trial
                chosen[v] = option
                pos += 1
                break
        else:
            break
    return RegularBound(value=incumbent_value, exact=True, witness=incumbent)
