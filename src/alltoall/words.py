"""Routing word sets for Cayley graphs and the per-generator load bound.

A word set is a dict from each non-base vertex to a generator word, the
out-positions of a path from vertex 0.  On a Cayley graph the same words
route from every base, so a word set with the generator table transposed,
tuple(zip(*g.out)), is a spanning factorization.  The schedule length of
the induced exchange is at least the busiest generator's total occurrence
count, so the interesting quantity is how evenly a word set spreads its
letters.
"""

from __future__ import annotations

from typing import NamedTuple
from .errors import InputError, UnsupportedGraphError
from .graphs import CosetGraph, Digraph
from .layers import LayerProfile, average_diameter_bound
from .scheduling import WordMap, factor_occurrences

DEFAULT_WORD_BUDGET = 10_000_000


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
    """Assign shortest words in (distance, index) order, each extending a parent's word by one arc.

    A vertex's candidates are the arcs into it from the layer above.  Each
    vertex takes the candidate whose generator has the smallest total
    occurrence count so far, ties to the smaller generator index and then
    the smaller parent, so the busiest generator stays low.
    """
    _require_cayley(g)
    dist = profile.dist
    into = _shortest_arcs(g, dist)
    counts = [0] * g.degree
    words: dict[int, tuple[int, ...]] = {}
    for v in sorted(range(1, g.vertex_count), key=dist.__getitem__):
        _, j, u = min([(counts[j], j, u) for j, u in into[v]])
        words[v] = words.get(u, ()) + (j,)
        for letter in words[v]:
            counts[letter] += 1
    return words


def _shortest_arcs(g: CosetGraph, dist: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """into[v]: the shortest-path DAG's arcs into v, as (generator, tail) in (tail, out-position) order."""
    into: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for u, heads in enumerate(g.out):
        for j, v in enumerate(heads):
            if dist[v] == dist[u] + 1:
                into[v].append((j, u))
    return into


class RegularBound(NamedTuple):
    """Result of minimizing the busiest generator's count over shortest word sets.

    `exact` is False when the search budget ran out; `value` is then only
    the best found, still an upper bound on the true minimum.
    """

    value: int
    exact: bool
    witness: dict[int, tuple[int, ...]]


def _all_shortest_words(g: CosetGraph, dist: tuple[int, ...], budget: int) -> dict[int, list[tuple[int, ...]]] | None:
    """Every shortest word for every vertex, in lexicographic order; None past `budget` letters."""
    into = _shortest_arcs(g, dist)
    options: dict[int, list[tuple[int, ...]]] = {0: [()]}
    listed = 0
    for v in sorted(range(1, g.vertex_count), key=dist.__getitem__):
        listed += dist[v] * sum(len(options[u]) for _, u in into[v])
        if listed > budget:
            return None
        options[v] = sorted([w + (j,) for j, u in into[v] for w in options[u]])
    return {v: options[v] for v in range(1, g.vertex_count)}


def regular_bound_exact(g: CosetGraph, profile: LayerProfile, budget: int = DEFAULT_WORD_BUDGET) -> RegularBound:
    """Minimize the busiest generator count over all shortest word sets.

    Depth-first search over per-vertex word choices, vertices in (distance,
    index) order, seeded with the bfs_word_set answer and pruned
    against both the incumbent and the averaged lower bound.  The budget
    caps, separately, the letters of the shortest words listed before the
    search and the letters of the words the search tries, since trying a
    word updates one count per letter; exceeding either returns the best
    found as inexact.
    """
    _require_cayley(g)
    dist = profile.dist
    floor = average_diameter_bound(profile)

    incumbent = bfs_word_set(g, profile)
    incumbent_value = max(factor_occurrences(incumbent, g.degree))
    if incumbent_value <= floor:
        return RegularBound(value=incumbent_value, exact=True, witness=incumbent)

    options = _all_shortest_words(g, dist, budget)
    if options is None:
        return RegularBound(value=incumbent_value, exact=False, witness=incumbent)
    order = sorted(options, key=lambda v: (dist[v], len(options[v]), v))
    counts = [0] * g.degree
    chosen: dict[int, tuple[int, ...]] = {}
    nodes = 0
    # Depth-first on an explicit stack: tried[pos] counts the options of
    # order[pos] taken so far, and chosen holds the words of the depths above.
    tried = [0] * len(order)
    pos = 0
    while True:
        if nodes >= budget:
            return RegularBound(value=incumbent_value, exact=False, witness=incumbent)
        if pos == len(order):
            value = max(counts)
            if value < incumbent_value:
                incumbent_value = value
                incumbent = dict(chosen)
            if incumbent_value <= floor:
                break
            pos -= 1
        else:
            tried[pos] = 0
        # take the next word that keeps every count under the incumbent, backing up when a depth runs out
        while pos >= 0:
            v = order[pos]
            if v in chosen:
                for j in chosen.pop(v):
                    counts[j] -= 1
            if tried[pos] == len(options[v]):
                pos -= 1
                continue
            word = options[v][tried[pos]]
            tried[pos] += 1
            nodes += len(word)
            for j in word:
                counts[j] += 1
            if max(counts) < incumbent_value:
                chosen[v] = word
                pos += 1
                break
            for j in word:
                counts[j] -= 1
        else:
            break
    return RegularBound(value=incumbent_value, exact=True, witness=incumbent)
