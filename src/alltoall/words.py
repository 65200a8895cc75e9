"""Routing word sets for Cayley graphs and the per-generator load bound.

A word set assigns each non-base vertex a generator word spelling a path
from the base.  The schedule length of the induced exchange is at least the
busiest generator's total occurrence count, so the interesting quantity is
how evenly a word set spreads its letters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from .errors import InputError, UnsupportedGraphError
from .graphs import CosetGraph, Digraph
from .layers import average_diameter_bound, distances_from, layer_profile
from .scheduling import factor_occurrences

DEFAULT_SEARCH_BUDGET = 10_000_000


@dataclass(frozen=True)
class WordSet:
    """One generator word per non-base vertex, keyed by vertex index.

    `shortest` records whether every word has minimum possible length; the
    builders below always produce shortest words, but hand-built sets with
    slack are allowed wherever a WordSet is accepted.
    """

    words: dict[int, tuple[int, ...]]
    shortest: bool = True


def validate_word_set(g: Digraph, ws: WordSet) -> None:
    """Check every word walks from vertex 0 to its key vertex, over out-positions 0..d-1."""
    d = len(g.out[0])
    dist = distances_from(g, 0)
    expected = set(range(1, g.vertex_count))
    if set(ws.words) != expected:
        raise InputError(
            f"word set must cover exactly the non-base vertices; got keys {sorted(ws.words)}"
        )
    for target, word in ws.words.items():
        v = 0
        for j in word:
            if not (0 <= j < d):
                raise InputError(f"word for vertex {target} uses generator index {j} out of range")
            v = g.out[v][j]
        if v != target:
            raise InputError(f"word {word} for vertex {target} ends at vertex {v}")
        if ws.shortest and len(word) != dist[target]:
            raise InputError(
                f"word {word} for vertex {target} has length {len(word)}, "
                f"shortest is {dist[target]}"
            )


def _require_cayley(g: CosetGraph) -> None:
    if not g.is_cayley:
        raise UnsupportedGraphError(
            "word sets read generator labels off arcs, which is only sound when "
            "the subgroup is trivial; build a spanning factorization instead"
        )


def bfs_word_set(g: CosetGraph, mode: str = "first-found") -> WordSet:
    """Assign shortest words by breadth-first search from vertex 0.

    "first-found" keeps whatever word discovers a vertex first.
    "load-balanced" grows words greedily in distance order: each vertex
    extends a parent word one layer down, entering through the generator
    with the currently smallest total occurrence count (ties to the smaller
    generator index), so the result is deterministic.
    """
    _require_cayley(g)
    if mode == "first-found":
        words: dict[int, tuple[int, ...]] = {}
        seen = {0}
        queue = deque([(0, ())])
        while queue:
            u, word = queue.popleft()
            for j, v in enumerate(g.out[u]):
                if v not in seen:
                    seen.add(v)
                    words[v] = word + (j,)
                    queue.append((v, words[v]))
        return WordSet(words=words, shortest=True)
    if mode == "load-balanced":
        return _balanced_word_set(g)
    raise InputError(f"unknown word-set mode {mode!r}")


def _balanced_word_set(g: CosetGraph) -> WordSet:
    dist = distances_from(g, 0)
    counts = [0] * g.degree
    words: dict[int, tuple[int, ...]] = {}
    parents = _shortest_parents(g, dist)
    order = sorted(range(1, g.vertex_count), key=lambda v: (dist[v], v))
    for v in order:
        best = None
        for u in parents[v]:
            word_u = words.get(u, ())
            for j, t in enumerate(g.out[u]):
                if t != v:
                    continue
                key = (counts[j], j)
                if best is None or key < best[0]:
                    best = (key, word_u + (j,))
        assert best is not None
        words[v] = best[1]
        for letter in best[1]:
            counts[letter] += 1
    return WordSet(words=words, shortest=True)


def _shortest_parents(g: CosetGraph, dist: list[int]) -> list[list[int]]:
    """parents[v]: the vertices one layer closer to the base with an arc to v, increasing, no repeats."""
    parents: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, heads in enumerate(g.out):
        for v in heads:
            if dist[v] == dist[u] + 1 and (not parents[v] or parents[v][-1] != u):
                parents[v].append(u)
    return parents


def max_occurrence(ws: WordSet, degree: int) -> int:
    """The busiest generator's count: a lower bound on any schedule for ws."""
    counts = factor_occurrences(ws.words, degree)
    return max(counts) if counts else 0


@dataclass(frozen=True)
class RegularBound:
    """Result of minimizing max_occurrence over shortest word sets.

    `exact` is False when the search budget ran out; `value` is then only
    the best found, still an upper bound on the true minimum.
    """

    value: int
    exact: bool
    witness: WordSet


def _all_shortest_words(g: CosetGraph, dist: list[int], budget: int) -> dict[int, list[tuple[int, ...]]] | None:
    """Every shortest word for every vertex, in lexicographic order; None past `budget` letters."""
    options: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(1, g.vertex_count)}
    frontier: dict[int, list[tuple[int, ...]]] = {0: [()]}
    depth = 0
    max_depth = max(dist)
    listed = 0
    while depth < max_depth:
        nxt: dict[int, list[tuple[int, ...]]] = {}
        for u, ws_u in frontier.items():
            for j, v in enumerate(g.out[u]):
                if dist[v] != depth + 1:
                    continue
                listed += len(ws_u) * (depth + 1)
                if listed > budget:
                    return None
                nxt.setdefault(v, []).extend(w + (j,) for w in ws_u)
        for v, ws_v in nxt.items():
            options[v].extend(ws_v)
        frontier = nxt
        depth += 1
    for v, opts in options.items():
        opts.sort()
    return options


def regular_bound_exact(g: CosetGraph, budget: int = DEFAULT_SEARCH_BUDGET) -> RegularBound:
    """Minimize the busiest generator count over all shortest word sets.

    Depth-first search over per-vertex word choices, vertices in (distance,
    index) order, seeded with the load-balanced greedy answer and pruned
    against both the incumbent and the averaged lower bound.  The budget
    caps, separately, the letters of the shortest words listed before the
    search and the letters of the words the search tries, since trying a
    word updates one count per letter; exceeding either returns the best
    found as inexact.
    """
    _require_cayley(g)
    dist = distances_from(g, 0)
    profile = layer_profile(g)
    floor = average_diameter_bound(profile)

    greedy = _balanced_word_set(g)
    incumbent_value = max_occurrence(greedy, g.degree)
    incumbent = greedy
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
                incumbent = WordSet(words=dict(chosen), shortest=True)
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
